// Package heap implements Hoard's per-processor heap structure.
//
// A heap owns a set of superblocks, organized per size class into a small
// number of fullness groups (doubly-linked lists bucketed by allocated
// fraction). Allocation searches a class's groups from mostly-full to
// mostly-empty, which both improves locality and lets nearly-empty
// superblocks drain so they can be recycled. The heap tracks u(i), the bytes
// in use, and a(i), the bytes held in superblocks, and exposes the paper's
// emptiness invariant
//
//	u(i) >= a(i) - K*S  OR  u(i) >= (1-f)*a(i)
//
// which the Hoard allocator (internal/core) restores after each free by
// moving an at-least-f-empty superblock to the global heap.
//
// Locking: a Heap performs no locking itself. Every method must be called
// with the heap's Lock held; internal/core owns the locking protocol
// (including the re-check dance when superblock ownership changes while a
// freeing thread waits). Blocks a thread cache holds count as in use, in u
// and in their superblock's fullness.
package heap

import (
	"fmt"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
)

// NumGroups is the number of fullness groups per size class for non-full
// superblocks; an additional group holds completely full superblocks.
const NumGroups = 4

// fullGroup is the group index for completely full superblocks.
const fullGroup = NumGroups

// Heap is one Hoard heap (per-processor or global).
type Heap struct {
	// ID is the heap's index: 0 is the global heap, 1..N are
	// per-processor heaps.
	ID int
	// Lock serializes all access to the heap. Held by callers.
	Lock env.Lock

	sbSize int
	// fEmpty is the empty fraction f and k the slack K of the emptiness
	// invariant, fixed at construction.
	fEmpty  float64
	k       int64
	u       int64 // bytes out of this heap's superblocks
	a       int64 // bytes held in superblocks
	classes []classGroups
	nSuper  int
}

type classGroups struct {
	groups [NumGroups + 1]sbList
}

// sbList is an intrusive doubly-linked list of superblocks.
type sbList struct {
	head *superblock.Superblock
}

func (l *sbList) pushFront(sb *superblock.Superblock) {
	sb.Prev = nil
	sb.Next = l.head
	if l.head != nil {
		l.head.Prev = sb
	}
	l.head = sb
}

func (l *sbList) remove(sb *superblock.Superblock) {
	if sb.Prev != nil {
		sb.Prev.Next = sb.Next
	} else {
		l.head = sb.Next
	}
	if sb.Next != nil {
		sb.Next.Prev = sb.Prev
	}
	sb.Next, sb.Prev = nil, nil
}

// New creates an empty heap. sbSize is S; fEmpty and k parameterize the
// emptiness invariant; numClasses is the size-class count; lock is the
// heap's lock (created by the caller in the appropriate environment).
func New(id, sbSize int, fEmpty float64, k, numClasses int, lock env.Lock) *Heap {
	if fEmpty <= 0 || fEmpty >= 1 {
		panic(fmt.Sprintf("heap: empty fraction %v out of (0,1)", fEmpty))
	}
	if k < 0 {
		panic(fmt.Sprintf("heap: slack K %d negative", k))
	}
	return &Heap{
		ID:      id,
		Lock:    lock,
		sbSize:  sbSize,
		fEmpty:  fEmpty,
		k:       int64(k),
		classes: make([]classGroups, numClasses),
	}
}

// EmptyFraction returns the empty fraction f.
func (h *Heap) EmptyFraction() float64 { return h.fEmpty }

// SlackK returns the slack K.
func (h *Heap) SlackK() int { return int(h.k) }

// groupOf computes the fullness group for a superblock.
func groupOf(sb *superblock.Superblock) int {
	used, nBlocks := sb.InUse(), sb.NBlocks()
	if used >= nBlocks {
		return fullGroup
	}
	return min(used*NumGroups/nBlocks, NumGroups-1)
}

// U returns the bytes out of this heap's superblocks: allocated to the
// application or held by thread caches.
func (h *Heap) U() int64 { return h.u }

// A returns the bytes held by this heap in superblocks (S per superblock).
func (h *Heap) A() int64 { return h.a }

// Superblocks returns the number of superblocks the heap holds.
func (h *Heap) Superblocks() int { return h.nSuper }

// InvariantViolated reports whether the emptiness invariant fails, i.e.
// u < a - K*S AND u < (1-f)*a. The Hoard free path must restore the
// invariant when this returns true. The global heap never evicts, so core
// only consults this on per-processor heaps.
func (h *Heap) InvariantViolated() bool {
	return h.u < h.a-h.k*int64(h.sbSize) && float64(h.u) < (1-h.fEmpty)*float64(h.a)
}

// Insert adds a superblock (and its current contents) to the heap, taking
// ownership. The superblock must not be on any other heap.
func (h *Heap) Insert(sb *superblock.Superblock) {
	sb.SetOwnerID(h.ID)
	sb.Group = groupOf(sb)
	h.classes[sb.Class()].groups[sb.Group].pushFront(sb)
	h.a += int64(h.sbSize)
	h.u += int64(sb.BytesInUse())
	h.nSuper++
}

// Remove detaches a superblock from the heap, releasing ownership of its
// statistics. The caller becomes responsible for the superblock.
func (h *Heap) Remove(sb *superblock.Superblock) {
	h.classes[sb.Class()].groups[sb.Group].remove(sb)
	h.a -= int64(h.sbSize)
	h.u -= int64(sb.BytesInUse())
	h.nSuper--
}

// regroup moves sb to its correct fullness group after an alloc or free.
// Within a group, superblocks freed into the group go to the front so
// recently-touched superblocks are reused first.
func (h *Heap) regroup(sb *superblock.Superblock) {
	g := groupOf(sb)
	if g == sb.Group {
		return
	}
	lists := &h.classes[sb.Class()].groups
	lists[sb.Group].remove(sb)
	sb.Group = g
	lists[g].pushFront(sb)
}

// AllocBlock allocates one block of the given class to the application from
// the heap's superblocks, searching fullness groups from mostly-full down to
// mostly-empty as the paper prescribes. ok is false if no owned superblock
// of the class has a free block.
func (h *Heap) AllocBlock(e env.Env, class int) (alloc.Ptr, bool) {
	p, _, ok := h.alloc(e, class, false)
	return p, ok
}

// AllocCached is AllocBlock for a thread cache's refill: the block keeps its
// free bit (superblock.AllocCached), and the superblock it came from is
// returned with it.
func (h *Heap) AllocCached(e env.Env, class int) (alloc.Ptr, *superblock.Superblock, bool) {
	return h.alloc(e, class, true)
}

func (h *Heap) alloc(e env.Env, class int, cached bool) (alloc.Ptr, *superblock.Superblock, bool) {
	lists := &h.classes[class].groups
	for g := NumGroups - 1; g >= 0; g-- {
		e.Charge(env.OpListScan, 1)
		sb := lists[g].head
		if sb == nil {
			continue
		}
		var p alloc.Ptr
		var ok bool
		if cached {
			p, ok = sb.AllocCached(e)
		} else {
			p, ok = sb.AllocBlock(e)
		}
		if !ok {
			panic(fmt.Sprintf("heap %d: superblock %#x in group %d is full", h.ID, sb.Base(), g))
		}
		h.u += int64(sb.BlockSize())
		h.regroup(sb)
		return p, sb, true
	}
	return 0, nil, false
}

// FreeBlock returns an application-held block to its superblock, which must
// be owned by this heap.
func (h *Heap) FreeBlock(e env.Env, sb *superblock.Superblock, p alloc.Ptr) {
	h.checkOwner("FreeBlock", sb)
	sb.FreeBlock(e, p)
	h.u -= int64(sb.BlockSize())
	h.regroup(sb)
}

// FreeCached returns a thread-cached block (free bit already set) to its
// superblock, which must be owned by this heap.
func (h *Heap) FreeCached(e env.Env, sb *superblock.Superblock, p alloc.Ptr) {
	h.checkOwner("FreeCached", sb)
	sb.FreeCached(e, p)
	h.u -= int64(sb.BlockSize())
	h.regroup(sb)
}

// FreeBlocks returns a batch of application-held blocks to one superblock,
// which must be owned by this heap — the batch form of FreeBlock: one u
// update and one regroup for the whole group.
func (h *Heap) FreeBlocks(e env.Env, sb *superblock.Superblock, ps []alloc.Ptr) {
	h.checkOwner("FreeBlocks", sb)
	for _, p := range ps {
		sb.FreeBlock(e, p)
	}
	h.u -= int64(len(ps)) * int64(sb.BlockSize())
	h.regroup(sb)
}

func (h *Heap) checkOwner(op string, sb *superblock.Superblock) {
	if sb.OwnerID() != h.ID {
		panic(fmt.Sprintf("heap %d: %s on superblock owned by heap %d", h.ID, op, sb.OwnerID()))
	}
}

// FindEvictable returns a superblock that is at least f-empty, preferring
// completely empty superblocks. It returns nil if none qualifies. After a
// free that violates the emptiness invariant one qualifies in all but one
// state (the invariant implies the average superblock is more than f empty
// in byte terms): a heap of completely full superblocks of a class whose
// block size does not divide S — see AllFull.
//
// The preference matters: regrouping pushes the currently-draining
// superblock to the front of group 0, so taking the first qualifying
// candidate would routinely evict a superblock still holding up to
// (1-f) of its blocks — whose future frees then serialize on the global
// heap. A fully drained superblock is the right victim whenever one
// exists.
func (h *Heap) FindEvictable(e env.Env) *superblock.Superblock {
	// Cost discipline (see internal/env): one OpListScan per list head
	// consulted plus one per superblock visited, so long group-0 lists
	// cost what they cost instead of a flat per-class charge.
	for c := range h.classes {
		e.Charge(env.OpListScan, 1)
		for sb := h.classes[c].groups[0].head; sb != nil; sb = sb.Next {
			e.Charge(env.OpListScan, 1)
			if sb.Empty() {
				return sb
			}
		}
	}
	for g := 0; g < NumGroups; g++ {
		for c := range h.classes {
			e.Charge(env.OpListScan, 1)
			for sb := h.classes[c].groups[g].head; sb != nil; sb = sb.Next {
				e.Charge(env.OpListScan, 1)
				if sb.AtLeastEmpty(h.fEmpty) {
					return sb
				}
			}
		}
	}
	return nil
}

// TakeSuper removes and returns a superblock able to serve the given class:
// first a superblock of that class with free space (emptiest first), then a
// completely empty superblock of any class reinitialized to the class. It
// returns nil if the heap has neither. This is the global heap's side of
// Hoard's malloc slow path.
//
// Emptiest-first matters: superblocks evicted to the global heap may still
// hold live blocks belonging to other threads; handing those out first
// tangles heaps together (their eventual frees contend on whichever heap
// received the superblock). Preferring the emptiest — usually completely
// empty — superblock keeps heap ownership disjoint while still recycling
// partial superblocks once demand exhausts the empties.
func (h *Heap) TakeSuper(e env.Env, class, blockSize int) *superblock.Superblock {
	lists := &h.classes[class].groups
	// Completely empty same-class superblocks first (group 0 mixes empty
	// and lightly-used superblocks, so scan it for a true empty).
	for sb := lists[0].head; sb != nil; sb = sb.Next {
		e.Charge(env.OpListScan, 1)
		if sb.Empty() {
			h.Remove(sb)
			sb.Recommit(e)
			return sb
		}
	}
	for g := 0; g < NumGroups; g++ {
		e.Charge(env.OpListScan, 1)
		if sb := lists[g].head; sb != nil {
			h.Remove(sb)
			sb.Recommit(e)
			return sb
		}
	}
	// Recycle a completely empty superblock from another class. As in
	// FindEvictable, the scan charges per node visited, not per class.
	if sb := h.takeEmpty(e, -1); sb != nil {
		sb.Reinit(class, blockSize)
		return sb
	}
	return nil
}

// ReuseEmpty reformats one of this heap's own completely empty superblocks
// of a different class to serve the given class, leaving it owned by this
// heap, or returns nil if no empty superblock exists. This is the malloc
// slow path's step between "my heap has no free block of this class" and
// "take a superblock from the global heap": the paper lets empty superblocks
// be recycled for any size class, and doing it locally keeps a(i) unchanged
// — where a global-heap take grows a(i) by S and routinely pushes the heap
// over the emptiness invariant, evicting some other class's emptiest
// superblock and setting up the next take. Cutting that cycle is what keeps
// the slow path off the global lock in steady state.
func (h *Heap) ReuseEmpty(e env.Env, class, blockSize int) *superblock.Superblock {
	// An empty same-class superblock already serves AllocBlock; reformatting
	// it would buy nothing, so skip the class.
	sb := h.takeEmpty(e, class)
	if sb == nil {
		return nil
	}
	sb.Reinit(class, blockSize)
	h.Insert(sb)
	return sb
}

// takeEmpty removes and returns a completely empty superblock of any class
// but skip, recommitted if it was scavenged (and necessarily before a
// Reinit, whose formatter describes the restored memory), or nil.
func (h *Heap) takeEmpty(e env.Env, skip int) *superblock.Superblock {
	for c := range h.classes {
		if c == skip {
			continue
		}
		e.Charge(env.OpListScan, 1)
		for sb := h.classes[c].groups[0].head; sb != nil; sb = sb.Next {
			e.Charge(env.OpListScan, 1)
			if sb.Empty() {
				h.Remove(sb)
				sb.Recommit(e)
				return sb
			}
		}
	}
	return nil
}

// EmptyCommittedBytes sums the committed bytes held by completely empty
// superblocks — the scavengable surplus the release policy watches. Already
// decommitted superblocks do not count. The caller holds the heap lock.
func (h *Heap) EmptyCommittedBytes(e env.Env) int64 {
	var total int64
	for c := range h.classes {
		e.Charge(env.OpListScan, 1)
		for sb := h.classes[c].groups[0].head; sb != nil; sb = sb.Next {
			e.Charge(env.OpListScan, 1)
			if sb.Empty() && !sb.Decommitted() {
				total += int64(h.sbSize)
			}
		}
	}
	return total
}

// ScavengeEmpties decommits completely empty, still-committed superblocks in
// place — oldest park stamp first — until at least maxBytes have been
// released or no eligible victim remains. A superblock is eligible if it is
// empty, committed, and was last parked at or before coldBefore (pass the
// current clock to disable the cold-age filter, math.MaxInt64 to scavenge
// regardless of stamps). The superblocks stay on the heap; TakeSuper
// recommits them transparently on reuse. Returns the bytes released and the
// number of superblocks decommitted. The caller holds the heap lock.
func (h *Heap) ScavengeEmpties(e env.Env, maxBytes int64, coldBefore int64) (int64, int) {
	if maxBytes <= 0 {
		return 0, 0
	}
	var victims []*superblock.Superblock
	for c := range h.classes {
		e.Charge(env.OpListScan, 1)
		for sb := h.classes[c].groups[0].head; sb != nil; sb = sb.Next {
			e.Charge(env.OpListScan, 1)
			if sb.Empty() && !sb.Decommitted() && sb.ParkedAt() <= coldBefore {
				victims = append(victims, sb)
			}
		}
	}
	// Oldest first: the longer a superblock has sat idle, the less likely
	// the next malloc burst wants it back (and the cheaper the decommit is
	// relative to its remaining lifetime). Insertion sort — victim lists
	// are short and the heap lock is held.
	for i := 1; i < len(victims); i++ {
		for j := i; j > 0 && victims[j-1].ParkedAt() > victims[j].ParkedAt(); j-- {
			victims[j-1], victims[j] = victims[j], victims[j-1]
		}
	}
	var released int64
	n := 0
	for _, sb := range victims {
		if released >= maxBytes {
			break
		}
		sb.Decommit(e)
		released += int64(h.sbSize)
		n++
	}
	return released, n
}

// AllFull reports whether every held superblock is completely full — the
// one state where a violated emptiness invariant has no remedy: size
// classes whose block size does not divide S waste the tail of each
// superblock, so a heap of full superblocks can sit below (1-f)*a in byte
// terms with nothing at all to evict (e.g. two 2960-byte blocks fill only
// 72% of an 8 KiB superblock).
func (h *Heap) AllFull() bool {
	full := true
	h.forEach(func(sb *superblock.Superblock) error {
		if !sb.Full() {
			full = false
		}
		return nil
	})
	return full
}

// CapacityWaste is the bytes of held superblocks unusable by construction:
// the tail of each superblock left over when its class's block size does
// not divide the superblock size. The caller must hold the heap lock.
func (h *Heap) CapacityWaste() int64 {
	var waste int64
	h.forEach(func(sb *superblock.Superblock) error {
		waste += int64(sb.Size() - sb.NBlocks()*sb.BlockSize())
		return nil
	})
	return waste
}

// InvariantViolatedUsable re-evaluates the emptiness invariant with
// capacity waste discounted from a — the invariant over bytes a free could
// actually reclaim. The plain invariant (u, a against S per superblock) can
// be violated with no evictable superblock: eviction candidacy is a *block*
// fraction (AtLeastEmpty), so a superblock ≥ (1-f) full by blocks may still
// sit below (1-f)·S in bytes purely from divisibility waste (AllFull is the
// extreme point — e.g. two 2960-byte blocks filling 72% of 8 KiB). When
// this discounted form holds, the byte shortfall is all waste and the state
// is benign; when it is violated too, a free really did skip an eviction it
// owed. The caller must hold the heap lock.
func (h *Heap) InvariantViolatedUsable() bool {
	a := h.a - h.CapacityWaste()
	return h.u < a-h.k*int64(h.sbSize) && float64(h.u) < (1-h.fEmpty)*float64(a)
}

// ClassOccupancy is one size class's occupancy within a heap: superblock
// count, bytes in use, and the fullness-group histogram. Groups[NumGroups]
// is the completely-full group.
type ClassOccupancy struct {
	Class       int
	BlockSize   int
	Superblocks int
	// EmptySuperblocks counts held superblocks with zero blocks in use —
	// reclaimable backlog rather than fragmented working memory. Samplers
	// that estimate fragmentation subtract them from the denominator.
	EmptySuperblocks int
	InUseBytes       int64
	Groups           [NumGroups + 1]int
}

// Occupancy is a heap's occupancy at one instant — the paper's u(i)/a(i)
// plus structural detail. The caller must hold the heap lock.
type Occupancy struct {
	U, A        int64
	Superblocks int
	// Decommitted counts held superblocks whose pages are currently
	// scavenged (reserved but not committed).
	Decommitted int
	Groups      [NumGroups + 1]int
	// Classes holds per-class detail for classes with at least one
	// superblock; nil when detail was not requested.
	Classes []ClassOccupancy
}

// SampleOccupancy snapshots the heap's occupancy. With detail it also breaks
// the histogram down per size class. The caller must hold the heap lock; the
// walk only reads list heads and per-superblock counters, so it is cheap
// enough to run from a sampler under load.
func (h *Heap) SampleOccupancy(detail bool) Occupancy {
	occ := Occupancy{
		U:           h.u,
		A:           h.a,
		Superblocks: h.nSuper,
	}
	for c := range h.classes {
		var cls ClassOccupancy
		for g := 0; g <= fullGroup; g++ {
			for sb := h.classes[c].groups[g].head; sb != nil; sb = sb.Next {
				occ.Groups[g]++
				if sb.Decommitted() {
					occ.Decommitted++
				}
				if detail {
					cls.Groups[g]++
					cls.Superblocks++
					inUse := int64(sb.BytesInUse())
					cls.InUseBytes += inUse
					if inUse == 0 {
						cls.EmptySuperblocks++
					}
					if cls.BlockSize == 0 {
						cls.Class = c
						cls.BlockSize = sb.BlockSize()
					}
				}
			}
		}
		if detail && cls.Superblocks > 0 {
			occ.Classes = append(occ.Classes, cls)
		}
	}
	return occ
}

// forEach visits every superblock the heap holds, in class/group order.
func (h *Heap) forEach(fn func(sb *superblock.Superblock) error) error {
	for c := range h.classes {
		for g := 0; g <= fullGroup; g++ {
			for sb := h.classes[c].groups[g].head; sb != nil; sb = sb.Next {
				if err := fn(sb); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// CheckIntegrity validates list structure, grouping, ownership, and the u/a
// accounting against the superblocks' counters, for a heap none of whose
// blocks is thread-cached. The heap must be quiescent.
func (h *Heap) CheckIntegrity() error {
	return h.checkIntegrity(nil, false)
}

// CheckIntegrityCached is CheckIntegrity with the blocks thread caches hold:
// cached[sb] is the number of sb's blocks in caches (see
// superblock.CheckIntegrityCached). The heap must be quiescent.
func (h *Heap) CheckIntegrityCached(cached map[*superblock.Superblock]int) error {
	return h.checkIntegrity(cached, false)
}

// CheckIntegrityOnline is CheckIntegrity for a heap whose lock the caller
// holds while other threads keep allocating elsewhere. All heap bookkeeping
// is consistent under the lock; the only concession to concurrency is using
// the superblocks' online check, which tolerates thread caches flipping the
// free bits of blocks they hold.
func (h *Heap) CheckIntegrityOnline() error {
	return h.checkIntegrity(nil, true)
}

func (h *Heap) checkIntegrity(cached map[*superblock.Superblock]int, online bool) error {
	var u, a int64
	n := 0
	err := h.forEach(func(sb *superblock.Superblock) error {
		if sb.OwnerID() != h.ID {
			return fmt.Errorf("heap %d: holds superblock owned by %d", h.ID, sb.OwnerID())
		}
		if want := groupOf(sb); sb.Group != want {
			return fmt.Errorf("heap %d: superblock %#x in group %d, want %d (%d/%d in use)",
				h.ID, sb.Base(), sb.Group, want, sb.InUse(), sb.NBlocks())
		}
		var serr error
		if online {
			serr = sb.CheckIntegrityOnline()
		} else {
			serr = sb.CheckIntegrityCached(cached[sb])
		}
		if serr != nil {
			return fmt.Errorf("heap %d: %w", h.ID, serr)
		}
		u += int64(sb.BytesInUse())
		a += int64(h.sbSize)
		n++
		return nil
	})
	if err != nil {
		return err
	}
	if u != h.u || a != h.a || n != h.nSuper {
		return fmt.Errorf("heap %d: accounting u=%d a=%d n=%d, superblocks say u=%d a=%d n=%d",
			h.ID, h.u, h.a, h.nSuper, u, a, n)
	}
	return nil
}
