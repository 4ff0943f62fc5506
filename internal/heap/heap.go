// Package heap implements Hoard's per-processor heap structure.
//
// A heap owns a set of superblocks, organized per size class into a small
// number of fullness groups (doubly-linked lists bucketed by allocated
// fraction) plus a list of completely empty superblocks. Allocation searches
// a class's groups from mostly-full to mostly-empty, and takes an empty
// superblock only after them, which both improves locality and lets
// nearly-empty superblocks drain so they can be recycled. The heap keeps
// one class bitmask per list kind (each fullness group, full, empty): bit c
// is set exactly when class c's list of that kind is non-empty. So finding
// an empty superblock of any class — eviction's first choice, the global
// heap's cross-class take, local reuse — is a find-lowest-set-bit, and
// eviction's walk of the partly used groups visits only non-empty lists.
// The heap tracks u(i), the bytes in use, and a(i), the bytes held
// in superblocks, and exposes the paper's emptiness invariant
//
//	u(i) >= a(i) - K*S  OR  u(i) >= (1-f)*a(i)
//
// which the Hoard allocator (internal/core) restores after each free by
// moving an at-least-f-empty superblock to the global heap.
//
// Locking: a Heap performs no locking itself. Every method must be called
// with the heap's Lock held; internal/core owns the locking protocol
// (including the re-check when superblock ownership changes while a freeing
// thread waits). AllocRun and FreeBatch are a heap's only ways out and in
// for blocks, and every caller keeps one block-state contract (package
// superblock): AllocRun's blocks leave marked free, for the caller to claim
// as it hands each one to the application, and FreeBatch takes blocks back
// already marked free, a single free as a batch of one. FreeBatch frees
// only the blocks whose superblocks the heap owns and hands the rest back,
// so the caller's re-check is its return value. Blocks out of the heap
// count as in use, in u and in their superblock's fullness, whether the
// application or a thread cache holds them.
//
// Costs (see internal/env): a search charges one OpListScan per list head
// it consults plus one per superblock it visits. The mask searches replay
// the charges the list-by-list scan they replace would make, the same
// calls in the same order, so simulated runs are unchanged; on a real env,
// whose charges are no-ops, they make none (env.Simulated).
package heap

import (
	"fmt"
	"math/bits"

	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
)

// NumGroups is the number of fullness groups per size class for partly
// used superblocks; two more lists hold the completely full and the
// completely empty ones.
const NumGroups = 4

const (
	// fullGroup is the list index for completely full superblocks.
	fullGroup = NumGroups
	// emptyGroup is the list index for completely empty superblocks.
	emptyGroup = NumGroups + 1
)

// allocOrder is the order alloc consults a class's lists in: partly used
// superblocks, fullest first, then the empties.
var allocOrder = [...]int{3, 2, 1, 0, emptyGroup}

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
	// masks[g] has bit c set exactly when classes[c].groups[g] is
	// non-empty; link and unlink keep it in step with the lists.
	masks [NumGroups + 2]classMask

	// touched is FreeBatch's scratch list of the superblocks a batch
	// freed into, kept between batches so a batch allocates nothing.
	touched []*superblock.Superblock
}

// classGroups holds one class's lists, indexed by superblock.Group: the
// NumGroups fullness groups, fullGroup and emptyGroup.
type classGroups struct {
	groups [NumGroups + 2]sbList
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

// classMask is a set of size classes, bit c of word c/64 for class c: the
// classes whose list of one kind is non-empty. It spans as many words as
// the class count needs, since a size-class base b close to 1 makes more
// than 64.
type classMask []uint64

func (m classMask) set(c int)   { m[c>>6] |= 1 << (c & 63) }
func (m classMask) clear(c int) { m[c>>6] &^= 1 << (c & 63) }

// next returns the lowest class at or above c in the set, or -1.
func (m classMask) next(c int) int {
	w := c >> 6
	if w >= len(m) {
		return -1
	}
	word := m[w] &^ (1<<(c&63) - 1)
	for word == 0 {
		if w++; w == len(m) {
			return -1
		}
		word = m[w]
	}
	return w<<6 | bits.TrailingZeros64(word)
}

// link pushes sb onto the front of its class's list g and marks the list
// non-empty.
func (h *Heap) link(sb *superblock.Superblock, g int) {
	c := sb.Class()
	sb.Group = g
	h.classes[c].groups[g].pushFront(sb)
	h.masks[g].set(c)
}

// unlink removes sb from its list, marking the list empty if sb was its
// only superblock. It is the lists' one removal, written out in full so it
// stays within the inlining budget and compiles into regroup.
func (h *Heap) unlink(sb *superblock.Superblock) {
	c, g := sb.Class(), sb.Group
	prev, next := sb.Prev, sb.Next
	if prev != nil {
		prev.Next = next
	} else if h.classes[c].groups[g].head = next; next == nil {
		h.masks[g].clear(c)
	}
	if next != nil {
		next.Prev = prev
	}
	sb.Next, sb.Prev = nil, nil
}

// chargeScans makes n OpListScan charges of one each, as a scan consulting
// n list heads and superblocks one at a time makes them: each charge can be
// a switch point of the simulator, so one charge of n would not schedule
// the same. Callers call it only on a simulated env.
func chargeScans(e env.Env, n int) {
	for ; n > 0; n-- {
		e.Charge(env.OpListScan, 1)
	}
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
	h := &Heap{
		ID:      id,
		Lock:    lock,
		sbSize:  sbSize,
		fEmpty:  fEmpty,
		k:       int64(k),
		classes: make([]classGroups, numClasses),
	}
	for g := range h.masks {
		h.masks[g] = make(classMask, (numClasses+63)/64)
	}
	return h
}

// EmptyFraction returns the empty fraction f.
func (h *Heap) EmptyFraction() float64 { return h.fEmpty }

// SlackK returns the slack K.
func (h *Heap) SlackK() int { return int(h.k) }

// groupOf computes the list a superblock belongs on.
func groupOf(sb *superblock.Superblock) int {
	used, nBlocks := sb.InUse(), sb.NBlocks()
	switch {
	case used == 0:
		return emptyGroup
	case used >= nBlocks:
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
	h.link(sb, groupOf(sb))
	h.a += int64(h.sbSize)
	h.u += int64(sb.BytesInUse())
	h.nSuper++
}

// Remove detaches a superblock from the heap, releasing ownership of its
// statistics. The caller becomes responsible for the superblock.
func (h *Heap) Remove(sb *superblock.Superblock) {
	h.unlink(sb)
	h.a -= int64(h.sbSize)
	h.u -= int64(sb.BytesInUse())
	h.nSuper--
}

// regroup moves sb to its correct list after an alloc or free. Within a
// list, superblocks that move into it go to the front so recently-touched
// superblocks are reused first.
func (h *Heap) regroup(sb *superblock.Superblock) {
	g := groupOf(sb)
	if g == sb.Group {
		return
	}
	h.unlink(sb)
	h.link(sb, g)
}

// AllocRun pops a run of up to len(out) blocks of the given class into out
// from one superblock — the head of the fullest non-empty group, else the
// class's first empty superblock, so fullness groups are searched from
// mostly-full down to mostly-empty as the paper prescribes — with one group
// scan, one u update and one regroup. It returns the count (0 if no owned
// superblock of the class has a free block), which is short only when the
// superblock fills. Calling it until out is full hands out exactly the
// blocks, in exactly the order, that as many runs of one would: the
// superblock a pop came from stays the head of the fullest non-empty group
// until it fills. The blocks stay marked free (superblock.AllocRun).
func (h *Heap) AllocRun(e env.Env, class int, out []superblock.Block) int {
	lists := &h.classes[class].groups
	for _, g := range allocOrder {
		e.Charge(env.OpListScan, 1)
		sb := lists[g].head
		if sb == nil {
			continue
		}
		n := sb.AllocRun(e, out)
		if n == 0 {
			panic(fmt.Sprintf("heap %d: superblock %#x in group %d is full", h.ID, sb.Base(), g))
		}
		h.u += int64(n) * int64(sb.BlockSize())
		h.regroup(sb)
		return n
	}
	return 0
}

// Freed tallies the blocks and bytes a FreeBatch returned to the heap.
type Freed struct {
	Blocks int
	Bytes  int64
}

// FreeBatch frees every block of bs whose superblock this heap owns, and
// compacts the rest — blocks whose ownership moved — to the front of bs,
// returning their count. Each block costs one ownership check and its
// superblock push, with no call on a real env: FreeCached compiles inline,
// and the Touch of the push is charged only in a simulated one. u is
// updated once, and each superblock the batch touched is regrouped once
// (marked on first touch, an O(n) pass, not a sort). The blocks come back
// already marked free (superblock.FreeCached).
//
// freed receives the tally. When a free panics on a misused pointer, the
// blocks freed before it stay freed, accounted in u and freed, and
// regrouped before the panic propagates, so the heap stays consistent.
func (h *Heap) FreeBatch(e env.Env, bs []superblock.Block, freed *Freed) (rest int) {
	touched := h.touched
	defer func() {
		h.u -= freed.Bytes
		for _, sb := range touched {
			sb.Touched = false
			h.regroup(sb)
		}
		h.touched = touched[:0]
	}()
	sim := env.Simulated(e)
	for _, b := range bs {
		p, sb := b.P, b.SB
		if sb.OwnerID() != h.ID {
			bs[rest] = b
			rest++
			continue
		}
		sb.FreeCached(p)
		if sim {
			// The write of the block's link (superblock.FreeCached).
			e.Touch(uint64(p), 4, true)
		}
		freed.Blocks++
		freed.Bytes += int64(sb.BlockSize())
		if !sb.Touched {
			sb.Touched = true
			touched = append(touched, sb)
		}
	}
	return rest
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
// exists, and the empty mask finds the lowest class that has one.
//
// Failing that, it walks the partly used groups, emptiest first, and in
// each the classes in order, visiting only the lists the group's mask marks
// non-empty. On a simulated env it charges what walking every class's list
// would: one OpListScan per list head consulted, empty or not, plus one per
// superblock visited, so long group lists cost what they cost.
func (h *Heap) FindEvictable(e env.Env) *superblock.Superblock {
	if sb := h.firstEmpty(e, -1); sb != nil {
		return sb
	}
	visited := 0
	for g := 0; g < NumGroups; g++ {
		m := h.masks[g]
		for c := m.next(0); c >= 0; c = m.next(c + 1) {
			for sb := h.classes[c].groups[g].head; sb != nil; sb = sb.Next {
				visited++
				if sb.AtLeastEmpty(h.fEmpty) {
					if env.Simulated(e) {
						chargeScans(e, g*len(h.classes)+c+1+visited)
					}
					return sb
				}
			}
		}
	}
	if env.Simulated(e) {
		chargeScans(e, NumGroups*len(h.classes)+visited)
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
	// A completely empty same-class superblock first.
	e.Charge(env.OpListScan, 1)
	if sb := lists[emptyGroup].head; sb != nil {
		h.Remove(sb)
		sb.Recommit(e)
		return sb
	}
	for g := 0; g < NumGroups; g++ {
		e.Charge(env.OpListScan, 1)
		if sb := lists[g].head; sb != nil {
			h.Remove(sb)
			sb.Recommit(e)
			return sb
		}
	}
	// Recycle a completely empty superblock from another class.
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
	// An empty same-class superblock already serves AllocRun; reformatting
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
	sb := h.firstEmpty(e, skip)
	if sb != nil {
		h.Remove(sb)
		sb.Recommit(e)
	}
	return sb
}

// firstEmpty returns the head of the empty list of the lowest class but
// skip (-1 skips none) that has an empty superblock, or nil. The empty mask
// finds the class with no scan. On a simulated env it charges what reading
// each class's list head in turn would: one OpListScan per class up to the
// one found, or per class if none is, skip excepted.
func (h *Heap) firstEmpty(e env.Env, skip int) *superblock.Superblock {
	m := h.masks[emptyGroup]
	c := m.next(0)
	if c >= 0 && c == skip {
		c = m.next(c + 1)
	}
	if env.Simulated(e) {
		n := c + 1
		if c < 0 {
			n = len(h.classes)
		}
		if 0 <= skip && skip < n {
			n--
		}
		chargeScans(e, n)
	}
	if c < 0 {
		return nil
	}
	return h.classes[c].groups[emptyGroup].head
}

// ScavengeEmpties decommits every completely empty, still-committed
// superblock in place and returns the bytes released. The superblocks stay
// on the heap; TakeSuper recommits them transparently on reuse. The caller
// holds the heap lock.
func (h *Heap) ScavengeEmpties(e env.Env) int64 {
	var released int64
	for c := range h.classes {
		e.Charge(env.OpListScan, 1)
		for sb := h.classes[c].groups[emptyGroup].head; sb != nil; sb = sb.Next {
			e.Charge(env.OpListScan, 1)
			if !sb.Decommitted() {
				sb.Decommit(e)
				released += int64(h.sbSize)
			}
		}
	}
	return released
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
// sit below (1-f)·S in bytes purely from divisibility waste (at the extreme,
// a full superblock of two 2960-byte blocks fills 72% of 8 KiB). When
// this discounted form holds, the byte shortfall is all waste and the state
// is benign; when it is violated too, a free really did skip an eviction it
// owed. The caller must hold the heap lock.
func (h *Heap) InvariantViolatedUsable() bool {
	a := h.a - h.CapacityWaste()
	return h.u < a-h.k*int64(h.sbSize) && float64(h.u) < (1-h.fEmpty)*float64(a)
}

// CheckEmptiness reports a per-processor heap (the global heap is exempt)
// that violates the emptiness invariant with no superblock to evict. The
// invariant is enforced at frees; mallocs may leave a heap transiently
// below it, but whenever it is violated an evictable superblock must exist
// — unless the byte shortfall is pure capacity waste: eviction candidacy is
// a block fraction, so superblocks ≥ (1-f) full by blocks can sit below
// (1-f)*a in bytes when their class's block size does not divide S, and the
// free path correctly finds no victim there (InvariantViolatedUsable
// re-checks with the waste discounted). The caller must hold the heap lock.
func (h *Heap) CheckEmptiness(e env.Env) error {
	if h.ID == 0 || !h.InvariantViolated() || h.FindEvictable(e) != nil || !h.InvariantViolatedUsable() {
		return nil
	}
	return fmt.Errorf("hoard: heap %d violates emptiness invariant with no evictable superblock (u=%d a=%d)",
		h.ID, h.u, h.a)
}

// ClassOccupancy is one size class's occupancy within a heap: superblock
// count, bytes in use, and the fullness-group histogram. Groups[NumGroups]
// is the completely-full group; Groups[0] counts the completely empty
// superblocks with group 0's lightly used ones.
type ClassOccupancy struct {
	Class       int
	BlockSize   int
	Superblocks int
	InUseBytes  int64
	Groups      [NumGroups + 1]int
}

// Occupancy is a heap's occupancy at one instant — the paper's u(i)/a(i)
// plus structural detail. The caller must hold the heap lock.
type Occupancy struct {
	U, A        int64
	Superblocks int
	// Decommitted counts held superblocks whose pages are currently
	// scavenged (reserved but not committed).
	Decommitted int
	// Groups is the fullness-group histogram, as in ClassOccupancy.
	Groups [NumGroups + 1]int
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
		for l := range h.classes[c].groups {
			g := l
			if l == emptyGroup {
				g = 0
			}
			for sb := h.classes[c].groups[l].head; sb != nil; sb = sb.Next {
				occ.Groups[g]++
				if sb.Decommitted() {
					occ.Decommitted++
				}
				if detail {
					cls.Groups[g]++
					cls.Superblocks++
					cls.InUseBytes += int64(sb.BytesInUse())
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

// forEach visits every superblock the heap holds, in class/list order.
func (h *Heap) forEach(fn func(sb *superblock.Superblock) error) error {
	for c := range h.classes {
		for g := range h.classes[c].groups {
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
// the superblocks' online check, which reads only the free states of listed
// blocks: thread caches and the application change the states of the blocks
// they hold without the lock.
func (h *Heap) CheckIntegrityOnline() error {
	return h.checkIntegrity(nil, true)
}

func (h *Heap) checkIntegrity(cached map[*superblock.Superblock]int, online bool) error {
	for g, m := range h.masks {
		for c := range len(m) * 64 {
			set := m[c>>6]&(1<<(c&63)) != 0
			nonEmpty := c < len(h.classes) && h.classes[c].groups[g].head != nil
			if set != nonEmpty {
				return fmt.Errorf("heap %d: class %d list %d has mask bit %v, non-empty %v",
					h.ID, c, g, set, nonEmpty)
			}
		}
	}
	var u, a int64
	n := 0
	err := h.forEach(func(sb *superblock.Superblock) error {
		if sb.OwnerID() != h.ID {
			return fmt.Errorf("heap %d: holds superblock owned by %d", h.ID, sb.OwnerID())
		}
		if sb.Touched {
			return fmt.Errorf("heap %d: superblock %#x still marked touched", h.ID, sb.Base())
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
