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
// Locking: a Heap performs no locking itself. Every method except the
// explicitly lock-free hint/warm accessors must be called with the heap's
// Lock held; internal/core owns the locking protocol (including the re-check
// dance when superblock ownership changes while a freeing thread waits).
//
// Lock-free traffic: superblocks owned by a per-processor heap serve
// warm-path mallocs and owner-local frees without this lock (DESIGN.md §11).
// Those paths move the superblocks' live used counts but cannot touch the
// heap's books, so each superblock carries an accounted count (Acct) that
// the heap owns and reconciles lazily: u, the fullness groups, and the
// emptiness invariant are all defined over the accounted counts, which makes
// them exact under the lock at all times. The lock-free paths maintain uHint
// — u plus the unreconciled drift — so the free fast path can watch the
// invariant without the lock and escalate to a locked
// confirm-reconcile-restore pass only when the hint trips.
package heap

import (
	"fmt"
	"sync/atomic"

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
	u       int64
	a       atomic.Int64 // bytes held in superblocks; atomic so hint checks read it lockless
	classes []classGroups
	nSuper  int

	// uHint tracks u plus the drift the lock-free paths have applied to
	// the superblocks' live counts but not yet to the books: locked paths
	// update it through addU, fast paths through HintAdd. It is exact
	// whenever no fast op is mid-flight and is re-anchored to u by
	// SyncAll; between those points it is a racy hint the free fast path
	// uses to watch the emptiness invariant without the lock.
	uHint atomic.Int64

	// warm caches, per size class, the Ref of the superblock the locked
	// malloc path last allocated from — the lock-free warm path's first
	// target. Stale entries are harmless: a sealed or reformatted
	// superblock fails the fast path's checks and the next locked malloc
	// republishes.
	warm []atomic.Pointer[superblock.Ref]

	// rings holds, per size class, a small ring of additional warm
	// candidates fed by the free fast path: a lock-free free that turns a
	// superblock's free list nonempty publishes the Ref here, so the
	// malloc fast path sees superblocks made allocatable by frees without
	// anyone taking the heap lock. Entries go stale the same harmless way
	// warm does.
	rings []warmRing
}

// WarmRingSize is the number of free-fed warm candidates kept per size
// class, beyond the malloc-published warm Ref. Sized so a burst of frees
// scattered over several superblocks leaves the malloc fast path enough
// targets to ride through a whole refill's worth of pops without the lock.
const WarmRingSize = 16

// warmRing is a lossy ring of warm-path candidates. Publishes overwrite
// round-robin; readers scan all slots. Purely advisory.
type warmRing struct {
	next  atomic.Uint32
	slots [WarmRingSize]atomic.Pointer[superblock.Ref]
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
		warm:    make([]atomic.Pointer[superblock.Ref], numClasses),
		rings:   make([]warmRing, numClasses),
	}
}

// EmptyFraction returns the empty fraction f. Lock-free.
func (h *Heap) EmptyFraction() float64 { return h.fEmpty }

// SlackK returns the slack K. Lock-free.
func (h *Heap) SlackK() int { return int(h.k) }

// groupOfCount computes the fullness group for an accounted in-use count.
func groupOfCount(used, nBlocks int) int {
	if used >= nBlocks {
		return fullGroup
	}
	g := used * NumGroups / nBlocks
	if g >= NumGroups {
		g = NumGroups - 1
	}
	return g
}

// groupOf computes the fullness group for a superblock from its accounted
// count — grouping, like u, is defined over the books, not the racy live
// word.
func groupOf(sb *superblock.Superblock) int {
	return groupOfCount(sb.Acct, sb.NBlocks())
}

// addU applies a locked-path delta to the books: u and the hint move
// together, so the hint's drift stays exactly the fast paths' unreconciled
// contribution.
func (h *Heap) addU(delta int64) {
	h.u += delta
	h.uHint.Add(delta)
}

// syncSuper reconciles one superblock's accounted count with its live word:
// the difference (drift applied by lock-free ops) moves into u — but not
// into uHint, which already received it via HintAdd — and the superblock is
// regrouped. The caller holds the heap lock.
func (h *Heap) syncSuper(sb *superblock.Superblock) {
	n := sb.InUse()
	if n == sb.Acct {
		return
	}
	h.u += int64(n-sb.Acct) * int64(sb.BlockSize())
	sb.Acct = n
	h.regroup(sb)
}

// Sync reconciles one owned superblock's accounting with its live word —
// the single-superblock form of SyncAll, used before Remove so that no
// fast-path drift leaks into this heap's u when the superblock departs.
// The caller holds the heap lock.
func (h *Heap) Sync(sb *superblock.Superblock) {
	h.syncSuper(sb)
}

// SyncAll reconciles every owned superblock's accounting with its live word
// and re-anchors uHint to the exact u — the step that turns the hint's
// suspicion into a fact the invariant check can act on. The caller holds the
// heap lock.
func (h *Heap) SyncAll(e env.Env) {
	for c := range h.classes {
		for g := 0; g <= fullGroup; g++ {
			for sb := h.classes[c].groups[g].head; sb != nil; {
				next := sb.Next
				e.Charge(env.OpListScan, 1)
				h.syncSuper(sb)
				sb = next
			}
		}
	}
	// Fast ops that completed before the loop are folded into u; ops that
	// raced it re-drift the hint after this store and trip it again.
	h.uHint.Store(h.u)
}

// U returns the accounted bytes allocated from this heap's superblocks.
func (h *Heap) U() int64 { return h.u }

// LiveU sums the superblocks' live in-use bytes — the accounted u plus any
// unreconciled fast-path drift. The caller holds the heap lock.
func (h *Heap) LiveU() int64 {
	var total int64
	h.forEach(func(sb *superblock.Superblock) error {
		total += int64(sb.BytesInUse())
		return nil
	})
	return total
}

// A returns the bytes held by this heap in superblocks (S per superblock).
func (h *Heap) A() int64 { return h.a.Load() }

// Superblocks returns the number of superblocks the heap holds.
func (h *Heap) Superblocks() int { return h.nSuper }

// Warm returns the cached warm-path Ref for a size class, or nil. Lock-free.
func (h *Heap) Warm(class int) *superblock.Ref {
	if class < 0 || class >= len(h.warm) {
		return nil
	}
	return h.warm[class].Load()
}

// WarmAt returns the i-th free-fed warm candidate for a size class (i in
// [0, WarmRingSize)), or nil. Lock-free; entries may be stale.
func (h *Heap) WarmAt(class, i int) *superblock.Ref {
	if class < 0 || class >= len(h.rings) {
		return nil
	}
	return h.rings[class].slots[i].Load()
}

// PublishWarm records a free-fed warm candidate for a size class,
// overwriting the oldest ring slot. Lock-free; called by the free fast path
// after its CAS push lands, so the malloc fast path can find the superblock
// the block just went back to. A run of frees to one superblock would
// otherwise fill the whole ring with copies, so a publish that matches the
// most recent slot is dropped (racy, and that's fine — a duplicate slot is
// only a wasted scan, every entry is identity-checked at pop time).
func (h *Heap) PublishWarm(class int, ref *superblock.Ref) {
	if class < 0 || class >= len(h.rings) {
		return
	}
	r := &h.rings[class]
	n := r.next.Load()
	if r.slots[(n+WarmRingSize-1)%WarmRingSize].Load() == ref {
		return
	}
	if !r.next.CompareAndSwap(n, n+1) {
		// Another publisher advanced the ring under us; drop this one
		// rather than double-advance. The next free republishes.
		return
	}
	r.slots[n%WarmRingSize].Store(ref)
}

// PromoteWarm makes ref the first warm-path target for its class — called
// by the malloc fast path when a ring candidate served a pop, so subsequent
// pops hit it first.
func (h *Heap) PromoteWarm(class int, ref *superblock.Ref) {
	if class < 0 || class >= len(h.warm) {
		return
	}
	h.warm[class].Store(ref)
}

// ArmRing fills the class's warm ring with owned superblocks that still have
// free capacity, scanning fullness groups emptiest-first. This is the ring's
// slow-path feeder: a locked refill that runs anyway exposes up to
// WarmRingSize superblocks' worth of blocks to the lock-free paths instead of
// just the one it served from, complementing the free fast path's
// empty-transition publishes. Emptiest-first is the opposite of AllocBlock's
// order on purpose: the ring exists to maximize pops between two lock
// acquisitions, and the emptiest superblocks hold the longest free lists (an
// armed superblock is still evictable — eviction seals it, after which its
// ring entries just stop serving). Slots past the last candidate keep their
// old entries — the ring is a cache, and every entry is identity-checked at
// pop time. Caller must hold the heap lock.
func (h *Heap) ArmRing(e env.Env, class int) {
	if class < 0 || class >= len(h.rings) {
		return
	}
	r := &h.rings[class]
	lists := &h.classes[class].groups
	n := 0
	for g := 0; g < NumGroups && n < WarmRingSize; g++ {
		e.Charge(env.OpListScan, 1)
		for sb := lists[g].head; sb != nil && n < WarmRingSize; sb = sb.Next {
			if sb.Full() {
				continue
			}
			r.slots[n].Store(sb.SelfRef())
			n++
		}
	}
}

// HintAdd folds a lock-free fast-path delta into uHint. Lock-free; called
// by internal/core after each warm-path malloc (+blockSize) and owner-local
// fast free (-blockSize).
func (h *Heap) HintAdd(delta int64) { h.uHint.Add(delta) }

// InvariantViolated reports whether the emptiness invariant fails, i.e.
// u < a - K*S AND u < (1-f)*a. The Hoard free path must restore the
// invariant when this returns true. The global heap never evicts, so core
// only consults this on per-processor heaps. Callers racing lock-free
// traffic must SyncAll first — the invariant is defined over the accounted u.
func (h *Heap) InvariantViolated() bool {
	return h.invariantViolatedAt(h.u)
}

// HintSuspectsViolation is the lock-free form: it evaluates the invariant at
// uHint, clamped at zero (racing fast ops can briefly drive the hint
// negative). A true result is only a suspicion — the caller must take the
// lock, SyncAll, and consult InvariantViolated before evicting. Called
// without the lock after every fast free.
func (h *Heap) HintSuspectsViolation() bool {
	return h.invariantViolatedAt(max(h.uHint.Load(), 0))
}

func (h *Heap) invariantViolatedAt(u int64) bool {
	a := h.a.Load()
	return u < a-h.k*int64(h.sbSize) && float64(u) < (1-h.fEmpty)*float64(a)
}

// Insert adds a superblock (and its current contents) to the heap, taking
// ownership. The superblock must not be on any other heap, and must be
// sealed (no lock-free traffic can land) so its live count is stable while
// the books absorb it. Insertion unseals on the way out for every heap,
// the global one included — frees land on global-heap superblocks by the
// same lock-free CAS push as everywhere else, and a stale warm Ref may
// even pop from one (rescuing a block without the global lock). Only
// decommitted superblocks stay sealed; their pages are gone.
func (h *Heap) Insert(sb *superblock.Superblock) {
	sb.Seal()
	sb.SetOwnerID(h.ID)
	sb.Acct = sb.InUse()
	sb.Group = groupOf(sb)
	h.classes[sb.Class()].groups[sb.Group].pushFront(sb)
	h.a.Add(int64(h.sbSize))
	h.addU(int64(sb.Acct) * int64(sb.BlockSize()))
	h.nSuper++
	if !sb.Decommitted() {
		sb.Unseal()
	}
}

// Remove detaches a superblock from the heap, releasing ownership of its
// statistics. The caller becomes responsible for the superblock, must have
// sealed it, and must have reconciled it (syncSuper via SyncAll) if it ever
// took lock-free traffic — Remove subtracts the accounted count, so
// unreconciled drift would otherwise leak into u.
func (h *Heap) Remove(sb *superblock.Superblock) {
	h.classes[sb.Class()].groups[sb.Group].remove(sb)
	h.a.Add(-int64(h.sbSize))
	h.addU(-int64(sb.Acct) * int64(sb.BlockSize()))
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

// AllocBlock allocates one block of the given class from the heap's
// superblocks, searching fullness groups from mostly-full down to
// mostly-empty as the paper prescribes, and publishes the superblock it
// served from as the class's warm fast-path target. ok is false if no owned
// superblock of the class has a free block.
func (h *Heap) AllocBlock(e env.Env, class int) (alloc.Ptr, bool) {
	lists := &h.classes[class].groups
	for g := NumGroups - 1; g >= 0; g-- {
		e.Charge(env.OpListScan, 1)
		// A superblock grouped as non-full by its accounted count can be
		// live-full (lock-free pops outran the books). Reconcile it —
		// which moves it to the full group — and rescan the list head.
		// The bound keeps a pathological fast-free race from spinning
		// under the lock; falling through just makes core fetch a fresh
		// superblock, which is always safe.
		for tries := 0; tries < 64; tries++ {
			sb := lists[g].head
			if sb == nil {
				break
			}
			if p, ok := sb.AllocBlock(e); ok {
				// Locked delta goes to the hint; syncSuper then pulls
				// Acct up to the live word, folding both this alloc and
				// any fast-path drift into u (the drift is already in
				// the hint, so uHint gets only our +1).
				h.uHint.Add(int64(sb.BlockSize()))
				h.syncSuper(sb)
				h.warm[class].Store(sb.SelfRef())
				return p, true
			}
			h.syncSuper(sb)
		}
	}
	return 0, false
}

// FreeBlock returns a block to its superblock, which must be owned by this
// heap.
func (h *Heap) FreeBlock(e env.Env, sb *superblock.Superblock, p alloc.Ptr) {
	if sb.OwnerID() != h.ID {
		panic(fmt.Sprintf("heap %d: FreeBlock on superblock owned by heap %d", h.ID, sb.OwnerID()))
	}
	sb.FreeBlock(e, p)
	// The locked delta goes to the hint; syncSuper reconciles Acct against
	// the live word, so fast-path drift can never push the accounted count
	// negative.
	h.uHint.Add(-int64(sb.BlockSize()))
	h.syncSuper(sb)
}

// FreeBlocks returns a batch of blocks to one superblock, which must be
// owned by this heap — the batch form of FreeBlock: one u update and one
// regroup for the whole group.
func (h *Heap) FreeBlocks(e env.Env, sb *superblock.Superblock, ps []alloc.Ptr) {
	if sb.OwnerID() != h.ID {
		panic(fmt.Sprintf("heap %d: FreeBlocks on superblock owned by heap %d", h.ID, sb.OwnerID()))
	}
	for _, p := range ps {
		sb.FreeBlock(e, p)
	}
	h.uHint.Add(-int64(len(ps)) * int64(sb.BlockSize()))
	h.syncSuper(sb)
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
// Hoard's malloc slow path. Global-heap superblocks take lock-free frees
// (and stale warm-Ref pops), so each pick is reconciled before Remove to
// keep the departing accounting exact; the reinitialized-class path
// additionally seals and re-checks emptiness, since Reinit must not race a
// pop. Superblocks leave unsealed except on the Reinit path; the receiving
// heap's Insert re-snapshots and unseals either way.
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
			h.syncSuper(sb)
			h.Remove(sb)
			sb.Recommit(e)
			return sb
		}
	}
	for g := 0; g < NumGroups; g++ {
		for {
			sb := lists[g].head
			if sb == nil {
				break
			}
			e.Charge(env.OpListScan, 1)
			// Reconcile before handing out: stale warm Refs pop from
			// global-heap superblocks, so the group a superblock sits in
			// can lag its live fullness — and a live-full superblock is
			// useless to the taker. syncSuper regroups; if the
			// superblock left this list (filled up, or emptied into a
			// group already scanned), re-read the head and try again.
			h.syncSuper(sb)
			if sb.Group != g {
				continue
			}
			h.Remove(sb)
			sb.Recommit(e)
			return sb
		}
	}
	// Recycle a completely empty superblock from another class. As in
	// FindEvictable, the scan charges per node visited, not per class.
	for c := range h.classes {
		e.Charge(env.OpListScan, 1)
		for sb := h.classes[c].groups[0].head; sb != nil; sb = sb.Next {
			e.Charge(env.OpListScan, 1)
			if sb.Empty() {
				// Reinit reformats the word and the links, so fence the
				// lock-free paths first and confirm emptiness held: a
				// stale warm Ref may have popped a block between the
				// check and the seal. (Emptiness cannot be broken by a
				// free — an empty superblock has no blocks out.)
				sb.Seal()
				if !sb.Empty() {
					sb.Unseal()
					continue
				}
				h.syncSuper(sb)
				h.Remove(sb)
				// Scavenged superblocks are recommitted transparently
				// on reuse — and necessarily before Reinit, whose
				// formatter describes the restored memory.
				sb.Recommit(e)
				sb.Reinit(class, blockSize)
				return sb
			}
		}
	}
	return nil
}

// ReuseEmpty reformats one of this heap's own completely empty superblocks
// of a different class to serve the given class, leaving it owned by this
// heap (re-inserted and unsealed), or returns nil if no empty superblock
// exists. This is the malloc slow path's step between "my heap has no free
// block of this class" and "take a superblock from the global heap": the
// paper lets empty superblocks be recycled for any size class, and doing it
// locally keeps a(i) unchanged — where a global-heap take grows a(i) by S and
// routinely pushes the heap over the emptiness invariant, evicting some other
// class's emptiest superblock and setting up the next take. Cutting that
// cycle is what keeps the slow path off the global lock in steady state.
// Same fence discipline as TakeSuper's cross-class recycle path; the caller
// holds the heap lock.
func (h *Heap) ReuseEmpty(e env.Env, class, blockSize int) *superblock.Superblock {
	for c := range h.classes {
		if c == class {
			// An empty same-class superblock already serves AllocBlock;
			// reformatting it would buy nothing.
			continue
		}
		e.Charge(env.OpListScan, 1)
		for sb := h.classes[c].groups[0].head; sb != nil; sb = sb.Next {
			e.Charge(env.OpListScan, 1)
			if !sb.Empty() {
				continue
			}
			sb.Seal()
			if !sb.Empty() {
				sb.Unseal()
				continue
			}
			h.syncSuper(sb)
			h.Remove(sb)
			sb.Recommit(e)
			sb.Reinit(class, blockSize)
			h.Insert(sb)
			return sb
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
		// Fence the lock-free paths, then confirm emptiness held: a stale
		// warm Ref may have popped a block since the scan above (a free
		// cannot repopulate an empty superblock — it has no blocks out).
		sb.Seal()
		if !sb.Empty() {
			sb.Unseal()
			continue
		}
		h.syncSuper(sb)
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
	a := h.a.Load() - h.CapacityWaste()
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
		A:           h.a.Load(),
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
// accounting against the superblocks' accounted counters. The heap must be
// quiescent. The accounted counts may lag the live words (fast-path drift
// that SyncAll would fold in) — the books just have to be internally
// consistent; each superblock's own check validates its live state.
func (h *Heap) CheckIntegrity() error {
	return h.checkIntegrity(false)
}

// CheckIntegrityOnline is CheckIntegrity for a heap whose lock the caller
// holds while other threads keep allocating elsewhere. All heap bookkeeping
// is consistent under the lock; the only concession to concurrency is using
// the superblocks' online check, which tolerates in-flight lock-free
// traffic.
func (h *Heap) CheckIntegrityOnline() error {
	return h.checkIntegrity(true)
}

func (h *Heap) checkIntegrity(online bool) error {
	var u, a int64
	n := 0
	err := h.forEach(func(sb *superblock.Superblock) error {
		if sb.OwnerID() != h.ID {
			return fmt.Errorf("heap %d: holds superblock owned by %d", h.ID, sb.OwnerID())
		}
		if sb.Acct < 0 || sb.Acct > sb.NBlocks() {
			return fmt.Errorf("heap %d: superblock %#x accounted count %d out of range", h.ID, sb.Base(), sb.Acct)
		}
		if want := groupOf(sb); sb.Group != want {
			return fmt.Errorf("heap %d: superblock %#x in group %d, want %d (accounted %d/%d)",
				h.ID, sb.Base(), sb.Group, want, sb.Acct, sb.NBlocks())
		}
		var serr error
		if online {
			serr = sb.CheckIntegrityOnline()
		} else {
			serr = sb.CheckIntegrity()
		}
		if serr != nil {
			return fmt.Errorf("heap %d: %w", h.ID, serr)
		}
		u += int64(sb.Acct) * int64(sb.BlockSize())
		a += int64(h.sbSize)
		n++
		return nil
	})
	if err != nil {
		return err
	}
	if u != h.u || a != h.a.Load() || n != h.nSuper {
		return fmt.Errorf("heap %d: accounting u=%d a=%d n=%d, superblocks say u=%d a=%d n=%d",
			h.ID, h.u, h.a.Load(), h.nSuper, u, a, n)
	}
	return nil
}
