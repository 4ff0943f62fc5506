package heap

import (
	"math/rand"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
	"hoardgo/internal/vm/vmtest"
)

var (
	e  = &env.RealEnv{}
	lf = env.RealLockFactory{}
)

const (
	testS       = 8192
	testClasses = 8
)

// blockSizeFor gives each test class a distinct power-of-two block size.
func blockSizeFor(class int) int { return 8 << class }

func newHeap(id int) *Heap {
	return New(id, testS, 0.25, 0, testClasses, lf.NewLock("h"))
}

func newSuper(space vm.Backend, class int) *superblock.Superblock {
	return superblock.New(space, testS, class, blockSizeFor(class))
}

func TestInsertRemoveAccounting(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	sb := newSuper(space, 2)
	p, _ := sb.AllocBlock(e) // pre-populate before insert
	h.Insert(sb)
	if h.A() != testS || h.U() != int64(sb.BlockSize()) || h.Superblocks() != 1 {
		t.Fatalf("after insert: u=%d a=%d n=%d", h.U(), h.A(), h.Superblocks())
	}
	if sb.OwnerID() != 1 {
		t.Fatalf("owner = %d, want 1", sb.OwnerID())
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	h.FreeBlock(e, sb, p)
	h.Remove(sb)
	if h.A() != 0 || h.U() != 0 || h.Superblocks() != 0 {
		t.Fatalf("after remove: u=%d a=%d n=%d", h.U(), h.A(), h.Superblocks())
	}
}

func TestAllocPrefersFullestGroup(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	// Class 2, 8KB/32B = 256 blocks. Make one nearly full, one nearly empty.
	full := newSuper(space, 2)
	for i := 0; i < 200; i++ {
		full.AllocBlock(e)
	}
	empty := newSuper(space, 2)
	empty.AllocBlock(e)
	h.Insert(full)
	h.Insert(empty)
	p, ok := h.AllocBlock(e, 2)
	if !ok {
		t.Fatal("AllocBlock failed")
	}
	if !full.Contains(p) {
		t.Fatalf("allocated from emptier superblock; want fullest-first")
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocSkipsFullSuperblocks(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	sb := newSuper(space, 0)
	for !sb.Full() {
		sb.AllocBlock(e)
	}
	h.Insert(sb)
	if _, ok := h.AllocBlock(e, 0); ok {
		t.Fatal("allocated from a heap with only full superblocks")
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestRegroupOnFreeAndAlloc(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	sb := newSuper(space, 2)
	h.Insert(sb)
	var ps []alloc.Ptr
	for !sb.Full() {
		p, ok := h.AllocBlock(e, 2)
		if !ok {
			t.Fatal("alloc failed before full")
		}
		ps = append(ps, p)
	}
	if sb.Group != fullGroup {
		t.Fatalf("full superblock in group %d", sb.Group)
	}
	for _, p := range ps {
		h.FreeBlock(e, sb, p)
	}
	if sb.Group != 0 {
		t.Fatalf("empty superblock in group %d", sb.Group)
	}
	if h.U() != 0 {
		t.Fatalf("u = %d after freeing all", h.U())
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariant(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	// One completely empty superblock: u=0, a=S. With K=0 and f=1/4 the
	// invariant u >= a-K*S fails and u >= (1-f)*a fails => violated.
	sb := newSuper(space, 2)
	h.Insert(sb)
	if !h.InvariantViolated() {
		t.Fatal("invariant should be violated with an empty superblock and K=0")
	}
	// Fill it past (1-f): violation clears.
	for sb.Fullness() < 0.80 {
		h.AllocBlock(e, 2)
	}
	if h.InvariantViolated() {
		t.Fatalf("invariant violated at fullness %v", sb.Fullness())
	}
}

func TestInvariantRespectsK(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := New(1, testS, 0.25, 2, testClasses, lf.NewLock("h"))
	h.Insert(newSuper(space, 2))
	h.Insert(newSuper(space, 2))
	// u=0, a=2S, K=2: u >= a - K*S holds (0 >= 0), so no violation.
	if h.InvariantViolated() {
		t.Fatal("invariant should hold within the K-superblock slack")
	}
	h.Insert(newSuper(space, 2))
	if !h.InvariantViolated() {
		t.Fatal("third empty superblock should violate the invariant")
	}
}

func TestFindEvictablePrefersEmptiest(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	nearlyFull := newSuper(space, 2)
	for nearlyFull.Fullness() < 0.9 {
		nearlyFull.AllocBlock(e)
	}
	half := newSuper(space, 2)
	for half.Fullness() < 0.5 {
		half.AllocBlock(e)
	}
	empty := newSuper(space, 3)
	h.Insert(nearlyFull)
	h.Insert(half)
	h.Insert(empty)
	got := h.FindEvictable(e)
	if got != empty {
		t.Fatalf("FindEvictable returned fullness %v, want the empty superblock", got.Fullness())
	}
}

func TestFindEvictableNone(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	sb := newSuper(space, 2)
	for !sb.Full() {
		sb.AllocBlock(e)
	}
	h.Insert(sb)
	if got := h.FindEvictable(e); got != nil {
		t.Fatalf("FindEvictable = %v on all-full heap, want nil", got)
	}
}

func TestInvariantViolationImpliesEvictable(t *testing.T) {
	// Property from the paper's proof: whenever the invariant is violated,
	// some superblock is at least f empty. Fuzz random states.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		space := vmtest.NewSized(t, testS)
		h := newHeap(1)
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			class := rng.Intn(testClasses)
			sb := newSuper(space, class)
			fill := rng.Intn(sb.NBlocks() + 1)
			for j := 0; j < fill; j++ {
				sb.AllocBlock(e)
			}
			h.Insert(sb)
		}
		if h.InvariantViolated() && h.FindEvictable(e) == nil {
			t.Fatalf("trial %d: invariant violated but nothing evictable (u=%d a=%d)", trial, h.U(), h.A())
		}
	}
}

// The fuzz above uses power-of-two block sizes, which divide S exactly; with
// a non-dividing size the implication breaks in byte terms — a superblock
// (1-f) full by blocks can sit under (1-f)·S in bytes — and the usable-bytes
// form of the invariant is what distinguishes that benign waste from a
// missed eviction.
func TestInvariantViolatedUsableDiscountsWaste(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	// 1416 does not divide 8192: 5 blocks, 1112 bytes of tail waste.
	sb := superblock.New(space, testS, 2, 1416)
	var last alloc.Ptr
	for i := 0; i < 4; i++ {
		last, _ = sb.AllocBlock(e)
	}
	h.Insert(sb)
	if got := h.CapacityWaste(); got != 1112 {
		t.Fatalf("CapacityWaste = %d, want 1112", got)
	}
	// 4/5 blocks used: 5664 of 8192 bytes = 69% < (1-f) = 75%, violated —
	// but only 20% of blocks are free, so there is no evictable victim,
	// and against the 7080 usable bytes the heap is 80% full: benign.
	if !h.InvariantViolated() {
		t.Fatal("byte-form invariant should be violated")
	}
	if h.FindEvictable(e) != nil {
		t.Fatal("no superblock should be evictable at 80% block fullness")
	}
	if h.AllFull() {
		t.Fatal("heap is not AllFull")
	}
	if h.InvariantViolatedUsable() {
		t.Fatal("usable-bytes invariant should hold: the shortfall is all waste")
	}
	// One more free crosses the real line: 3/5 blocks = 60% of usable
	// bytes, below 75% — now both forms are violated and a victim exists.
	h.FreeBlock(e, sb, last)
	if !h.InvariantViolatedUsable() {
		t.Fatal("usable-bytes invariant should be violated at 60% of usable")
	}
	if h.FindEvictable(e) != sb {
		t.Fatal("the two-fifths-free superblock should be evictable")
	}
}

func TestTakeSuperSameClassFirst(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	g := newHeap(0)
	other := newSuper(space, 1) // empty, other class
	same := newSuper(space, 2)
	same.AllocBlock(e) // partially used, same class
	g.Insert(other)
	g.Insert(same)
	sb := g.TakeSuper(e, 2, blockSizeFor(2))
	if sb != same {
		t.Fatal("TakeSuper did not prefer same-class superblock")
	}
	// Next request for class 2 recycles the empty class-1 superblock.
	sb = g.TakeSuper(e, 2, blockSizeFor(2))
	if sb != other {
		t.Fatal("TakeSuper did not recycle empty superblock")
	}
	if sb.Class() != 2 || sb.BlockSize() != blockSizeFor(2) {
		t.Fatalf("recycled superblock class=%d bs=%d", sb.Class(), sb.BlockSize())
	}
	if g.TakeSuper(e, 2, blockSizeFor(2)) != nil {
		t.Fatal("TakeSuper on empty heap returned superblock")
	}
	if g.Superblocks() != 0 {
		t.Fatalf("global heap still holds %d superblocks", g.Superblocks())
	}
}

func TestTakeSuperDoesNotStealPartialOtherClass(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	g := newHeap(0)
	partial := newSuper(space, 1)
	partial.AllocBlock(e)
	g.Insert(partial)
	if sb := g.TakeSuper(e, 2, blockSizeFor(2)); sb != nil {
		t.Fatalf("TakeSuper recycled a non-empty superblock of another class")
	}
}

// TestRandomizedHeapModel cross-checks the heap against a naive model over
// long random operation sequences.
func TestRandomizedHeapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	live := make(map[alloc.Ptr]int) // ptr -> class
	for op := 0; op < 5000; op++ {
		switch {
		case rng.Intn(10) == 0: // new superblock
			h.Insert(newSuper(space, rng.Intn(testClasses)))
		case rng.Intn(2) == 0: // alloc
			class := rng.Intn(testClasses)
			if p, ok := h.AllocBlock(e, class); ok {
				if _, dup := live[p]; dup {
					t.Fatalf("double hand-out of %#x", uint64(p))
				}
				live[p] = class
			}
		default: // free
			for p := range live {
				sb, ok := superblock.FromPtr(space, p)
				if !ok {
					t.Fatalf("lost superblock for %#x", uint64(p))
				}
				h.FreeBlock(e, sb, p)
				delete(live, p)
				break
			}
		}
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	var want int64
	for p := range live {
		sb, _ := superblock.FromPtr(space, p)
		want += int64(sb.BlockSize())
	}
	if h.U() != want {
		t.Fatalf("u = %d, model says %d", h.U(), want)
	}
}

func TestBadFreePanics(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	sb := newSuper(space, 2)
	sb.SetOwnerID(9) // owned elsewhere
	p, _ := sb.AllocBlock(e)
	defer func() {
		if recover() == nil {
			t.Fatal("FreeBlock on foreign-owned superblock did not panic")
		}
	}()
	h.FreeBlock(e, sb, p)
}

// TestFindEvictablePrefersEmptyOverGroupHead pins a subtle policy bug:
// regrouping pushes the currently-draining superblock to group 0's front,
// but eviction must still prefer a completely empty superblock further
// down the list (a live eviction turns that superblock's future frees into
// serialized global-heap traffic).
func TestFindEvictablePrefersEmptyOverGroupHead(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	empty := newSuper(space, 2)
	h.Insert(empty)
	// Insert a draining superblock afterwards so it becomes group 0's head.
	draining := newSuper(space, 2)
	for draining.Fullness() < 0.15 {
		draining.AllocBlock(e)
	}
	h.Insert(draining)
	if h.classes[2].groups[0].head != draining {
		t.Fatal("test setup: draining superblock is not the group head")
	}
	if got := h.FindEvictable(e); got != empty {
		t.Fatalf("FindEvictable picked fullness %.2f, want the empty superblock", got.Fullness())
	}
}

// TestTakeSuperPrefersEmptySameClass pins the companion policy on the
// global heap's side: handing out a partially-live superblock tangles two
// heaps together, so empties go first even when a fuller superblock of the
// class exists.
func TestTakeSuperPrefersEmptySameClass(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	g := newHeap(0)
	partial := newSuper(space, 2)
	for partial.Fullness() < 0.10 {
		partial.AllocBlock(e)
	}
	empty := newSuper(space, 2)
	g.Insert(empty)
	g.Insert(partial) // group 0 head
	if got := g.TakeSuper(e, 2, blockSizeFor(2)); got != empty {
		t.Fatalf("TakeSuper picked fullness %.2f, want the empty superblock", got.Fullness())
	}
}

// --- Thread-cached blocks ---

// TestCachedBlocksCountAsInUse: a refill for a thread cache takes blocks out
// of their superblock — u and the fullness group count them — but leaves
// their free bits set, so the integrity check needs the cached counts to
// balance the bitmap, and a flush returns them without touching the bits.
func TestCachedBlocksCountAsInUse(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	h.Insert(newSuper(space, 2))
	var ps []alloc.Ptr
	var sb *superblock.Superblock
	for i := 0; i < 200; i++ {
		p, got, ok := h.AllocCached(e, 2)
		if !ok {
			t.Fatal("AllocCached found no block")
		}
		sb = got
		ps = append(ps, p)
	}
	if h.U() != int64(200*sb.BlockSize()) || sb.Group != groupOf(sb) {
		t.Fatalf("u = %d, group %d after 200 cached allocs", h.U(), sb.Group)
	}
	if !sb.IsFreeBlock(ps[0]) {
		t.Fatal("a cached block lost its free bit")
	}
	if err := h.CheckIntegrity(); err == nil {
		t.Fatal("CheckIntegrity balanced the bitmap without the cached blocks")
	}
	if err := h.CheckIntegrityCached(map[*superblock.Superblock]int{sb: 200}); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		h.FreeCached(e, sb, p)
	}
	if h.U() != 0 || !sb.Empty() {
		t.Fatalf("u = %d, %d in use after flushing every cached block", h.U(), sb.InUse())
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestReuseEmpty pins the local recycle step: an empty superblock of another
// class is reformatted to the requested class and stays on this heap with
// a(i) unchanged, while partial superblocks and same-class superblocks are
// never touched.
func TestReuseEmpty(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	partial := newSuper(space, 3)
	partial.AllocBlock(e)
	empty := newSuper(space, 3)
	h.Insert(partial)
	h.Insert(empty)
	aBefore := h.A()

	sb := h.ReuseEmpty(e, 2, blockSizeFor(2))
	if sb != empty {
		t.Fatalf("reused %v, want the empty superblock", sb)
	}
	if sb.Class() != 2 || sb.BlockSize() != blockSizeFor(2) {
		t.Fatalf("reinit to class %d size %d", sb.Class(), sb.BlockSize())
	}
	if sb.OwnerID() != 1 || h.A() != aBefore || h.Superblocks() != 2 {
		t.Fatalf("ownership/accounting moved: owner=%d a=%d n=%d", sb.OwnerID(), h.A(), h.Superblocks())
	}
	if _, ok := h.AllocBlock(e, 2); !ok {
		t.Fatal("reused superblock cannot serve its new class")
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	// Nothing else is empty: the partial class-3 superblock must not be
	// stolen, and same-class empties are excluded by design.
	if got := h.ReuseEmpty(e, 2, blockSizeFor(2)); got != nil {
		t.Fatalf("second reuse returned %v, want nil", got)
	}
	var p alloc.Ptr
	if q, ok := h.AllocBlock(e, 3); !ok {
		t.Fatal("partial class-3 superblock lost its blocks")
	} else {
		p = q
	}
	h.FreeBlock(e, partial, p)
}
