package heap

import (
	"fmt"
	"math/rand"
	"strings"
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

// allocBlock allocates one block of class to the application: a run of
// one, claimed. ok is false if no owned superblock of the class has a free
// block.
func allocBlock(h *Heap, class int) (alloc.Ptr, bool) {
	var one [1]superblock.Block
	if h.AllocRun(e, class, one[:]) == 0 {
		return 0, false
	}
	one[0].SB.ClaimCached(one[0].P)
	return one[0].P, true
}

// freeBlock frees an application-held block the way every free path does:
// the block comes back marked free, and h pushes it as a batch of one. It
// panics if h does not own the block.
func freeBlock(h *Heap, sb *superblock.Superblock, p alloc.Ptr) {
	sb.MarkCached(p)
	var freed Freed
	if h.FreeBatch(e, []superblock.Block{{P: p, SB: sb}}, &freed) != 0 {
		panic(fmt.Sprintf("heap %d does not own %#x", h.ID, uint64(p)))
	}
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
	freeBlock(h, sb, p)
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
	p, ok := allocBlock(h, 2)
	if !ok {
		t.Fatal("allocBlock failed")
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
	if _, ok := allocBlock(h, 0); ok {
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
		p, ok := allocBlock(h, 2)
		if !ok {
			t.Fatal("alloc failed before full")
		}
		ps = append(ps, p)
	}
	if sb.Group != fullGroup {
		t.Fatalf("full superblock in group %d", sb.Group)
	}
	for _, p := range ps {
		freeBlock(h, sb, p)
	}
	if sb.Group != emptyGroup {
		t.Fatalf("empty superblock in group %d, want the empty list", sb.Group)
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
		allocBlock(h, 2)
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
	if h.InvariantViolatedUsable() {
		t.Fatal("usable-bytes invariant should hold: the shortfall is all waste")
	}
	if err := h.CheckEmptiness(e); err != nil {
		t.Fatalf("CheckEmptiness on a shortfall of pure waste: %v", err)
	}
	// One more free crosses the real line: 3/5 blocks = 60% of usable
	// bytes, below 75% — now both forms are violated and a victim exists.
	freeBlock(h, sb, last)
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
			if p, ok := allocBlock(h, class); ok {
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
				freeBlock(h, sb, p)
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
	sb := newSuper(space, 2)
	h.Insert(sb)
	bs := make([]superblock.Block, 200)
	if n := h.AllocRun(e, 2, bs); n != len(bs) {
		t.Fatalf("cached run took %d blocks, want %d", n, len(bs))
	}
	for _, b := range bs {
		if b.SB != sb {
			t.Fatalf("cached block %#x filed under %v, want the one superblock", uint64(b.P), b.SB)
		}
	}
	if h.U() != int64(200*sb.BlockSize()) || sb.Group != groupOf(sb) {
		t.Fatalf("u = %d, group %d after 200 cached allocs", h.U(), sb.Group)
	}
	if !sb.IsFreeBlock(bs[0].P) {
		t.Fatal("a cached block lost its free bit")
	}
	if err := h.CheckIntegrity(); err == nil {
		t.Fatal("CheckIntegrity balanced the bitmap without the cached blocks")
	}
	if err := h.CheckIntegrityCached(map[*superblock.Superblock]int{sb: 200}); err != nil {
		t.Fatal(err)
	}
	var freed Freed
	if rest := h.FreeBatch(e, bs, &freed); rest != 0 || freed.Blocks != len(bs) {
		t.Fatalf("flush left %d blocks and freed %d, want 0 and %d", rest, freed.Blocks, len(bs))
	}
	if h.U() != 0 || sb.InUse() != 0 {
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
	if _, ok := allocBlock(h, 2); !ok {
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
	if q, ok := allocBlock(h, 3); !ok {
		t.Fatal("partial class-3 superblock lost its blocks")
	} else {
		p = q
	}
	freeBlock(h, partial, p)
}

// --- Superblock-granular transfers ---

// buildGroupedHeap builds a heap whose class-2 superblocks sit in every
// list — two in the top group, one in each lower group, two empties with
// scrambled free lists, and a full one — and returns them in creation
// order. Calls with the same seed build identical heaps.
func buildGroupedHeap(t *testing.T, seed int64) (*Heap, []*superblock.Superblock) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	rng := rand.New(rand.NewSource(seed))
	var sbs []*superblock.Superblock
	for _, live := range []int{200, 210, 130, 70, 10, 0, 0, 256} {
		sb := newSuper(space, 2)
		var ps []alloc.Ptr
		for i := 0; i < min(live+40, sb.NBlocks()); i++ {
			p, _ := sb.AllocBlock(e)
			ps = append(ps, p)
		}
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
		for _, p := range ps[live:] {
			sb.MarkCached(p)
			sb.FreeCached(p)
		}
		h.Insert(sb)
		sbs = append(sbs, sb)
	}
	return h, sbs
}

// blockRef names a block by its superblock's creation ordinal and offset,
// so blocks of two identically built heaps compare.
type blockRef struct{ sb, off int }

func refOf(t *testing.T, sbs []*superblock.Superblock, p alloc.Ptr) blockRef {
	for i, sb := range sbs {
		if sb.Contains(p) {
			return blockRef{i, int(uint64(p) - sb.Base())}
		}
	}
	t.Fatalf("block %#x in no superblock", uint64(p))
	return blockRef{}
}

// TestAllocRunMatchesSinglePops: a run refill — AllocRun until the buffer
// is full — hands out the same blocks, in the same order, as the same
// number of single pops on an identical heap, and leaves every superblock
// with the same count, in the same list, in the same list position.
func TestAllocRunMatchesSinglePops(t *testing.T) {
	for _, n := range []int{1, 37, 600, 1100} {
		runHeap, runSBs := buildGroupedHeap(t, 5)
		popHeap, popSBs := buildGroupedHeap(t, 5)
		out := make([]superblock.Block, n)
		for got := 0; got < n; {
			k := runHeap.AllocRun(e, 2, out[got:])
			if k == 0 {
				t.Fatalf("n=%d: run refill ran dry after %d blocks", n, got)
			}
			for _, b := range out[got : got+k] {
				if b.SB != out[got].SB || !b.SB.Contains(b.P) {
					t.Fatalf("n=%d: AllocRun reported superblock %#x for block %#x", n, b.SB.Base(), uint64(b.P))
				}
			}
			got += k
		}
		for i := 0; i < n; i++ {
			p, ok := allocBlock(popHeap, 2)
			if !ok {
				t.Fatalf("n=%d: single pops ran dry after %d blocks", n, i)
			}
			if run, pop := refOf(t, runSBs, out[i].P), refOf(t, popSBs, p); run != pop {
				t.Fatalf("n=%d: block %d: run gave %+v, single pops %+v", n, i, run, pop)
			}
		}
		if runHeap.U() != popHeap.U() {
			t.Fatalf("n=%d: u %d after the run, %d after single pops", n, runHeap.U(), popHeap.U())
		}
		for g := range runHeap.classes[2].groups {
			var runOrder, popOrder []int
			for sb := runHeap.classes[2].groups[g].head; sb != nil; sb = sb.Next {
				runOrder = append(runOrder, refOf(t, runSBs, alloc.Ptr(sb.Base())).sb)
			}
			for sb := popHeap.classes[2].groups[g].head; sb != nil; sb = sb.Next {
				popOrder = append(popOrder, refOf(t, popSBs, alloc.Ptr(sb.Base())).sb)
			}
			if fmt.Sprint(runOrder) != fmt.Sprint(popOrder) {
				t.Fatalf("n=%d: list %d holds %v after the run, %v after single pops", n, g, runOrder, popOrder)
			}
		}
		if err := popHeap.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
}

// scanEnv counts OpListScan charges.
type scanEnv struct {
	env.RealEnv
	scans int64
}

func (s *scanEnv) Charge(k env.CostKind, n int64) {
	if k == env.OpListScan {
		s.scans += n
	}
}

// TestEmptySearchCostIndependentOfPartials: with one empty superblock and n
// lightly used ones of the same class, FindEvictable, TakeSuper and
// ReuseEmpty each find the empty one by reading list heads, so the
// OpListScan charge is the same at n = 10 and n = 1000.
func TestEmptySearchCostIndependentOfPartials(t *testing.T) {
	build := func(id, n int) (*Heap, *superblock.Superblock) {
		space := vmtest.NewSized(t, testS)
		h := newHeap(id)
		empty := newSuper(space, 2)
		h.Insert(empty)
		for i := 0; i < n; i++ {
			sb := newSuper(space, 2)
			sb.AllocBlock(e)
			h.Insert(sb)
		}
		return h, empty
	}
	ops := []struct {
		name string
		heap int
		run  func(h *Heap, se *scanEnv) *superblock.Superblock
	}{
		{"FindEvictable", 1, func(h *Heap, se *scanEnv) *superblock.Superblock { return h.FindEvictable(se) }},
		{"TakeSuper", 0, func(h *Heap, se *scanEnv) *superblock.Superblock { return h.TakeSuper(se, 2, blockSizeFor(2)) }},
		{"ReuseEmpty", 1, func(h *Heap, se *scanEnv) *superblock.Superblock { return h.ReuseEmpty(se, 3, blockSizeFor(3)) }},
	}
	for _, op := range ops {
		var scans [2]int64
		for i, n := range []int{10, 1000} {
			h, empty := build(op.heap, n)
			se := &scanEnv{}
			if got := op.run(h, se); got != empty {
				t.Fatalf("%s at n=%d did not pick the empty superblock", op.name, n)
			}
			scans[i] = se.scans
		}
		if scans[0] != scans[1] {
			t.Errorf("%s charged %d list scans at n=10, %d at n=1000", op.name, scans[0], scans[1])
		}
	}
}

// TestFreeBatchRegroupsTouchedOnce frees a batch spanning many superblocks,
// some owned by another heap: the foreign blocks come back compacted, every
// touched superblock ends in its correct list with u matching.
func TestFreeBatchRegroupsTouchedOnce(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h, other := newHeap(0), newHeap(2)
	var bs []superblock.Block
	for i := 0; i < 12; i++ {
		sb := newSuper(space, 2)
		hp := h
		if i%3 == 2 {
			hp = other
		}
		// Free all of some superblocks' blocks, some of others', so the
		// batch leaves superblocks in the empty list and in groups.
		n := 8 + 20*i
		for j := 0; j < n; j++ {
			p, _ := sb.AllocBlock(e)
			if j < n-(i%2)*5 {
				sb.MarkCached(p) // a thread cache takes it back
				bs = append(bs, superblock.Block{P: p, SB: sb})
			}
		}
		hp.Insert(sb)
	}
	rand.New(rand.NewSource(9)).Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	foreign := 0
	for _, b := range bs {
		if b.SB.OwnerID() != h.ID {
			foreign++
		}
	}
	var freed Freed
	rest := h.FreeBatch(e, bs, &freed)
	if rest != foreign || freed.Blocks != len(bs)-foreign {
		t.Fatalf("FreeBatch left %d and freed %d, want %d and %d", rest, freed.Blocks, foreign, len(bs)-foreign)
	}
	for i, b := range bs[:rest] {
		if b.SB.OwnerID() != other.ID {
			t.Fatalf("compacted block %d belongs to heap %d", i, b.SB.OwnerID())
		}
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if freed.Bytes != int64(freed.Blocks*blockSizeFor(2)) {
		t.Fatalf("freed %d bytes for %d blocks", freed.Bytes, freed.Blocks)
	}
}

// TestFreeBatchPanicKeepsHeapConsistent: a block the application still
// holds, its free bit clear, panics in a flush, and the blocks freed before
// it are in u, in freed, and in their superblocks' correct lists when the
// panic reaches the caller.
func TestFreeBatchPanicKeepsHeapConsistent(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(1)
	a, b := newSuper(space, 2), newSuper(space, 3)
	h.Insert(a)
	h.Insert(b)
	p, _ := allocBlock(h, 2)
	q, _ := allocBlock(h, 3)
	r, _ := allocBlock(h, 3)
	held, _ := allocBlock(h, 3)
	for _, c := range []struct {
		sb *superblock.Superblock
		p  alloc.Ptr
	}{{a, p}, {b, q}, {b, r}} {
		c.sb.MarkCached(c.p)
	}
	var freed Freed
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a held block in FreeBatch did not panic")
			}
		}()
		h.FreeBatch(e, []superblock.Block{{P: p, SB: a}, {P: q, SB: b}, {P: held, SB: b}, {P: r, SB: b}}, &freed)
	}()
	if freed.Blocks != 2 || freed.Bytes != int64(blockSizeFor(2)+blockSizeFor(3)) {
		t.Fatalf("freed %+v before the panic, want p and q", freed)
	}
	// r, after the panic, is still in the cache.
	if err := h.CheckIntegrityCached(map[*superblock.Superblock]int{b: 1}); err != nil {
		t.Fatal(err)
	}
	if a.Group != emptyGroup {
		t.Fatalf("emptied superblock in list %d", a.Group)
	}
}

// TestCheckEmptiness drives the emptiness check's failure path, which a
// correct free path never reaches: a heap of full superblocks has nothing
// to evict, so lowering its u by hand makes it a violation with no victim.
func TestCheckEmptiness(t *testing.T) {
	for _, id := range []int{1, 0} {
		space := vmtest.NewSized(t, testS)
		h := newHeap(id)
		for i := 0; i < 2; i++ {
			sb := newSuper(space, 2)
			for !sb.Full() {
				sb.AllocBlock(e)
			}
			h.Insert(sb)
		}
		if err := h.CheckEmptiness(e); err != nil {
			t.Fatalf("heap %d, full with its true u: %v", id, err)
		}
		trueU := h.u
		h.u = 0
		err := h.CheckEmptiness(e)
		h.u = trueU
		if id == 0 {
			if err != nil {
				t.Fatalf("global heap reported %v; it is exempt", err)
			}
			continue
		}
		want := fmt.Sprintf("heap %d violates emptiness invariant with no evictable superblock (u=0 a=%d)", id, 2*testS)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("heap %d with u lowered to 0: %v, want %q", id, err, want)
		}
		if err := h.CheckEmptiness(e); err != nil {
			t.Fatalf("heap %d, u restored: %v", id, err)
		}
		// A violation with a superblock to evict is the free path's
		// transient state, not a failure.
		h.Insert(newSuper(space, 2))
		h.u = 0
		if err := h.CheckEmptiness(e); err != nil {
			t.Fatalf("heap %d with an empty superblock to evict: %v", id, err)
		}
	}
}
