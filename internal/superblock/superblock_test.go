package superblock

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/vm"
	"hoardgo/internal/vm/vmtest"
)

var e = &env.RealEnv{}

// freeBlock frees an application-held block the way every free path does:
// the block comes back marked free, and its owner pushes it.
func freeBlock(sb *Superblock, p alloc.Ptr) {
	sb.MarkCached(p)
	sb.FreeCached(p)
}

func newSB(t testing.TB, blockSize int) (vm.Backend, *Superblock) {
	t.Helper()
	space := vmtest.NewSized(t, DefaultSize)
	return space, New(space, DefaultSize, 3, blockSize)
}

func TestCarveAll(t *testing.T) {
	_, sb := newSB(t, 64)
	if sb.NBlocks() != DefaultSize/64 {
		t.Fatalf("NBlocks = %d, want %d", sb.NBlocks(), DefaultSize/64)
	}
	seen := make(map[alloc.Ptr]bool)
	for i := 0; i < sb.NBlocks(); i++ {
		p, ok := sb.AllocBlock(e)
		if !ok {
			t.Fatalf("AllocBlock %d failed", i)
		}
		if seen[p] {
			t.Fatalf("duplicate block %#x", uint64(p))
		}
		if uint64(p)%8 != 0 {
			t.Fatalf("block %#x not 8-aligned", uint64(p))
		}
		seen[p] = true
	}
	if !sb.Full() {
		t.Fatal("not Full after carving all")
	}
	if _, ok := sb.AllocBlock(e); ok {
		t.Fatal("AllocBlock succeeded on full superblock")
	}
	if err := sb.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestFreeAndReuseLIFO(t *testing.T) {
	_, sb := newSB(t, 128)
	a, _ := sb.AllocBlock(e)
	b, _ := sb.AllocBlock(e)
	freeBlock(sb, a)
	freeBlock(sb, b)
	// LIFO: most recently freed comes back first.
	p, _ := sb.AllocBlock(e)
	if p != b {
		t.Fatalf("got %#x, want LIFO %#x", uint64(p), uint64(b))
	}
	p, _ = sb.AllocBlock(e)
	if p != a {
		t.Fatalf("got %#x, want %#x", uint64(p), uint64(a))
	}
	if err := sb.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	_, sb := newSB(t, 64)
	p, _ := sb.AllocBlock(e)
	freeBlock(sb, p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	freeBlock(sb, p)
}

func TestBadPointerPanics(t *testing.T) {
	_, sb := newSB(t, 64)
	p, _ := sb.AllocBlock(e)
	for _, bad := range []alloc.Ptr{p + 1, p + 8, alloc.Ptr(uint64(p) + uint64(DefaultSize))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("free of %#x did not panic", uint64(bad))
				}
			}()
			freeBlock(sb, bad)
		}()
	}
}

func TestFullnessAndEmptiness(t *testing.T) {
	_, sb := newSB(t, DefaultSize/8) // 8 blocks
	var ps []alloc.Ptr
	for i := 0; i < 6; i++ {
		p, _ := sb.AllocBlock(e)
		ps = append(ps, p)
	}
	if got := sb.Fullness(); got != 0.75 {
		t.Fatalf("Fullness = %v, want 0.75", got)
	}
	if !sb.AtLeastEmpty(0.25) {
		t.Fatal("6/8 full should be at least 1/4 empty")
	}
	p, _ := sb.AllocBlock(e)
	ps = append(ps, p)
	if sb.AtLeastEmpty(0.25) {
		t.Fatal("7/8 full should NOT be at least 1/4 empty")
	}
	for _, p := range ps {
		freeBlock(sb, p)
	}
	if sb.InUse() != 0 {
		t.Fatal("blocks still in use after freeing all")
	}
}

func TestReinitAcrossClasses(t *testing.T) {
	space, sb := newSB(t, 64)
	p, _ := sb.AllocBlock(e)
	freeBlock(sb, p)
	sb.Reinit(7, 512)
	if sb.BlockSize() != 512 || sb.Class() != 7 || sb.InUse() != 0 {
		t.Fatalf("Reinit state: class=%d bs=%d inUse=%d", sb.Class(), sb.BlockSize(), sb.InUse())
	}
	n := 0
	for {
		if _, ok := sb.AllocBlock(e); !ok {
			break
		}
		n++
	}
	if n != DefaultSize/512 {
		t.Fatalf("carved %d blocks after Reinit, want %d", n, DefaultSize/512)
	}
	if got, ok := FromPtr(space, alloc.Ptr(sb.Base())); !ok || got != sb {
		t.Fatal("FromPtr after Reinit failed")
	}
}

func TestReinitNonEmptyPanics(t *testing.T) {
	_, sb := newSB(t, 64)
	sb.AllocBlock(e)
	defer func() {
		if recover() == nil {
			t.Fatal("Reinit of non-empty superblock did not panic")
		}
	}()
	sb.Reinit(1, 128)
}

func TestReleaseInvalidatesFromPtr(t *testing.T) {
	space, sb := newSB(t, 64)
	base := alloc.Ptr(sb.Base())
	space.Release(sb.span)
	if _, ok := FromPtr(space, base); ok {
		t.Fatal("FromPtr found released superblock")
	}
}

func TestFromPtrForeign(t *testing.T) {
	space := vmtest.NewSized(t, DefaultSize)
	sp := space.Reserve(4096, 0, "not a superblock")
	if _, ok := FromPtr(space, alloc.Ptr(sp.Base)); ok {
		t.Fatal("FromPtr treated foreign span as superblock")
	}
	if _, ok := FromPtr(space, 0); ok {
		t.Fatal("FromPtr(0) ok")
	}
}

func TestOwnership(t *testing.T) {
	_, sb := newSB(t, 64)
	if sb.OwnerID() != 0 {
		t.Fatalf("initial owner %d, want 0", sb.OwnerID())
	}
	sb.SetOwnerID(5)
	if sb.OwnerID() != 5 {
		t.Fatalf("owner %d, want 5", sb.OwnerID())
	}
}

// TestPropertyRandomAllocFree drives random alloc/free sequences against a
// shadow model and checks block uniqueness, counts, and integrity.
func TestPropertyRandomAllocFree(t *testing.T) {
	f := func(seed int64, bsSel uint8) bool {
		sizes := []int{8, 16, 64, 256, 1024, 4096}
		bs := sizes[int(bsSel)%len(sizes)]
		rng := rand.New(rand.NewSource(seed))
		_, sb := newSB(t, bs)
		live := make(map[alloc.Ptr]bool)
		for op := 0; op < 500; op++ {
			if len(live) == 0 || (rng.Intn(2) == 0 && !sb.Full()) {
				p, ok := sb.AllocBlock(e)
				if !ok {
					continue
				}
				if live[p] {
					return false // double hand-out
				}
				live[p] = true
			} else {
				for p := range live {
					freeBlock(sb, p)
					delete(live, p)
					break
				}
			}
			if sb.InUse() != len(live) {
				return false
			}
		}
		return sb.CheckIntegrity() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCachedHandover drives one superblock through random
// interleavings of every block transition the allocator performs — the
// application's alloc (one block, or a run claimed block by block) and
// free, and a thread cache's run refill, pop, free and flush — against a
// model of where each block is, checking after every step that the in-use
// count covers the application's and the cache's blocks and that the free
// states balance with the cached count.
func TestPropertyCachedHandover(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10; iter++ {
		_, sb := newSB(t, 256) // 32 blocks: dense churn
		var app, cache []alloc.Ptr
		take := func(xs *[]alloc.Ptr) alloc.Ptr {
			i := rng.Intn(len(*xs))
			p := (*xs)[i]
			(*xs)[i] = (*xs)[len(*xs)-1]
			*xs = (*xs)[:len(*xs)-1]
			return p
		}
		for op := 0; op < 3000; op++ {
			switch rng.Intn(7) {
			case 0:
				if p, ok := sb.AllocBlock(e); ok {
					app = append(app, p)
				}
			case 6:
				run := make([]Block, 1+rng.Intn(4))
				for _, b := range run[:sb.AllocRun(e, run)] {
					sb.ClaimCached(b.P)
					app = append(app, b.P)
				}
			case 1:
				if len(app) > 0 {
					freeBlock(sb, take(&app))
				}
			case 2:
				run := make([]Block, 1+rng.Intn(4))
				for _, b := range run[:sb.AllocRun(e, run)] {
					cache = append(cache, b.P)
				}
			case 3:
				if len(cache) > 0 {
					p := take(&cache)
					sb.ClaimCached(p)
					app = append(app, p)
				}
			case 4:
				if len(app) > 0 {
					p := take(&app)
					sb.MarkCached(p)
					cache = append(cache, p)
				}
			case 5:
				if len(cache) > 0 {
					sb.FreeCached(take(&cache))
				}
			}
			if sb.InUse() != len(app)+len(cache) {
				t.Fatalf("iter %d op %d: InUse %d, model %d in the application + %d cached",
					iter, op, sb.InUse(), len(app), len(cache))
			}
			if err := sb.CheckIntegrityCached(len(cache)); err != nil {
				t.Fatalf("iter %d op %d: %v", iter, op, err)
			}
		}
	}
}

// TestCachedMisusePanics: with the bit state handed over, a free of a block
// already in a cache is a double free, a cache cannot hand out a block the
// application holds, and no flip takes a pointer that is not a block. Each
// misuse panics with its own message.
func TestCachedMisusePanics(t *testing.T) {
	_, sb := newSB(t, 64)
	var run [1]Block
	sb.AllocRun(e, run[:])
	cached := run[0].P
	held, _ := sb.AllocBlock(e)
	base := sb.Base()
	for _, c := range []struct {
		name string
		fn   func()
		want string
	}{
		{"free of a cached block", func() { freeBlock(sb, cached) },
			fmt.Sprintf("superblock %#x: double free of block 0 (%#x)", base, base)},
		{"cache free of a cached block", func() { sb.MarkCached(cached) },
			fmt.Sprintf("superblock %#x: double free of block 0 (%#x)", base, base)},
		{"cache pop of a held block", func() { sb.ClaimCached(held) },
			fmt.Sprintf("superblock %#x: cached block 1 (%#x) handed out twice", base, base+64)},
		{"flush of a held block", func() { sb.FreeCached(held) },
			fmt.Sprintf("superblock %#x: cached block 1 (%#x) is not marked free", base, base+64)},
		{"cache free of an interior pointer", func() { sb.MarkCached(held + 8) },
			fmt.Sprintf("superblock %#x: bad block pointer %#x", base, base+72)},
	} {
		if got := fmt.Sprint(recovered(c.fn)); got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
}

// TestDataIntegrity writes a distinct pattern into every allocated block and
// verifies no block's data is disturbed by other allocations or frees.
func TestDataIntegrity(t *testing.T) {
	space, sb := newSB(t, 64)
	type rec struct {
		p   alloc.Ptr
		tag byte
	}
	var live []rec
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 2000; op++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			if p, ok := sb.AllocBlock(e); ok {
				tag := byte(op)
				buf := space.Bytes(uint64(p), 64)
				for i := range buf {
					buf[i] = tag
				}
				live = append(live, rec{p, tag})
			}
		} else {
			i := rng.Intn(len(live))
			buf := space.Bytes(uint64(live[i].p), 64)
			for j, b := range buf {
				if b != live[i].tag {
					t.Fatalf("block %#x byte %d corrupted: %d != %d", uint64(live[i].p), j, b, live[i].tag)
				}
			}
			freeBlock(sb, live[i].p)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

func BenchmarkAllocFreePair(b *testing.B) {
	_, sb := newSB(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, _ := sb.AllocBlock(e)
		freeBlock(sb, p)
	}
}

// BenchmarkClaimMark times a magazine hit's state flips: a ClaimCached and
// MarkCached pair on one cached block.
func BenchmarkClaimMark(b *testing.B) {
	_, sb := newSB(b, 64)
	var run [1]Block
	sb.AllocRun(e, run[:])
	p := run[0].P
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.ClaimCached(p)
		sb.MarkCached(p)
	}
}

// TestBlockIndexMatchesDivision checks blockIndex's reciprocal division
// against integer division exhaustively: every class of the size-class table,
// at the default S and at a larger one, every offset below S — same index,
// same boundary verdict. Then it runs the three flips, which share that
// check, over the same offsets and a few pointers outside the span. Each
// flip accepts exactly the block boundaries blockIndex accepts, in the state
// it expects, and panics on every other pointer with the misuse that names
// the flip and the pointer. Its message is checked at every block, and for
// the pointers that are not blocks at those outside the span and at the
// tail past the last whole block of a class whose size does not divide S
// (2960 B at S = 8 KiB); at the others Error's verdict is blockIndex's,
// checked above.
func TestBlockIndexMatchesDivision(t *testing.T) {
	flips := []struct {
		op op
		fn func(*Superblock, alloc.Ptr)
	}{{opFree, (*Superblock).MarkCached}, {opClaim, (*Superblock).ClaimCached}, {opFlush, (*Superblock).FreeCached}}
	for _, size := range []int{DefaultSize, 64 << 10} {
		space := vmtest.NewSized(t, size)
		classes := sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, size/2)
		tails := 0
		for class, blockSize := range classes.Sizes() {
			sb := New(space, size, class, blockSize)
			base := sb.Base()
			// misused checks that flips[i] panics on p with its misuse,
			// and with the message format gives, unless format is "".
			misused := func(i int, p alloc.Ptr, format string, idx int) {
				f := flips[i]
				r := recovered(func() { f.fn(sb, p) })
				if r != (misuse{sb, p, f.op}) {
					t.Fatalf("S=%d block %d: flip %d of %#x panicked %v (base %#x)", size, blockSize, i, uint64(p), r, base)
				}
				if format == "" {
					return
				}
				if got, want := r.(error).Error(), fmt.Sprintf(format, base, idx, uint64(p)); got != want {
					t.Fatalf("S=%d block %d: flip %d panicked %q, want %q", size, blockSize, i, got, want)
				}
			}
			// Every block starts cached: out of the superblock, marked free.
			sb.AllocRun(e, make([]Block, sb.NBlocks()))
			outside := []uint64{base - 8, base - uint64(blockSize), base + uint64(size), base + uint64(size+blockSize)}
			for _, u := range outside {
				for i := range flips {
					misused(i, alloc.Ptr(u), "superblock %#x: bad block pointer %#[3]x", 0)
				}
			}
			for off := 0; off < size; off++ {
				p := alloc.Ptr(base + uint64(off))
				block := off%blockSize == 0 && off/blockSize < sb.NBlocks()
				idx, ok := sb.blockIndex(p)
				if ok != block || ok && idx != off/blockSize {
					t.Fatalf("S=%d block %d offset %d: blockIndex = %d, %v; want %d, %v",
						size, blockSize, off, idx, ok, off/blockSize, block)
				}
				if !block {
					format := ""
					if off/blockSize >= sb.NBlocks() {
						format = "superblock %#x: bad block pointer %#[3]x"
						tails++
					}
					for i := range flips {
						misused(i, p, format, 0)
					}
					continue
				}
				// Cached: a mark is a double free; a claim hands it out.
				misused(0, p, "superblock %#x: double free of block %d (%#x)", idx)
				sb.ClaimCached(p)
				// Held: a claim or a flush is a misuse; a mark takes it back.
				misused(1, p, "superblock %#x: cached block %d (%#x) handed out twice", idx)
				misused(2, p, "superblock %#x: cached block %d (%#x) is not marked free", idx)
				sb.MarkCached(p)
				// Cached again: a flush lists it, and a refill takes it back.
				sb.FreeCached(p)
				var one [1]Block
				if sb.AllocRun(e, one[:]) != 1 || one[0] != (Block{p, sb}) {
					t.Fatalf("S=%d block %d: refill after flushing %#x took %#x", size, blockSize, uint64(p), uint64(one[0].P))
				}
			}
			if err := sb.CheckIntegrityCached(sb.NBlocks()); err != nil {
				t.Fatalf("S=%d block %d: %v", size, blockSize, err)
			}
			for i := 0; i < sb.NBlocks(); i++ {
				sb.FreeCached(alloc.Ptr(base + uint64(i*blockSize)))
			}
			space.Release(sb.span)
		}
		if tails == 0 {
			t.Fatalf("S=%d: no class leaves a tail past its last whole block", size)
		}
	}
}

// recovered calls fn and returns what it panicked with, or nil.
func recovered(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// TestWarm pins the warm's contract on both memories and every class one
// cache line holds: Warm zeroes exactly the first word of each block of the
// run, across two superblocks, and changes no other byte of either span.
func TestWarm(t *testing.T) {
	for _, mem := range []struct {
		name  string
		space func(testing.TB, int) vm.Backend
	}{{"sim", vmtest.NewSim}, {"arena", vmtest.NewArena}} {
		for _, size := range sizeclass.New(sizeclass.DefaultBase, sizeclass.Quantum, DefaultSize/2).Sizes() {
			if size > 64 {
				break
			}
			t.Run(fmt.Sprintf("%s/%dB", mem.name, size), func(t *testing.T) {
				space := mem.space(t, DefaultSize)
				sbs := []*Superblock{New(space, DefaultSize, 0, size), New(space, DefaultSize, 0, size)}
				for _, sb := range sbs {
					for i, data := 0, sb.span.Data(); i < len(data); i++ {
						data[i] = 0xAA
					}
				}
				// Most of the first superblock, then the head of the second,
				// as a refill that empties one superblock and opens another.
				run := make([]Block, sbs[0].NBlocks()-3, sbs[0].NBlocks()+5)
				run = run[:sbs[0].AllocRun(e, run)]
				run = run[:len(run)+sbs[1].AllocRun(e, run[len(run):cap(run)])]
				warmed := make(map[alloc.Ptr]bool)
				for _, b := range run {
					warmed[b.P] = true
				}
				Warm(run)
				for _, sb := range sbs {
					data := sb.span.Data()
					for off := range data {
						want := byte(0xAA)
						if warmed[alloc.Ptr(sb.base+uint64(off-off%size))] && off%size < 8 {
							want = 0
						}
						if data[off] != want {
							t.Fatalf("superblock %#x byte %d is %#x, want %#x", sb.base, off, data[off], want)
						}
					}
				}
			})
		}
	}
}
