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
	sb.FreeBlock(e, a)
	sb.FreeBlock(e, b)
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
	sb.FreeBlock(e, p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	sb.FreeBlock(e, p)
}

func TestBadPointerPanics(t *testing.T) {
	_, sb := newSB(t, 64)
	p, _ := sb.AllocBlock(e)
	for _, bad := range []alloc.Ptr{p + 1, p + 8, alloc.Ptr(uint64(p) + uint64(DefaultSize))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FreeBlock(%#x) did not panic", uint64(bad))
				}
			}()
			sb.FreeBlock(e, bad)
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
		sb.FreeBlock(e, p)
	}
	if sb.InUse() != 0 {
		t.Fatal("blocks still in use after freeing all")
	}
}

func TestReinitAcrossClasses(t *testing.T) {
	space, sb := newSB(t, 64)
	p, _ := sb.AllocBlock(e)
	sb.FreeBlock(e, p)
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
					sb.FreeBlock(e, p)
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
// application's alloc (one block or a run) and free, and a thread cache's
// run refill, pop, free and flush — against a model of where each block is, checking after every
// step that the in-use count covers the application's and the cache's
// blocks and that the free bitmap balances with the cached count.
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
				run := make([]alloc.Ptr, 1+rng.Intn(4))
				app = append(app, run[:sb.AllocRun(e, run, false)]...)
			case 1:
				if len(app) > 0 {
					sb.FreeBlock(e, take(&app))
				}
			case 2:
				run := make([]alloc.Ptr, 1+rng.Intn(4))
				cache = append(cache, run[:sb.AllocRun(e, run, true)]...)
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
	var run [1]alloc.Ptr
	sb.AllocRun(e, run[:], true)
	cached := run[0]
	held, _ := sb.AllocBlock(e)
	base := sb.Base()
	for _, c := range []struct {
		name string
		fn   func()
		want string
	}{
		{"free of a cached block", func() { sb.FreeBlock(e, cached) },
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
			sb.FreeBlock(e, live[i].p)
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
		sb.FreeBlock(e, p)
	}
}

// BenchmarkClaimMark times a magazine hit's state flips: a ClaimCached and
// MarkCached pair on one cached block.
func BenchmarkClaimMark(b *testing.B) {
	_, sb := newSB(b, 64)
	var run [1]alloc.Ptr
	sb.AllocRun(e, run[:], true)
	p := run[0]
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
			sb.AllocRun(e, make([]alloc.Ptr, sb.NBlocks()), true)
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
				var one [1]alloc.Ptr
				if sb.AllocRun(e, one[:], true) != 1 || one[0] != p {
					t.Fatalf("S=%d block %d: refill after flushing %#x took %#x", size, blockSize, uint64(p), uint64(one[0]))
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
