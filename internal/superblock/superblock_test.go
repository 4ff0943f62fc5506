package superblock

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
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
	if !sb.Empty() {
		t.Fatal("not Empty after freeing all")
	}
}

func TestReinitAcrossClasses(t *testing.T) {
	space, sb := newSB(t, 64)
	p, _ := sb.AllocBlock(e)
	sb.FreeBlock(e, p)
	sb.Reinit(7, 512)
	if sb.BlockSize() != 512 || sb.Class() != 7 || !sb.Empty() {
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
	sb.Release(space)
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
