package dlheap

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hoardgo/internal/alloc"
	"hoardgo/internal/alloctest"
	"hoardgo/internal/env"
)

var lf = env.RealLockFactory{}

func newA() *Allocator { return New(lf) }

func th(a *Allocator, id int) *alloc.Thread {
	return a.NewThread(&env.RealEnv{ID: id})
}

func TestConformance(t *testing.T) {
	alloctest.Run(t, func() alloc.Allocator { return New(lf) })
}

// TestCoalescingRestoresSegment is the defining boundary-tag property:
// after freeing everything, each segment coalesces back to a single free
// chunk.
func TestCoalescingRestoresSegment(t *testing.T) {
	a := newA()
	tt := th(a, 0)
	rng := rand.New(rand.NewSource(4))
	var ps []alloc.Ptr
	for i := 0; i < 3000; i++ {
		ps = append(ps, a.Malloc(tt, 1+rng.Intn(2000)))
	}
	// Free in random order to exercise both-neighbor coalescing.
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	for _, p := range ps {
		a.Free(tt, p)
	}
	count, bytes := a.FreeChunks()
	if want := len(a.segs); count != want {
		t.Fatalf("%d free chunks after freeing all, want %d (one per segment)", count, want)
	}
	if want := uint64(len(a.segs)) * SegmentSize; bytes != want {
		t.Fatalf("free bytes %d, want %d", bytes, want)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestSplitAndReuse: a large free chunk is split and the remainder is
// immediately reusable.
func TestSplitAndReuse(t *testing.T) {
	a := newA()
	tt := th(a, 0)
	p := a.Malloc(tt, 10000)
	q := a.Malloc(tt, 10000)
	// Both should come from the same 256K segment.
	if (uint64(p))/SegmentSize != (uint64(q))/SegmentSize {
		s1 := a.space.Lookup(uint64(p))
		s2 := a.space.Lookup(uint64(q))
		if s1 != s2 {
			t.Fatalf("second alloc did not reuse the segment remainder")
		}
	}
	a.Free(tt, p)
	r := a.Malloc(tt, 9000) // fits in p's hole
	if uint64(r) != uint64(p) {
		t.Fatalf("freed hole not reused: %#x vs %#x", uint64(r), uint64(p))
	}
	a.Free(tt, q)
	a.Free(tt, r)
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleFreePanics frees a chunk twice: alone, and after the first
// free coalesced it into the free chunk before it. Each second free must
// panic naming a double free and leave the heap intact.
func TestDoubleFreePanics(t *testing.T) {
	for _, mergePrev := range []bool{false, true} {
		a := newA()
		tt := th(a, 0)
		prev, p, next := a.Malloc(tt, 64), a.Malloc(tt, 64), a.Malloc(tt, 64)
		if mergePrev {
			a.Free(tt, prev)
		}
		a.Free(tt, p)
		wantMisfree(t, a, func() { a.Free(tt, p) }, "double free")
		a.Free(tt, next)
		if !mergePrev {
			a.Free(tt, prev)
		}
	}
}

// TestInteriorFreePanics frees pointers inside a live chunk whose bytes
// the program wrote: each must panic before anything changes.
func TestInteriorFreePanics(t *testing.T) {
	a := newA()
	tt := th(a, 0)
	p := a.Malloc(tt, 100)
	for _, fill := range []byte{0x00, 0x01, 0xff} {
		b := a.Bytes(p, 100)
		for i := range b {
			b[i] = fill
		}
		for off := 8; off < 100; off += 8 {
			wantMisfree(t, a, func() { a.Free(tt, p+alloc.Ptr(off)) }, "dlheap")
		}
	}
	a.Free(tt, p)
}

// wantMisfree fails unless free panics with a message containing want,
// leaving Stats unchanged and the heap intact.
func wantMisfree(t *testing.T, a *Allocator, free func(), want string) {
	t.Helper()
	before := a.Stats()
	r := func() (r any) {
		defer func() { r = recover() }()
		free()
		return nil
	}()
	if msg, _ := r.(string); !strings.Contains(msg, want) {
		t.Fatalf("free panicked with %v, want a message naming %q", r, want)
	}
	if after := a.Stats(); after != before {
		t.Fatalf("a free that panicked changed Stats from %+v to %+v", before, after)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestUsableSizeIncludesSplitSlack(t *testing.T) {
	a := newA()
	tt := th(a, 0)
	for _, sz := range []int{1, 8, 16, 17, 100, 1000, 31000} {
		p := a.Malloc(tt, sz)
		if us := a.UsableSize(p); us < sz {
			t.Fatalf("UsableSize(%d) = %d", sz, us)
		}
		a.Free(tt, p)
	}
}

func TestLargePathBypassesHeap(t *testing.T) {
	a := newA()
	tt := th(a, 0)
	p := a.Malloc(tt, 100000)
	if a.UsableSize(p) < 100000 {
		t.Fatal("large too small")
	}
	before := a.space.Committed()
	a.Free(tt, p)
	if after := a.space.Committed(); after >= before {
		t.Fatalf("large free kept memory: %d -> %d", before, after)
	}
}

// TestPropertyChunkSequenceValid drives random operations and checks the
// full boundary-tag invariant set after every burst.
func TestPropertyChunkSequenceValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := newA()
		tt := th(a, 0)
		var live []alloc.Ptr
		for burst := 0; burst < 10; burst++ {
			for op := 0; op < 120; op++ {
				if len(live) == 0 || rng.Intn(5) < 3 {
					sz := 1 + rng.Intn(5000)
					p := a.Malloc(tt, sz)
					buf := a.Bytes(p, sz)
					for i := range buf {
						buf[i] = byte(op)
					}
					live = append(live, p)
				} else {
					i := rng.Intn(len(live))
					a.Free(tt, live[i])
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
			if err := a.CheckIntegrity(); err != nil {
				t.Log(err)
				return false
			}
		}
		for _, p := range live {
			a.Free(tt, p)
		}
		return a.CheckIntegrity() == nil && a.Stats().LiveBytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestFragmentationOnSizeMix: the classic strength of coalescing heaps —
// committed memory stays close to live even under heavy size mixing.
func TestFragmentationOnSizeMix(t *testing.T) {
	a := newA()
	tt := th(a, 0)
	rng := rand.New(rand.NewSource(9))
	type obj struct {
		p  alloc.Ptr
		sz int
	}
	var live []obj
	var liveBytes int64
	for op := 0; op < 20000; op++ {
		if len(live) < 400 || rng.Intn(2) == 0 {
			sz := 1 + rng.Intn(3000)
			live = append(live, obj{a.Malloc(tt, sz), sz})
			liveBytes += int64(sz)
		} else {
			i := rng.Intn(len(live))
			a.Free(tt, live[i].p)
			liveBytes -= int64(live[i].sz)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	committed := a.space.Committed()
	if float64(committed) > 3.0*float64(liveBytes) {
		t.Fatalf("committed %d vs live %d: coalescing heap too fragmented", committed, liveBytes)
	}
}

func BenchmarkMallocFree(b *testing.B) {
	a := newA()
	tt := th(a, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Free(tt, a.Malloc(tt, 64))
	}
}

func BenchmarkMallocFreeSizeMix(b *testing.B) {
	a := newA()
	tt := th(a, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Free(tt, a.Malloc(tt, 8+(i*131)%4000))
	}
}

// TestMallocAligned: alignments above a chunk's 8 bytes come from the
// page-aligned large-object path, whatever the size, and free back to it;
// alignments above the page size panic naming the allocator.
func TestMallocAligned(t *testing.T) {
	a := newA()
	tt := th(a, 0)
	for _, align := range []int{8, 16, 64, 256, 4096} {
		p := a.MallocAligned(tt, 100, align)
		if uint64(p)%uint64(align) != 0 {
			t.Fatalf("MallocAligned(100, %d) = %#x, misaligned", align, uint64(p))
		}
		a.Free(tt, p)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().LiveBytes; got != 0 {
		t.Fatalf("LiveBytes = %d after freeing every aligned block", got)
	}
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "dlheap: MallocAligned align 8192") {
			t.Fatalf("MallocAligned(100, 8192) panicked with %q, want one naming dlheap", r)
		}
	}()
	a.MallocAligned(tt, 100, 8192)
}
