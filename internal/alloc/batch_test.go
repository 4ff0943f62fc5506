package alloc

import (
	"testing"

	"hoardgo/internal/env"
	"hoardgo/internal/vm"
)

// fakeAlloc is a minimal Allocator (no BatchAllocator) that logs calls.
type fakeAlloc struct {
	mallocs int
	frees   int
	next    Ptr
}

func (f *fakeAlloc) Name() string                { return "fake" }
func (f *fakeAlloc) NewThread(e env.Env) *Thread { return &Thread{ID: e.ThreadID(), Env: e} }
func (f *fakeAlloc) Malloc(t *Thread, size int) Ptr {
	f.mallocs++
	f.next++
	return f.next
}
func (f *fakeAlloc) Free(t *Thread, p Ptr)     { f.frees++ }
func (f *fakeAlloc) UsableSize(p Ptr) int      { return 8 }
func (f *fakeAlloc) Bytes(p Ptr, n int) []byte { return nil }
func (f *fakeAlloc) Stats() Stats              { return Stats{} }
func (f *fakeAlloc) Space() vm.Backend         { return nil }
func (f *fakeAlloc) CheckIntegrity() error     { return nil }

// batchFake adds a native batch path that must NOT be reached through
// NoBatch.
type batchFake struct {
	fakeAlloc
	batchCalls int
}

func (f *batchFake) MallocBatch(t *Thread, size, n int, out []Ptr) int {
	f.batchCalls++
	for i := 0; i < n; i++ {
		out[i] = f.Malloc(t, size)
	}
	return n
}

func (f *batchFake) FreeBatch(t *Thread, ps []Ptr) {
	f.batchCalls++
	for _, p := range ps {
		f.Free(t, p)
	}
}

func TestShimFallsBackPerBlock(t *testing.T) {
	f := &fakeAlloc{}
	th := f.NewThread(&env.RealEnv{})
	out := make([]Ptr, 5)
	if n := MallocBatch(f, th, 8, 5, out); n != 5 {
		t.Fatalf("MallocBatch = %d, want 5", n)
	}
	if f.mallocs != 5 {
		t.Fatalf("fallback made %d Malloc calls, want 5", f.mallocs)
	}
	FreeBatch(f, th, out)
	if f.frees != 5 {
		t.Fatalf("fallback made %d Free calls, want 5", f.frees)
	}
}

func TestShimDispatchesNative(t *testing.T) {
	f := &batchFake{}
	th := f.NewThread(&env.RealEnv{})
	out := make([]Ptr, 4)
	MallocBatch(f, th, 8, 4, out)
	FreeBatch(f, th, out)
	if f.batchCalls != 2 {
		t.Fatalf("native batch path called %d times, want 2", f.batchCalls)
	}
}

// TestNoBatchHidesNativePath is the ablation mechanism: embedding only the
// Allocator interface hides the concrete type's batch methods from the type
// assertion, so the shims must fall back per-block.
func TestNoBatchHidesNativePath(t *testing.T) {
	f := &batchFake{}
	wrapped := NoBatch{Allocator: f}
	if _, ok := Allocator(wrapped).(BatchAllocator); ok {
		t.Fatal("NoBatch still satisfies BatchAllocator")
	}
	th := wrapped.NewThread(&env.RealEnv{})
	out := make([]Ptr, 4)
	MallocBatch(wrapped, th, 8, 4, out)
	FreeBatch(wrapped, th, out)
	if f.batchCalls != 0 {
		t.Fatalf("NoBatch leaked %d native batch calls", f.batchCalls)
	}
	if f.mallocs != 4 || f.frees != 4 {
		t.Fatalf("per-block fallback ran %d/%d ops, want 4/4", f.mallocs, f.frees)
	}
}

func TestMergeAllocatorCounters(t *testing.T) {
	app := Stats{Mallocs: 10, Frees: 9, LiveBytes: 100, PeakLiveBytes: 200}
	inner := Stats{
		Mallocs: 3, Frees: 2, LiveBytes: 999, PeakLiveBytes: 999,
		LargeMallocs: 1, SuperblockMoves: 4, OSReserves: 5,
		RemoteFrees: 6, LockFreeMallocs: 7,
		BatchRefills: 11, BatchFlushes: 12, BatchedBlocks: 13,
		GlobalHeapHits: 14, MovedLiveBlocks: 15,
	}
	st := app
	MergeAllocatorCounters(&st, inner)
	want := inner
	want.Mallocs, want.Frees = app.Mallocs, app.Frees
	want.LiveBytes, want.PeakLiveBytes = app.LiveBytes, app.PeakLiveBytes
	if st != want {
		t.Fatalf("merged = %+v, want %+v", st, want)
	}
}
