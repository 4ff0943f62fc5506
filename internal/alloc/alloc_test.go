package alloc

import (
	"sync"
	"testing"
)

func TestShardedAccountingAggregates(t *testing.T) {
	a := NewSharded(4)
	a.OnMalloc(1, 100)
	a.OnMalloc(2, 50)
	a.OnFree(2, 50) // freed against the shard that allocated
	a.OnFree(3, 60) // cross-shard free: shard 3 goes negative
	a.OnMalloc(3, 60)
	a.OnLarge(0)
	var st Stats
	a.Fill(&st)
	if st.Mallocs != 3 || st.Frees != 2 || st.LargeMallocs != 1 {
		t.Fatalf("counts: %+v", st)
	}
	if st.LiveBytes != 100 || a.Live() != 100 {
		t.Fatalf("LiveBytes = %d / %d, want 100", st.LiveBytes, a.Live())
	}
	// Summed per-shard peaks are an upper bound on the true peak.
	if st.PeakLiveBytes < 100 {
		t.Fatalf("PeakLiveBytes = %d below true peak", st.PeakLiveBytes)
	}
}

func TestShardedAccountingShardClamp(t *testing.T) {
	a := NewSharded(2)
	a.OnMalloc(7, 8) // 7 % 2 -> shard 1
	a.OnFree(-3, 8)  // negative ids must not panic
	if got := a.Live(); got != 0 {
		t.Fatalf("Live = %d, want 0", got)
	}
}

func TestShardedAccountingConcurrent(t *testing.T) {
	a := NewSharded(8)
	const workers = 8
	const each = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.OnMalloc(w, 16)
				a.OnFree(w, 16)
			}
		}(w)
	}
	wg.Wait()
	var st Stats
	a.Fill(&st)
	if st.Mallocs != workers*each || st.Frees != workers*each || st.LiveBytes != 0 {
		t.Fatalf("after concurrent ops: %+v", st)
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
