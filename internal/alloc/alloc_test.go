package alloc

import (
	"sync"
	"testing"
)

// TestAccountingBatches: a batch update counts n operations and moves the
// live bytes once, and the peak is the exact high-water mark.
func TestAccountingBatches(t *testing.T) {
	var a Accounting
	a.OnMallocN(3, 300)
	a.OnFree(100)
	a.OnMalloc(50)
	a.OnFreeN(2, 250)
	a.OnLarge()
	var st Stats
	a.Fill(&st)
	want := Stats{Mallocs: 4, Frees: 3, LiveBytes: 0, PeakLiveBytes: 300, LargeMallocs: 1}
	if st != want || a.Live() != 0 {
		t.Fatalf("books = %+v (Live %d), want %+v", st, a.Live(), want)
	}
}

// TestAccountingConcurrent: concurrent updates leave exact counts, and the
// peak never exceeds what the workers could hold at once.
func TestAccountingConcurrent(t *testing.T) {
	var a Accounting
	const workers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				a.OnMalloc(16)
				a.OnFree(16)
			}
		}()
	}
	wg.Wait()
	var st Stats
	a.Fill(&st)
	if st.Mallocs != workers*each || st.Frees != workers*each || st.LiveBytes != 0 ||
		st.PeakLiveBytes < 16 || st.PeakLiveBytes > workers*16 {
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
