package hoard

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsUnderChurn drives the default configuration, whose thread caches
// keep per-thread books, while a sampler calls Stats and WriteMetrics in a
// loop and one worker closes its thread mid-run, then carries on through the
// bypass. Sampled Mallocs and Frees never decrease; at quiescence they and
// LiveBytes are exact, and the integrity check passes.
func TestStatsUnderChurn(t *testing.T) {
	a := MustNew(Config{})
	defer a.Close()
	const workers, ops = 3, 20000
	sizes := []int{8, 48, 300, 2000, 20000}

	stop := make(chan struct{})
	sampleErr := make(chan string, 1)
	go func() {
		defer close(sampleErr)
		var last Stats
		for n := 0; ; n++ {
			select {
			case <-stop:
				if n == 0 {
					sampleErr <- "no samples taken"
				}
				return
			default:
			}
			st := a.Stats()
			if st.Mallocs < last.Mallocs || st.Frees < last.Frees {
				sampleErr <- "sampled Mallocs or Frees went down"
				return
			}
			last = st
			if err := a.WriteMetrics(io.Discard); err != nil {
				sampleErr <- err.Error()
				return
			}
		}
	}()

	var mallocs, frees, live atomic.Int64
	kept := make([][]Ptr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := a.NewThread()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []Ptr
			for i := 0; i < ops; i++ {
				if w == 0 && i == ops/2 {
					th.Close() // the handle stays usable and bypasses the caches
				}
				if len(mine) < 64 || rng.Intn(2) == 0 {
					p := th.Malloc(sizes[rng.Intn(len(sizes))])
					mallocs.Add(1)
					live.Add(int64(th.UsableSize(p)))
					mine = append(mine, p)
					continue
				}
				j := rng.Intn(len(mine))
				live.Add(-int64(th.UsableSize(mine[j])))
				th.Free(mine[j])
				frees.Add(1)
				mine[j] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
			}
			kept[w] = mine
		}(w)
	}
	wg.Wait()
	close(stop)
	if msg, ok := <-sampleErr; ok {
		t.Fatal(msg)
	}

	check := func(when string) {
		t.Helper()
		st := a.Stats()
		if st.Mallocs != mallocs.Load() || st.Frees != frees.Load() || st.LiveBytes != live.Load() {
			t.Fatalf("%s: mallocs %d frees %d live %d; want %d %d %d", when,
				st.Mallocs, st.Frees, st.LiveBytes, mallocs.Load(), frees.Load(), live.Load())
		}
		if st.PeakLiveBytes < st.LiveBytes {
			t.Fatalf("%s: PeakLiveBytes %d below LiveBytes %d", when, st.PeakLiveBytes, st.LiveBytes)
		}
		if err := a.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("quiescent")
	drain := a.NewThread()
	for _, ps := range kept {
		for _, p := range ps {
			live.Add(-int64(drain.UsableSize(p)))
			drain.Free(p)
			frees.Add(1)
		}
	}
	drain.Close()
	check("drained")
}
