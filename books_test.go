package hoard

import (
	"io"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestStatsUnderChurn drives the default configuration, whose thread caches
// keep per-thread books, while a sampler calls SampleStats and WriteMetrics
// in a loop and one worker closes its thread mid-run, then carries on
// through the bypass. Sampled Mallocs and Frees never decrease; at
// quiescence they and LiveBytes are exact, and the integrity check passes;
// once every thread is closed SampleStats equals Stats.
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
			st := a.SampleStats()
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
	ths := make([]*Thread, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := a.NewThread()
			ths[w] = th
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
	for _, th := range ths {
		th.Close()
	}
	if sample, exact := a.SampleStats(), a.Stats(); sample != exact {
		t.Fatalf("every thread closed: SampleStats %+v != Stats %+v", sample, exact)
	}
}

// runHandoff runs a 2-goroutine producer/consumer on a: the producer mallocs
// batches of 64 blocks of 16..2048 B and sends them over a channel that
// holds 64 batches, the consumer frees them, and both close their threads.
func runHandoff(a *Allocator, batches int) {
	ch := make(chan []Ptr, 64)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		th := a.NewThread()
		defer th.Close()
		rng := rand.New(rand.NewSource(1))
		for b := 0; b < batches; b++ {
			batch := make([]Ptr, 64)
			for i := range batch {
				batch[i] = th.Malloc(16 + rng.Intn(2048-16+1))
			}
			ch <- batch
		}
		close(ch)
	}()
	go func() {
		defer wg.Done()
		th := a.NewThread()
		defer th.Close()
		for batch := range ch {
			for _, p := range batch {
				th.Free(p)
			}
		}
	}()
	wg.Wait()
}

// TestDescribePeakIsStatsPeak: after a producer/consumer run, the peak live
// bytes Describe prints is Stats().PeakLiveBytes — one set of books, not a
// sum of per-heap high-water marks — and no more than the peak footprint.
func TestDescribePeakIsStatsPeak(t *testing.T) {
	a := MustNew(Config{})
	defer a.Close()
	runHandoff(a, 2000)
	st := a.Stats()
	if st.Mallocs != 2000*64 || st.Frees != st.Mallocs || st.LiveBytes != 0 {
		t.Fatalf("after the run: %d mallocs, %d frees, %d B live", st.Mallocs, st.Frees, st.LiveBytes)
	}
	var b strings.Builder
	a.Describe(&b)
	m := regexp.MustCompile(`B live \(peak (\d+)\)`).FindAllStringSubmatch(b.String(), -1)
	if len(m) != 1 {
		t.Fatalf("Describe prints %d live peaks, want 1:\n%s", len(m), b.String())
	}
	if peak, _ := strconv.ParseInt(m[0][1], 10, 64); peak != st.PeakLiveBytes {
		t.Fatalf("Describe prints peak live %d, Stats().PeakLiveBytes is %d", peak, st.PeakLiveBytes)
	}
	if st.PeakLiveBytes <= 0 || st.PeakLiveBytes > st.PeakFootprintBytes {
		t.Fatalf("PeakLiveBytes %d not in (0, PeakFootprintBytes %d]", st.PeakLiveBytes, st.PeakFootprintBytes)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestGlobalHeapHitsPublic: the superblocks a producer/consumer run takes
// back from the global heap show in the public Stats and the metrics scrape,
// beside the evictions that put them there.
func TestGlobalHeapHitsPublic(t *testing.T) {
	a := MustNew(Config{})
	defer a.Close()
	runHandoff(a, 2000)
	st, core := a.Stats(), a.unwrap().Stats()
	if st.GlobalHeapHits != core.GlobalHeapHits || st.GlobalHeapHits == 0 {
		t.Fatalf("public GlobalHeapHits %d, core's %d; want equal and > 0", st.GlobalHeapHits, core.GlobalHeapHits)
	}
	if st.SuperblockMoves != core.SuperblockMoves {
		t.Fatalf("public SuperblockMoves %d, core's %d", st.SuperblockMoves, core.SuperblockMoves)
	}
	var b strings.Builder
	if err := a.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if err := LintMetrics(b.String()); err != nil {
		t.Fatal(err)
	}
	want := `hoard_global_heap_hits_total{allocator="hoard"} ` + strconv.FormatInt(st.GlobalHeapHits, 10)
	if !strings.Contains(b.String(), want+"\n") {
		t.Fatalf("scrape lacks %q", want)
	}
}
