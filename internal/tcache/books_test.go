package tcache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
)

// TestBooksScripted pins every counter for a scripted sequence that touches
// each path: refills, a magazine flush, remote frees and their flush, a
// bypass size, and a retired thread. Capacity 8: refills and flushes move 4
// blocks, and the remote batch flushes at 8.
func TestBooksScripted(t *testing.T) {
	const capacity = 8
	a := newOverHoard(capacity)
	ta := a.NewThread(&env.RealEnv{ID: 0}) // heap 1
	tb := a.NewThread(&env.RealEnv{ID: 1}) // heap 2
	var ps []alloc.Ptr
	// 9 mallocs refill at the 1st, 5th and 9th: 3 misses, 3 blocks left.
	for i := 0; i < 9; i++ {
		ps = append(ps, a.Malloc(ta, 64))
	}
	// 9 frees: the 6th overflows the magazine (9 > 8) and flushes to 4; the
	// magazine ends at 7. 1 miss.
	for _, p := range ps {
		a.Free(ta, p)
	}
	// 8 mallocs pop 7 and refill at the 8th: 1 miss.
	ps = ps[:0]
	for i := 0; i < 8; i++ {
		ps = append(ps, a.Malloc(ta, 64))
	}
	// tb frees them all remotely; the 8th flushes the remote batch: 1 miss.
	for _, p := range ps {
		a.Free(tb, p)
	}
	// A bypass size, and a retired thread's operations, which bypass too.
	a.Free(ta, a.Malloc(ta, 1<<20))
	a.FlushThread(tb)
	a.Free(tb, a.Malloc(tb, 64))

	st := a.Stats()
	want := alloc.Stats{Mallocs: 19, Frees: 19, LockFreeMallocs: 17 - 4, LockFreeFrees: 17 - 2}
	if st.Mallocs != want.Mallocs || st.Frees != want.Frees || st.LiveBytes != 0 ||
		st.LockFreeMallocs != want.LockFreeMallocs || st.LockFreeFrees != want.LockFreeFrees {
		t.Fatalf("mallocs %d frees %d live %d lock-free %d/%d; want %d %d 0 %d/%d",
			st.Mallocs, st.Frees, st.LiveBytes, st.LockFreeMallocs, st.LockFreeFrees,
			want.Mallocs, want.Frees, want.LockFreeMallocs, want.LockFreeFrees)
	}
	if st.RemoteFrees != 8 {
		t.Fatalf("RemoteFrees = %d, want 8", st.RemoteFrees)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestBooksUnderConcurrentStats churns several threads — some frees remote,
// some sizes bypassing the cache — while another goroutine samples
// SampleStats, and one thread retires mid-run and carries on through the
// bypass. Every sample's Mallocs and Frees must be non-decreasing; at
// quiescence the counts and LiveBytes must be exact and the integrity check
// must pass, and once every thread has flushed SampleStats must equal Stats.
func TestBooksUnderConcurrentStats(t *testing.T) {
	a := newOverHoard(16)
	const workers, ops = 4, 20000
	sizes := []int{16, 64, 200, 1000, 8000}

	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		var last alloc.Stats
		n := 0
		for {
			select {
			case <-stop:
				if n == 0 {
					sampled <- fmt.Errorf("no samples taken")
				}
				close(sampled)
				return
			default:
			}
			st := a.SampleStats()
			if st.Mallocs < last.Mallocs || st.Frees < last.Frees {
				sampled <- fmt.Errorf("counts went down: mallocs %d -> %d, frees %d -> %d",
					last.Mallocs, st.Mallocs, last.Frees, st.Frees)
				close(sampled)
				return
			}
			last = st
			n++
		}
	}()

	// Each worker frees into its neighbour's channel a quarter of the time,
	// so a share of the frees is remote.
	handoff := make([]chan alloc.Ptr, workers)
	for i := range handoff {
		handoff[i] = make(chan alloc.Ptr, ops) // a worker sends fewer than ops: never blocks
	}
	var mallocs, frees, live atomic.Int64
	kept := make([][]alloc.Ptr, workers)
	ths := make([]*alloc.Thread, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := a.NewThread(&env.RealEnv{ID: w})
			ths[w] = th
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []alloc.Ptr
			free := func(p alloc.Ptr) {
				live.Add(-int64(a.UsableSize(p)))
				a.Free(th, p)
				frees.Add(1)
			}
			for i := 0; i < ops; i++ {
				if w == 0 && i == ops/2 {
					a.FlushThread(th) // retire mid-run; the handle stays usable
				}
				select {
				case p := <-handoff[w]:
					free(p)
				default:
				}
				if len(mine) < 32 || rng.Intn(2) == 0 {
					p := a.Malloc(th, sizes[rng.Intn(len(sizes))])
					mallocs.Add(1)
					live.Add(int64(a.UsableSize(p)))
					mine = append(mine, p)
					continue
				}
				j := rng.Intn(len(mine))
				p := mine[j]
				mine[j] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
				if rng.Intn(4) == 0 {
					handoff[(w+1)%workers] <- p
				} else {
					free(p)
				}
			}
			kept[w] = mine
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	for w := range handoff {
		close(handoff[w])
		for p := range handoff[w] {
			kept[w] = append(kept[w], p)
		}
	}
	check := func(when string) {
		t.Helper()
		st := a.Stats()
		if st.Mallocs != mallocs.Load() || st.Frees != frees.Load() || st.LiveBytes != live.Load() {
			t.Fatalf("%s: mallocs %d frees %d live %d; want %d %d %d", when,
				st.Mallocs, st.Frees, st.LiveBytes, mallocs.Load(), frees.Load(), live.Load())
		}
		if err := a.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("quiescent")
	drain := a.NewThread(&env.RealEnv{ID: workers})
	for _, ps := range kept {
		for _, p := range ps {
			live.Add(-int64(a.UsableSize(p)))
			a.Free(drain, p)
			frees.Add(1)
		}
	}
	check("drained")
	for _, th := range append(ths, drain) {
		a.FlushThread(th)
	}
	if sample, exact := a.SampleStats(), a.Stats(); sample != exact {
		t.Fatalf("every thread flushed: SampleStats %+v != Stats %+v", sample, exact)
	}
}

// TestPeakBound checks PeakLiveBytes against a driver's own exact peak: it
// is never below the true peak, and exceeds it by at most the bytes the
// threads can hold cached — per thread, cap[c]+1 blocks of each class it
// uses (a free pushes before it flushes), and a remote batch just short of
// classBudget plus the block whose push flushes it — plus, with concurrent
// threads, one block each in flight between the allocator and the driver's
// count. The 2048 B class is byte-capped at 16 of the 64 blocks.
func TestPeakBound(t *testing.T) {
	const capacity = DefaultCapacity
	sizes := []int{64, 256, 2048}
	slack := func(a *Allocator, threads int, inFlight int) int64 {
		largest := sizes[len(sizes)-1]
		perThread := classBudget + largest + inFlight*largest
		for _, s := range sizes {
			c, _ := a.classFor(s)
			perThread += (a.caps[c] + 1) * s
		}
		return int64(threads * perThread)
	}
	check := func(t *testing.T, a *Allocator, driverPeak, slack int64) {
		t.Helper()
		peak := a.Stats().PeakLiveBytes
		if peak < driverPeak || peak > driverPeak+slack {
			t.Fatalf("PeakLiveBytes %d outside [driver peak %d, + slack %d]", peak, driverPeak, slack)
		}
		t.Logf("driver peak %d, PeakLiveBytes %d, slack used %d of %d", driverPeak, peak, peak-driverPeak, slack)
		if err := a.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("single", func(t *testing.T) {
		a := newOverHoard(capacity)
		th := a.NewThread(&env.RealEnv{})
		rng := rand.New(rand.NewSource(1))
		var live, peak int64
		var held []alloc.Ptr
		for i := 0; i < 20000; i++ {
			// Grow to a peak mid-run, then shrink: the peak is not the end.
			grow := i < 10000 && rng.Intn(3) != 0 || i >= 10000 && rng.Intn(3) == 0
			if grow || len(held) == 0 {
				p := a.Malloc(th, sizes[rng.Intn(len(sizes))])
				live += int64(a.UsableSize(p))
				peak = max(peak, live)
				held = append(held, p)
				continue
			}
			j := rng.Intn(len(held))
			live -= int64(a.UsableSize(held[j]))
			a.Free(th, held[j])
			held[j] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		check(t, a, peak, slack(a, 1, 0))
	})

	// Every free in the pair is remote, so the consumer's own books show
	// more frees than mallocs.
	t.Run("prodcons", func(t *testing.T) {
		a := newOverHoard(capacity)
		var live, peak atomic.Int64
		ch := make(chan alloc.Ptr, 256) // the producer runs ahead, so live bytes swing
		done := make(chan struct{})
		go func() {
			defer close(done)
			th := a.NewThread(&env.RealEnv{ID: 1})
			for p := range ch {
				live.Add(-int64(a.UsableSize(p)))
				a.Free(th, p)
			}
		}()
		th := a.NewThread(&env.RealEnv{ID: 0})
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 20000; i++ {
			p := a.Malloc(th, sizes[rng.Intn(len(sizes))])
			v := live.Add(int64(a.UsableSize(p)))
			for old := peak.Load(); v > old && !peak.CompareAndSwap(old, v); old = peak.Load() {
			}
			ch <- p
		}
		close(ch)
		<-done
		check(t, a, peak.Load(), slack(a, 2, 1))
	})
}

// TestPublicationPoints pins when a thread's hits reach SampleStats. Each
// class counts up to publishEvery-1 hits per direction unpublished; the
// publishEvery-th hit, a refill, a magazine flush, a remote-batch flush and
// FlushThread each publish them. Stats is exact at every step. Capacity 8:
// refills bring 4 blocks, a flush leaves 4, and the remote batch flushes
// at 8.
func TestPublicationPoints(t *testing.T) {
	const capacity, size = 8, 64
	a := newOverHoard(capacity)
	ta := a.NewThread(&env.RealEnv{ID: 0}) // heap 1
	tb := a.NewThread(&env.RealEnv{ID: 1}) // heap 2
	class, _ := a.classFor(size)
	mag := &ta.State.(*threadState).mags[class]
	var mallocs, frees int64
	var held []alloc.Ptr
	malloc := func() {
		held = append(held, a.Malloc(ta, size))
		mallocs++
	}
	free := func(th *alloc.Thread) {
		p := held[len(held)-1]
		held = held[:len(held)-1]
		a.Free(th, p)
		frees++
	}
	// expect checks Stats against the driver's counts, and that SampleStats
	// trails it by exactly mallocLag mallocs and freeLag frees.
	expect := func(step string, mallocLag, freeLag int64) {
		t.Helper()
		st, sample := a.Stats(), a.SampleStats()
		if st.Mallocs != mallocs || st.Frees != frees || st.LiveBytes != size*(mallocs-frees) {
			t.Fatalf("%s: Stats counts %d mallocs, %d frees, %d B live; the driver made %d, %d, %d B",
				step, st.Mallocs, st.Frees, st.LiveBytes, mallocs, frees, size*(mallocs-frees))
		}
		if st.Mallocs-sample.Mallocs != mallocLag || st.Frees-sample.Frees != freeLag ||
			st.LiveBytes-sample.LiveBytes != size*(mallocLag-freeLag) {
			t.Fatalf("%s: SampleStats trails by %d mallocs, %d frees, %d B live; want %d, %d, %d B", step,
				st.Mallocs-sample.Mallocs, st.Frees-sample.Frees, st.LiveBytes-sample.LiveBytes,
				mallocLag, freeLag, size*(mallocLag-freeLag))
		}
	}
	transfers := func() (refills, flushes int64) {
		st := a.Inner().Stats()
		return st.BatchRefills, st.BatchFlushes
	}

	malloc()
	expect("first malloc, which refills", 0, 0)
	// Hit pairs: each free pushes the block the next malloc pops. The
	// publishEvery-th hit in either direction publishes both.
	for i := int64(1); i < publishEvery; i++ {
		free(ta)
		malloc()
		expect(fmt.Sprintf("%d free-malloc pairs", i), i, i)
	}
	free(ta)
	expect("the publishEvery-th free", 0, 0)
	for i := int64(1); i < publishEvery; i++ {
		malloc()
		free(ta)
		expect(fmt.Sprintf("%d malloc-free pairs", i), i, i)
	}
	malloc()
	expect("the publishEvery-th malloc", 0, 0)

	// Refills: empty the magazine with hits, then one more malloc refills.
	for range 4 {
		lag := int64(0)
		for len(mag.ptrs) > 0 {
			malloc()
			lag++
			expect("a malloc that empties the magazine", lag, 0)
		}
		r0, _ := transfers()
		malloc()
		if r1, _ := transfers(); r1 != r0+1 {
			t.Fatalf("the malloc of an empty magazine made %d refills, want 1", r1-r0)
		}
		expect("a refill", 0, 0)
	}

	// A magazine flush: fill the magazine to its cap, then push past it.
	lag := int64(0)
	for len(mag.ptrs) < capacity {
		free(ta)
		lag++
		expect("a free into the magazine", 0, lag)
	}
	_, f0 := transfers()
	free(ta)
	if _, f1 := transfers(); f1 != f0+1 {
		t.Fatalf("the free past the cap made %d flushes, want 1", f1-f0)
	}
	expect("a magazine flush", 0, 0)

	// A remote-batch flush: tb frees ta's blocks into its remote batch.
	for len(held) < capacity || len(mag.ptrs) > 0 {
		malloc()
	}
	malloc()
	expect("the refill before the remote frees", 0, 0)
	for lag := int64(1); lag < capacity; lag++ {
		free(tb)
		expect("a remote free", 0, lag)
	}
	_, f0 = transfers()
	free(tb)
	if _, f1 := transfers(); f1 != f0+1 {
		t.Fatalf("the remote free that fills the batch made %d flushes, want 1", f1-f0)
	}
	expect("a remote-batch flush", 0, 0)

	// FlushThread publishes whatever its thread still counts.
	malloc()
	free(ta)
	malloc()
	expect("before FlushThread", 2, 1)
	a.FlushThread(ta)
	expect("FlushThread", 0, 0)
	for len(held) > 0 {
		free(ta) // a retired thread's frees bypass the magazines
	}
	a.FlushThread(tb)
	expect("every thread flushed", 0, 0)
	if sample, exact := a.SampleStats(), a.Stats(); sample != exact {
		t.Fatalf("every thread flushed: SampleStats %+v != Stats %+v", sample, exact)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
