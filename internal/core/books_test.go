package core

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
)

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
	slack := func(a *Hoard, threads int, inFlight int) int64 {
		largest := sizes[len(sizes)-1]
		perThread := classBudget + largest + inFlight*largest
		for _, s := range sizes {
			c, _ := a.classFor(s)
			perThread += (a.caps[c] + 1) * s
		}
		return int64(threads * perThread)
	}
	check := func(t *testing.T, a *Hoard, driverPeak, slack int64) {
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
	mag := &ta.State.(*ThreadState).mags[class]
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
		st := a.heldStats()
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
