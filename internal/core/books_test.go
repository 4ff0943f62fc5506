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
// thread counts up to publishEvery-1 hits unpublished, of any classes and
// in either direction; its publishEvery-th hit, a refill, a magazine flush,
// a remote-batch flush and FlushThread each publish them all. Stats is exact
// at every step, and SampleStats trails it by exactly each open thread's
// unpublished mallocs, frees and live bytes. Capacity 8: refills bring 4
// blocks, a flush leaves 4, and the remote batch flushes at 8.
func TestPublicationPoints(t *testing.T) {
	const capacity = 8
	a := newOverHoard(capacity)
	ta := a.NewThread(&env.RealEnv{ID: 0}) // heap 1
	tb := a.NewThread(&env.RealEnv{ID: 1}) // heap 2
	// lag is one thread's unpublished hits and the live bytes they moved.
	type lag struct{ mallocs, frees, live int64 }
	lags := map[*alloc.Thread]*lag{ta: {}, tb: {}}
	retired := map[*alloc.Thread]bool{}
	var mallocs, frees, live int64
	held := map[int][]alloc.Ptr{} // ta's blocks by size
	transfers := func() int64 {
		st := a.heldStats()
		return st.BatchRefills + st.BatchFlushes
	}
	// count books an operation of th on a block of size in the driver's
	// counts and, when it was a hit, in th's lag. It reports whether it was.
	count := func(th *alloc.Thread, size int64, malloc bool, transfersBefore int64) bool {
		sign := int64(1)
		if malloc {
			mallocs++
		} else {
			frees++
			sign = -1
		}
		live += sign * size
		l := lags[th]
		if retired[th] || transfers() != transfersBefore {
			*l = lag{}
			return false
		}
		if malloc {
			l.mallocs++
		} else {
			l.frees++
		}
		l.live += sign * size
		if l.mallocs+l.frees == publishEvery {
			*l = lag{}
		}
		return true
	}
	malloc := func(size int) bool {
		before := transfers()
		held[size] = append(held[size], a.Malloc(ta, size))
		return count(ta, int64(size), true, before)
	}
	free := func(th *alloc.Thread, size int) bool {
		p := held[size][len(held[size])-1]
		held[size] = held[size][:len(held[size])-1]
		before := transfers()
		a.Free(th, p)
		return count(th, int64(size), false, before)
	}
	magLen := func(size int) int {
		class, _ := a.classFor(size)
		return len(ta.State.(*ThreadState).mags[class])
	}
	// expect checks Stats against the driver's counts, and that SampleStats
	// trails it by exactly the threads' lags.
	expect := func(step string) {
		t.Helper()
		st, sample := a.Stats(), a.SampleStats()
		if st.Mallocs != mallocs || st.Frees != frees || st.LiveBytes != live {
			t.Fatalf("%s: Stats counts %d mallocs, %d frees, %d B live; the driver made %d, %d, %d B",
				step, st.Mallocs, st.Frees, st.LiveBytes, mallocs, frees, live)
		}
		var want lag
		for _, l := range lags {
			want.mallocs += l.mallocs
			want.frees += l.frees
			want.live += l.live
		}
		if st.Mallocs-sample.Mallocs != want.mallocs || st.Frees-sample.Frees != want.frees ||
			st.LiveBytes-sample.LiveBytes != want.live {
			t.Fatalf("%s: SampleStats trails by %d mallocs, %d frees, %d B live; want %d, %d, %d B", step,
				st.Mallocs-sample.Mallocs, st.Frees-sample.Frees, st.LiveBytes-sample.LiveBytes,
				want.mallocs, want.frees, want.live)
		}
	}

	// Two class sizes, so a block's usable size is the size asked for.
	class256, _ := a.classFor(256)
	sizes := []int{64, a.classes.Size(class256)}
	for _, size := range sizes {
		if malloc(size) {
			t.Fatalf("the first malloc of %d B did not refill", size)
		}
		expect(fmt.Sprintf("first malloc of %d B, which refills", size))
	}

	// Mixed hits: each class keeps 4 blocks between ta's hands and its
	// magazine, so a malloc of a non-empty magazine and a free into one
	// below its cap are both hits. The publishEvery-th hit of any mix
	// publishes them all.
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 4; round++ {
		var mixed [2][2]int // hits by size index and direction
		for k := int64(1); k <= publishEvery; k++ {
			type op struct{ size, malloc int }
			var ops []op
			for i, size := range sizes {
				if magLen(size) > 0 {
					ops = append(ops, op{i, 1})
				}
				if len(held[size]) > 0 {
					ops = append(ops, op{i, 0})
				}
			}
			o := ops[rng.Intn(len(ops))]
			mixed[o.size][o.malloc]++
			hit := false
			if o.malloc == 1 {
				hit = malloc(sizes[o.size])
			} else {
				hit = free(ta, sizes[o.size])
			}
			if !hit {
				t.Fatalf("round %d: mixed op %d refilled or flushed", round, k)
			}
			st, sample := a.Stats(), a.SampleStats()
			if got, want := st.Mallocs+st.Frees-sample.Mallocs-sample.Frees, k%publishEvery; got != want {
				t.Fatalf("round %d: %d mixed hits leave %d unpublished, want %d", round, k, got, want)
			}
			expect(fmt.Sprintf("round %d: %d mixed hits", round, k))
		}
		if min(mixed[0][0]+mixed[0][1], mixed[1][0]+mixed[1][1], mixed[0][0]+mixed[1][0], mixed[0][1]+mixed[1][1]) == 0 {
			t.Fatalf("round %d: hits by size and direction %v do not mix classes and directions", round, mixed)
		}
	}

	// Refills: empty the magazine with hits, then one more malloc refills.
	for range 4 {
		for magLen(64) > 0 {
			if !malloc(64) {
				t.Fatal("a malloc of a non-empty magazine refilled")
			}
			expect("a malloc that empties the magazine")
		}
		if malloc(64) {
			t.Fatal("the malloc of an empty magazine made no refill")
		}
		expect("a refill")
	}

	// A magazine flush: fill the magazine to its cap, then push past it.
	for magLen(64) < capacity {
		if !free(ta, 64) {
			t.Fatal("a free into a magazine below its cap flushed")
		}
		expect("a free into the magazine")
	}
	if free(ta, 64) {
		t.Fatal("the free past the cap made no flush")
	}
	expect("a magazine flush")

	// A remote-batch flush: tb frees ta's blocks into its remote batch.
	for len(held[64]) < capacity {
		malloc(64)
	}
	expect("ta's mallocs before the remote frees")
	for i := 1; i < capacity; i++ {
		if !free(tb, 64) {
			t.Fatal("a remote free below the batch's limit flushed")
		}
		expect("a remote free")
	}
	if free(tb, 64) {
		t.Fatal("the remote free that fills the batch made no flush")
	}
	expect("a remote-batch flush")

	// FlushThread publishes whatever its thread still counts.
	malloc(64)
	free(ta, 64)
	malloc(sizes[1])
	expect("before FlushThread")
	a.FlushThread(ta)
	*lags[ta], retired[ta] = lag{}, true
	expect("FlushThread")
	for _, size := range sizes {
		for len(held[size]) > 0 {
			free(ta, size) // a retired thread's frees bypass the magazines
		}
	}
	a.FlushThread(tb)
	*lags[tb], retired[tb] = lag{}, true
	expect("every thread flushed")
	if sample, exact := a.SampleStats(), a.Stats(); sample != exact {
		t.Fatalf("every thread flushed: SampleStats %+v != Stats %+v", sample, exact)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
