package core_test

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
