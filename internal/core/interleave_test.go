package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/simproc"
)

// TestInterleavedScenario runs three simulated threads over magazines on a
// two-heap Hoard, under seeded random schedules that switch threads at every
// env hook (simproc.RandomChooser). Threads 0 and 2 share heap 1 and its
// superblocks; thread 1 has heap 2. Each thread mixes magazine hits, refills
// and flushes; frees of blocks other threads handed it, which are remote
// frees and remote-batch flushes when another heap owns them; oversize
// mallocs that bypass the magazines; ReleaseMemory; and, in some runs, a
// FlushThread after which its handle bypasses the magazines too. Every free
// that leaves the block in the thread's own magazine or remote batch is
// followed by a second free of it, which must panic at the call. A fourth
// thread samples SampleStats at each of its switch points: its Mallocs and
// Frees must never decrease and never exceed the operations the threads have
// completed. Thread 0 never retires and ends holding unpublished hits. After
// each schedule no block may have been live twice, and at quiescence, with
// those threads still open, CheckIntegrity must pass and Stats must count
// exactly the operations performed.
func TestInterleavedScenario(t *testing.T) {
	probes, samples := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		s, err := runScenario(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		probes += s.probes
		samples += s.samples
	}
	if probes == 0 {
		t.Fatal("no schedule probed a double free")
	}
	if samples == 0 {
		t.Fatal("no schedule sampled SampleStats")
	}
}

// scenarioOps is the number of operations each simulated thread performs.
const scenarioOps = 60

// scenario is the state the simulated threads share. Only one of them runs
// at a time, so it needs no lock.
type scenario struct {
	a *Hoard
	// live holds every block the application holds.
	live map[alloc.Ptr]bool
	// mailbox holds live blocks one thread handed over for any thread to
	// free.
	mailbox        []alloc.Ptr
	mallocs, frees int64
	// probes counts the double frees that panicked at the call.
	probes int
	// running counts the threads still performing operations; samples
	// counts the sampler's samples.
	running, samples int
}

// runScenario runs one schedule and returns its final state.
func runScenario(seed int64) (_ *scenario, err error) {
	w := simproc.NewWorld(3, simproc.DefaultCosts)
	w.SetChooser(simproc.RandomChooser(seed))
	s := &scenario{
		a:       New(Config{Heaps: 2, Backend: "sim", Magazines: 4}, w),
		live:    make(map[alloc.Ptr]bool),
		running: 3,
	}
	end := w.NewBarrier(3)
	for id := int64(0); id < 3; id++ {
		rng := rand.New(rand.NewSource(seed*3 + id))
		w.Spawn(func(e env.Env) { s.thread(e, rng, end) })
	}
	w.Spawn(s.sample)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	w.Run()
	if len(s.live) != 0 {
		return nil, fmt.Errorf("%d blocks still live after every thread freed its own", len(s.live))
	}
	if err := s.a.CheckIntegrity(); err != nil {
		return nil, err
	}
	st := s.a.Stats()
	if st.Mallocs != s.mallocs || st.Frees != s.frees || st.LiveBytes != 0 {
		return nil, fmt.Errorf("stats say %d mallocs, %d frees, %d B live; the threads made %d mallocs and %d frees",
			st.Mallocs, st.Frees, st.LiveBytes, s.mallocs, s.frees)
	}
	if sample := s.a.SampleStats(); sample.Mallocs+sample.Frees == st.Mallocs+st.Frees {
		return nil, fmt.Errorf("no thread ended with unpublished hits")
	}
	return s, nil
}

// sample is the sampler thread's program: SampleStats at every switch point
// until the other threads are done.
func (s *scenario) sample(e env.Env) {
	var last alloc.Stats
	for s.running > 0 {
		st := s.a.SampleStats()
		if st.Mallocs < last.Mallocs || st.Frees < last.Frees {
			panic(fmt.Sprintf("sampled counts went down: mallocs %d -> %d, frees %d -> %d",
				last.Mallocs, st.Mallocs, last.Frees, st.Frees))
		}
		if st.Mallocs > s.mallocs || st.Frees > s.frees {
			panic(fmt.Sprintf("sampled %d mallocs and %d frees; the threads have completed %d and %d",
				st.Mallocs, st.Frees, s.mallocs, s.frees))
		}
		last = st
		s.samples++
		e.Charge(env.OpListScan, 1)
	}
}

// thread is one simulated thread's program. At the end every thread frees
// the blocks it holds, and after a barrier thread 0 frees the mailbox and
// makes hit pairs until it holds unpublished hits.
func (s *scenario) thread(e env.Env, rng *rand.Rand, end *simproc.Barrier) {
	defer func() { s.running-- }()
	th := s.a.NewThread(e)
	flushAt := -1
	if rng.Intn(2) == 0 && e.ThreadID() != 0 {
		flushAt = rng.Intn(scenarioOps)
	}
	var mine []alloc.Ptr
	for op := 0; op < scenarioOps; op++ {
		switch r := rng.Intn(16); {
		case r < 6:
			mine = append(mine, s.malloc(th, 8+rng.Intn(320)))
		case r < 7:
			mine = append(mine, s.malloc(th, maxCachedSize+1+rng.Intn(4096)))
		case r < 11:
			if len(mine) > 0 {
				s.free(th, take(rng, &mine))
			}
		case r < 13:
			if len(mine) > 0 {
				s.mailbox = append(s.mailbox, take(rng, &mine))
			}
		case r < 15:
			if len(s.mailbox) > 0 {
				s.free(th, take(rng, &s.mailbox))
			}
		default:
			s.a.ReleaseMemory(e)
		}
		if op == flushAt {
			s.a.FlushThread(th)
		}
	}
	for _, p := range mine {
		s.free(th, p)
	}
	end.Wait(e)
	if e.ThreadID() == 0 {
		for _, p := range s.mailbox {
			s.free(th, p)
		}
		s.mailbox = nil
		for unpublished(th.State.(*ThreadState)) == 0 {
			s.free(th, s.malloc(th, 8))
		}
	}
}

// unpublished returns the hits ts has not yet published.
func unpublished(ts *ThreadState) int {
	n := 0
	for _, m := range ts.mags {
		n += m.mallocs + m.frees
	}
	return n
}

func (s *scenario) malloc(th *alloc.Thread, size int) alloc.Ptr {
	p := s.a.Malloc(th, size)
	if s.live[p] {
		panic(fmt.Sprintf("block %#x handed out while live", uint64(p)))
	}
	s.live[p] = true
	s.mallocs++
	return p
}

// free frees p, then probes a double free of it. p leaves live before the
// free, whose switch points may let another thread malloc it again.
func (s *scenario) free(th *alloc.Thread, p alloc.Ptr) {
	delete(s.live, p)
	s.a.Free(th, p)
	s.frees++
	s.probeDoubleFree(th, p)
}

// probeDoubleFree frees p a second time if it still sits in th's magazines
// or remote batch, where no other thread can take it, and requires the
// double-free panic at that call.
func (s *scenario) probeDoubleFree(th *alloc.Thread, p alloc.Ptr) {
	ts := th.State.(*ThreadState)
	if ts.mags == nil || !cachedBy(ts, p) {
		return
	}
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "double free") {
			panic(fmt.Sprintf("second free of cached block %#x: got panic %v, want a double free", uint64(p), r))
		}
		s.probes++
	}()
	s.a.Free(th, p)
}

// cachedBy reports whether p is in ts's magazines or remote batch.
func cachedBy(ts *ThreadState, p alloc.Ptr) bool {
	for _, m := range ts.mags {
		if slices.Contains(m.ptrs, p) {
			return true
		}
	}
	return slices.Contains(ts.remote, p)
}

// take removes and returns a random element of *xs.
func take(rng *rand.Rand, xs *[]alloc.Ptr) alloc.Ptr {
	i := rng.Intn(len(*xs))
	p := (*xs)[i]
	(*xs)[i] = (*xs)[len(*xs)-1]
	*xs = (*xs)[:len(*xs)-1]
	return p
}
