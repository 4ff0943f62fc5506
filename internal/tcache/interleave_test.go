package tcache

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
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
// followed by a second free of it, which must panic at the call. After each
// schedule no block may have been live twice, and at quiescence
// CheckIntegrity must pass and Stats must count exactly the operations
// performed.
func TestInterleavedScenario(t *testing.T) {
	probes := 0
	for seed := int64(0); seed < 200; seed++ {
		n, err := runScenario(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		probes += n
	}
	if probes == 0 {
		t.Fatal("no schedule probed a double free")
	}
}

// scenarioOps is the number of operations each simulated thread performs.
const scenarioOps = 60

// scenario is the state the simulated threads share. Only one of them runs
// at a time, so it needs no lock.
type scenario struct {
	a *Allocator
	// live holds every block the application holds.
	live map[alloc.Ptr]bool
	// mailbox holds live blocks one thread handed over for any thread to
	// free.
	mailbox        []alloc.Ptr
	mallocs, frees int64
	// probes counts the double frees that panicked at the call.
	probes int
}

// runScenario runs one schedule and returns how many double frees it probed.
func runScenario(seed int64) (probes int, err error) {
	w := simproc.NewWorld(3, simproc.DefaultCosts)
	w.SetChooser(simproc.RandomChooser(seed))
	s := &scenario{
		a:    New(core.New(core.Config{Heaps: 2, Backend: "sim"}, w), Config{Capacity: 4}),
		live: make(map[alloc.Ptr]bool),
	}
	end := w.NewBarrier(3)
	for id := int64(0); id < 3; id++ {
		rng := rand.New(rand.NewSource(seed*3 + id))
		w.Spawn(func(e env.Env) { s.thread(e, rng, end) })
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	w.Run()
	if len(s.live) != 0 {
		return 0, fmt.Errorf("%d blocks still live after every thread freed its own", len(s.live))
	}
	if err := s.a.CheckIntegrity(); err != nil {
		return 0, err
	}
	st := s.a.Stats()
	if st.Mallocs != s.mallocs || st.Frees != s.frees || st.LiveBytes != 0 {
		return 0, fmt.Errorf("stats say %d mallocs, %d frees, %d B live; the threads made %d mallocs and %d frees",
			st.Mallocs, st.Frees, st.LiveBytes, s.mallocs, s.frees)
	}
	return s.probes, nil
}

// thread is one simulated thread's program. At the end every thread frees
// the blocks it holds, and after a barrier thread 0 frees the mailbox.
func (s *scenario) thread(e env.Env, rng *rand.Rand, end *simproc.Barrier) {
	th := s.a.NewThread(e)
	flushAt := -1
	if rng.Intn(2) == 0 {
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
			s.a.inner.ReleaseMemory(e)
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
	}
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
	ts := th.State.(*threadState)
	if ts.retired || !cachedBy(ts, p) {
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
func cachedBy(ts *threadState, p alloc.Ptr) bool {
	for _, mag := range append(ts.mags, ts.remote) {
		for _, q := range mag {
			if q == p {
				return true
			}
		}
	}
	return false
}

// take removes and returns a random element of *xs.
func take(rng *rand.Rand, xs *[]alloc.Ptr) alloc.Ptr {
	i := rng.Intn(len(*xs))
	p := (*xs)[i]
	(*xs)[i] = (*xs)[len(*xs)-1]
	*xs = (*xs)[:len(*xs)-1]
	return p
}
