package simproc

import (
	"fmt"
	"testing"

	"hoardgo/internal/env"
)

func TestSingleThreadTime(t *testing.T) {
	w := NewWorld(1, DefaultCosts)
	w.Spawn(func(e env.Env) {
		e.Charge(env.OpWork, 1000)
	})
	if got := w.Run(); got != 1000*DefaultCosts.Op[env.OpWork] {
		t.Fatalf("makespan = %d, want %d", got, 1000)
	}
}

func TestPerfectParallelism(t *testing.T) {
	// P independent threads on P CPUs: makespan equals one thread's time.
	for _, p := range []int{1, 2, 4, 8, 14} {
		w := NewWorld(p, DefaultCosts)
		for i := 0; i < p; i++ {
			w.Spawn(func(e env.Env) { e.Charge(env.OpWork, 10000) })
		}
		if got := w.Run(); got != 10000 {
			t.Fatalf("P=%d: makespan = %d, want 10000", p, got)
		}
	}
}

func TestCPUMultiplexing(t *testing.T) {
	// 4 threads on 2 CPUs: makespan doubles.
	w := NewWorld(2, DefaultCosts)
	for i := 0; i < 4; i++ {
		w.Spawn(func(e env.Env) { e.Charge(env.OpWork, 1000) })
	}
	if got := w.Run(); got != 2000 {
		t.Fatalf("makespan = %d, want 2000", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, []LockStat, int64) {
		w := NewWorld(4, DefaultCosts)
		l := w.NewLock("shared")
		for i := 0; i < 4; i++ {
			w.Spawn(func(e env.Env) {
				for j := 0; j < 100; j++ {
					l.Lock(e)
					e.Charge(env.OpWork, 50)
					e.Touch(0x1000, 8, true)
					l.Unlock(e)
					e.Charge(env.OpWork, 20)
				}
			})
		}
		makespan := w.Run()
		return makespan, w.LockStats(), w.CacheStats().RemoteTransfers
	}
	m1, ls1, rt1 := run()
	m2, ls2, rt2 := run()
	if m1 != m2 || rt1 != rt2 {
		t.Fatalf("nondeterministic: makespans %d vs %d, transfers %d vs %d", m1, m2, rt1, rt2)
	}
	if ls1[0] != ls2[0] {
		t.Fatalf("nondeterministic lock stats: %+v vs %+v", ls1[0], ls2[0])
	}
	if ls1[0].Contended == 0 {
		t.Fatal("expected contention on the shared lock")
	}
}

func TestLockSerializes(t *testing.T) {
	// All work under one lock: makespan is at least the sum of critical
	// sections, regardless of CPU count.
	const threads = 8
	const workEach = 10000
	w := NewWorld(threads, DefaultCosts)
	l := w.NewLock("big")
	for i := 0; i < threads; i++ {
		w.Spawn(func(e env.Env) {
			l.Lock(e)
			e.Charge(env.OpWork, workEach)
			l.Unlock(e)
		})
	}
	if got := w.Run(); got < threads*workEach {
		t.Fatalf("makespan %d < serialized minimum %d", got, threads*workEach)
	}
}

func TestLockFIFOAndWaitTime(t *testing.T) {
	w := NewWorld(2, DefaultCosts)
	l := w.NewLock("l")
	var order []int
	// Thread 0 takes the lock and holds it; threads 1 then 2 queue in
	// time order; they must be granted FIFO.
	w.SpawnOn(0, func(e env.Env) {
		l.Lock(e)
		e.Charge(env.OpWork, 10000)
		l.Unlock(e)
		order = append(order, 0)
	})
	w.SpawnOn(1, func(e env.Env) {
		e.Charge(env.OpWork, 100) // arrive second
		l.Lock(e)
		order = append(order, 1)
		l.Unlock(e)
	})
	w.SpawnOn(1, func(e env.Env) {
		e.Charge(env.OpWork, 5000) // arrive third
		l.Lock(e)
		order = append(order, 2)
		l.Unlock(e)
	})
	w.Run()
	if len(order) != 3 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order %v, want [0 1 2]", order)
	}
	st := w.LockStats()[0]
	if st.Acquires != 3 || st.Contended != 2 {
		t.Fatalf("lock stats %+v", st)
	}
	if st.WaitTime < 10000 {
		t.Fatalf("WaitTime %d; thread 1 waited for a 10000-unit critical section", st.WaitTime)
	}
}

func TestTryLock(t *testing.T) {
	w := NewWorld(2, DefaultCosts)
	l := w.NewLock("l")
	var got []bool
	w.Spawn(func(e env.Env) {
		l.Lock(e)
		e.Charge(env.OpWork, 1000)
		l.Unlock(e)
	})
	w.Spawn(func(e env.Env) {
		e.Charge(env.OpWork, 100)
		got = append(got, l.TryLock(e)) // holder busy -> false
		e.Charge(env.OpWork, 2000)
		got = append(got, l.TryLock(e)) // free -> true
		l.Unlock(e)
	})
	w.Run()
	if len(got) != 2 || got[0] || !got[1] {
		t.Fatalf("TryLock results %v, want [false true]", got)
	}
}

func TestFalseSharingCostsEmerge(t *testing.T) {
	// Two CPUs writing the same line vs different lines: the same-line run
	// must take substantially longer.
	run := func(addr0, addr1 uint64) int64 {
		w := NewWorld(2, DefaultCosts)
		w.SpawnOn(0, func(e env.Env) {
			for i := 0; i < 1000; i++ {
				e.Touch(addr0, 8, true)
			}
		})
		w.SpawnOn(1, func(e env.Env) {
			for i := 0; i < 1000; i++ {
				e.Touch(addr1, 8, true)
			}
		})
		return w.Run()
	}
	shared := run(0x1000, 0x1008)   // same 64-byte line
	disjoint := run(0x1000, 0x2000) // different lines
	if shared < 10*disjoint {
		t.Fatalf("false sharing not penalized: shared=%d disjoint=%d", shared, disjoint)
	}
}

func TestBarrierReleasesAtMaxArrival(t *testing.T) {
	w := NewWorld(4, DefaultCosts)
	b := w.NewBarrier(4)
	var after []int64
	for i := 0; i < 4; i++ {
		work := int64((i + 1) * 1000)
		w.Spawn(func(e env.Env) {
			e.Charge(env.OpWork, work)
			b.Wait(e)
			after = append(after, e.(*Env).Time())
		})
	}
	w.Run()
	want := int64(4000) + DefaultCosts.BarrierCost
	for i, got := range after {
		if got != want {
			t.Fatalf("thread %d resumed at %d, want %d", i, got, want)
		}
	}
}

func TestBarrierReusableAcrossRounds(t *testing.T) {
	w := NewWorld(2, DefaultCosts)
	b := w.NewBarrier(2)
	counts := make([]int, 2)
	for i := 0; i < 2; i++ {
		id := i
		w.Spawn(func(e env.Env) {
			for r := 0; r < 5; r++ {
				e.Charge(env.OpWork, int64(100*(id+1)))
				b.Wait(e)
				counts[id]++
			}
		})
	}
	w.Run()
	if counts[0] != 5 || counts[1] != 5 {
		t.Fatalf("rounds completed %v, want [5 5]", counts)
	}
}

func TestDynamicSpawn(t *testing.T) {
	w := NewWorld(2, DefaultCosts)
	var childTime int64
	w.Spawn(func(e env.Env) {
		e.Charge(env.OpWork, 1000)
		w.Spawn(func(ce env.Env) {
			ce.Charge(env.OpWork, 500)
			childTime = ce.(*Env).Time()
		})
		e.Charge(env.OpWork, 100)
	})
	w.Run()
	want := int64(1000) + DefaultCosts.SpawnCost + 500
	if childTime != want {
		t.Fatalf("child finished at %d, want %d", childTime, want)
	}
}

func TestDeadlockPanics(t *testing.T) {
	w := NewWorld(2, DefaultCosts)
	a, b := w.NewLock("a"), w.NewLock("b")
	w.Spawn(func(e env.Env) {
		a.Lock(e)
		e.Charge(env.OpWork, 100)
		b.Lock(e)
	})
	w.Spawn(func(e env.Env) {
		b.Lock(e)
		e.Charge(env.OpWork, 100)
		a.Lock(e)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("deadlocked simulation did not panic")
		}
	}()
	w.Run()
}

func TestRecursiveLockPanics(t *testing.T) {
	w := NewWorld(1, DefaultCosts)
	l := w.NewLock("l")
	w.Spawn(func(e env.Env) {
		l.Lock(e)
		l.Lock(e)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("recursive lock did not panic")
		}
	}()
	w.Run()
}

func TestLockMigrationCost(t *testing.T) {
	// Alternating lock holders on different CPUs pay LockMigrate; a
	// single-CPU holder does not.
	run := func(cpus []int) int64 {
		w := NewWorld(2, DefaultCosts)
		l := w.NewLock("l")
		b := w.NewBarrier(len(cpus))
		for _, c := range cpus {
			w.SpawnOn(c, func(e env.Env) {
				for i := 0; i < 100; i++ {
					l.Lock(e)
					e.Charge(env.OpWork, 10)
					l.Unlock(e)
					b.Wait(e) // force strict alternation
				}
			})
		}
		return w.Run()
	}
	crossCPU := run([]int{0, 1})
	sameCPU := run([]int{0, 0})
	if crossCPU <= sameCPU {
		t.Fatalf("cross-CPU lock traffic (%d) not dearer than same-CPU (%d)", crossCPU, sameCPU)
	}
}

func TestRunTwicePanics(t *testing.T) {
	w := NewWorld(1, DefaultCosts)
	w.Spawn(func(e env.Env) {})
	w.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	w.Run()
}

func TestSpawnOnValidation(t *testing.T) {
	w := NewWorld(2, DefaultCosts)
	defer func() {
		if recover() == nil {
			t.Fatal("SpawnOn(5) with 2 CPUs did not panic")
		}
	}()
	w.SpawnOn(5, func(env.Env) {})
}

func TestNewWorldValidation(t *testing.T) {
	for _, procs := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWorld(%d) did not panic", procs)
				}
			}()
			NewWorld(procs, DefaultCosts)
		}()
	}
}

func TestWorkloadPanicPropagates(t *testing.T) {
	w := NewWorld(1, DefaultCosts)
	w.Spawn(func(e env.Env) {
		panic("boom in simulated thread")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("thread panic not propagated to Run")
		}
	}()
	w.Run()
}

func TestEmptyWorldRuns(t *testing.T) {
	w := NewWorld(4, DefaultCosts)
	if got := w.Run(); got != 0 {
		t.Fatalf("empty world makespan %d", got)
	}
}

func TestUnlockByNonHolderPanics(t *testing.T) {
	w := NewWorld(2, DefaultCosts)
	l := w.NewLock("l")
	w.Spawn(func(e env.Env) { l.Lock(e); e.Charge(env.OpWork, 10000) })
	w.Spawn(func(e env.Env) { e.Charge(env.OpWork, 10); l.Unlock(e) })
	defer func() {
		if recover() == nil {
			t.Fatal("unlock by non-holder did not panic")
		}
	}()
	w.Run()
}

// TestManyThreadsFewCPUs checks scheduling stays correct and deterministic
// under heavy multiplexing.
func TestManyThreadsFewCPUs(t *testing.T) {
	run := func() int64 {
		w := NewWorld(2, DefaultCosts)
		l := w.NewLock("shared")
		for i := 0; i < 16; i++ {
			w.Spawn(func(e env.Env) {
				for j := 0; j < 20; j++ {
					l.Lock(e)
					e.Charge(env.OpWork, 37)
					l.Unlock(e)
					e.Charge(env.OpWork, 11)
				}
			})
		}
		return w.Run()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic under multiplexing: %d vs %d", a, b)
	}
	// 16 threads x 20 x (37+11) work on 2 CPUs: at least total/2.
	if a < 16*20*48/2 {
		t.Fatalf("makespan %d below physical minimum", a)
	}
}

// chooserRun runs threads threads of steps read-modify-write increments of
// one shared counter under RandomChooser(seed), each step split by a Charge,
// under a lock if locked. It returns the final count and the order in which
// the threads took their steps.
func chooserRun(seed int64, threads, steps int, locked bool) (count int, order []int) {
	w := NewWorld(2, DefaultCosts)
	w.SetChooser(RandomChooser(seed))
	l := w.NewLock("counter")
	for i := 0; i < threads; i++ {
		w.Spawn(func(e env.Env) {
			for j := 0; j < steps; j++ {
				if locked {
					l.Lock(e)
				}
				v := count
				e.Charge(env.OpWork, 1)
				count = v + 1
				order = append(order, e.ThreadID())
				if locked {
					l.Unlock(e)
				}
			}
		})
	}
	w.Run()
	return count, order
}

// TestRandomChooserReproducible: one seed gives one schedule, and different
// seeds give different ones.
func TestRandomChooserReproducible(t *testing.T) {
	distinct := make(map[string]bool)
	for seed := int64(0); seed < 20; seed++ {
		_, a := chooserRun(seed, 3, 10, false)
		_, b := chooserRun(seed, 3, 10, false)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d: schedules %v and %v", seed, a, b)
		}
		distinct[fmt.Sprint(a)] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("20 seeds gave only %d distinct schedules", len(distinct))
	}
}

// TestRandomChooserSwitchesAtEveryHook: with a switch point at every Charge,
// some seed interleaves two unlocked increments and loses an update, and
// under the lock no seed does.
func TestRandomChooserSwitchesAtEveryHook(t *testing.T) {
	lost := 0
	for seed := int64(0); seed < 50; seed++ {
		if n, _ := chooserRun(seed, 2, 10, false); n < 20 {
			lost++
		}
		if n, _ := chooserRun(seed, 2, 10, true); n != 20 {
			t.Fatalf("seed %d: %d increments under the lock, want 20", seed, n)
		}
	}
	if lost == 0 {
		t.Fatal("no seed interleaved the unlocked increments")
	}
}

func TestChooserMustPickAReadyThread(t *testing.T) {
	w := NewWorld(1, DefaultCosts)
	w.SetChooser(chooseFunc(func([]int) int { return 7 }))
	w.Spawn(func(e env.Env) {})
	defer func() {
		if recover() == nil {
			t.Fatal("a chooser's pick of no ready thread was accepted")
		}
	}()
	w.Run()
}

type chooseFunc func([]int) int

func (f chooseFunc) Choose(ready []int) int { return f(ready) }
