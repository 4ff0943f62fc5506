// Package workload implements the paper's seven benchmark programs —
// threadtest, shbench, Larson, active-false, passive-false, a BEMengine-
// style solid-modeling surrogate, and Barnes-Hut — plus the producer-
// consumer blowup microbenchmark from §2.2.
//
// Every benchmark is written once against a Harness and runs in two modes:
//
//   - Real mode: goroutines, sync.Mutex locks, wall-clock time. Used by unit
//     tests (including -race) and the testing.B benchmarks.
//   - Simulated mode: the internal/simproc discrete-event multiprocessor,
//     virtual time, modelled cache coherence. Used to regenerate the paper's
//     1-14 processor figures deterministically.
//
// The benchmark bodies perform real allocator calls and real memory writes
// in both modes; the harness only decides who schedules the threads and
// what a lock or a cache line costs.
package workload

import (
	"sync"
	"time"

	"hoardgo/internal/alloc"
	"hoardgo/internal/allocators"
	"hoardgo/internal/cachesim"
	"hoardgo/internal/env"
	"hoardgo/internal/simproc"
	"hoardgo/internal/vm"
)

// Barrier synchronizes harness threads between workload phases.
type Barrier interface {
	// Wait blocks the calling thread until all participants arrive.
	Wait(e env.Env)
}

// Result is the outcome of one benchmark run.
type Result struct {
	// Allocator is the allocator's name.
	Allocator string
	// Procs is the processor count (virtual in sim mode, GOMAXPROCS
	// upper bound in real mode).
	Procs int
	// Threads is the number of worker threads.
	Threads int
	// Ops counts workload-defined operations (typically mallocs+frees).
	Ops int64
	// ElapsedNS is virtual nanoseconds in sim mode, wall nanoseconds in
	// real mode.
	ElapsedNS int64
	// MaxLive is the workload-tracked peak of requested live bytes (the
	// paper's "memory in use", denominator of the fragmentation ratio).
	MaxLive int64
	// Alloc is the allocator's final counters.
	Alloc alloc.Stats
	// VM is the simulated OS accounting; VM.PeakCommitted is the paper's
	// "max heap" (numerator of the fragmentation ratio).
	VM vm.Stats
	// Cache and Locks are populated in sim mode only.
	Cache cachesim.Stats
	Locks []simproc.LockStat
}

// Throughput returns operations per virtual (or wall) second.
func (r Result) Throughput() float64 {
	if r.ElapsedNS == 0 {
		return 0
	}
	return float64(r.Ops) / (float64(r.ElapsedNS) / 1e9)
}

// Fragmentation returns max-heap over max-live, the paper's Table of
// fragmentation results.
func (r Result) Fragmentation() float64 {
	if r.MaxLive == 0 {
		return 0
	}
	return float64(r.VM.PeakCommitted) / float64(r.MaxLive)
}

// Harness couples an allocator to an execution mode. Create one per run
// with NewReal or NewSim; a Harness is single-use.
type Harness struct {
	alloc     alloc.Allocator
	allocName string
	procs     int
	world     *simproc.World // nil in real mode

	requested alloc.Accounting
	elapsedNS int64
	started   bool
}

// NewSim creates a harness over the named allocator on a simulated
// multiprocessor with procs CPUs and the given cost model.
func NewSim(allocName string, procs int, cost simproc.CostModel) *Harness {
	return NewSimMaker(allocName, procs, cost, nil)
}

// NewSimMaker is NewSim with a custom allocator constructor (nil selects
// the registry's); the ablation experiments use it to vary Hoard's
// parameters.
func NewSimMaker(allocName string, procs int, cost simproc.CostModel, mk allocators.Maker) *Harness {
	w := simproc.NewWorld(procs, cost)
	var a alloc.Allocator
	if mk != nil {
		a = mk(procs, w)
	} else {
		a = allocators.MustMake(allocName, procs, w)
	}
	return &Harness{
		alloc:     a,
		allocName: allocName,
		procs:     procs,
		world:     w,
	}
}

// NewReal creates a harness over the named allocator using real goroutines
// and wall-clock time. procs only sizes the allocator (e.g. Hoard's heap
// count); actual parallelism is up to GOMAXPROCS.
func NewReal(allocName string, procs int) *Harness {
	return NewRealMaker(allocName, procs, nil)
}

// NewRealMaker is NewReal with a custom allocator constructor (nil selects
// the registry's). The maker receives the real lock factory.
func NewRealMaker(allocName string, procs int, mk allocators.Maker) *Harness {
	var a alloc.Allocator
	if mk != nil {
		a = mk(procs, env.RealLockFactory{})
	} else {
		a = allocators.MustMake(allocName, procs, env.RealLockFactory{})
	}
	return &Harness{
		alloc:     a,
		allocName: allocName,
		procs:     procs,
	}
}

// Allocator exposes the harness's allocator (for result inspection).
func (h *Harness) Allocator() alloc.Allocator { return h.alloc }

// OnAlloc records sz requested bytes becoming live; workloads call it after
// each malloc so Result.MaxLive reflects the program's true demand.
func (h *Harness) OnAlloc(sz int) { h.requested.OnMalloc(sz) }

// OnFree records sz requested bytes dying.
func (h *Harness) OnFree(sz int) { h.requested.OnFree(sz) }

// Par runs body as n concurrent threads (ids 0..n-1) and waits for all of
// them. Each body receives its thread id, environment, and registered
// allocator thread. Par may be called once per Harness; multi-phase
// workloads synchronize with barriers inside the single Par.
func (h *Harness) Par(n int, body func(id int, e env.Env, t *alloc.Thread)) {
	if h.started {
		panic("workload: Par called twice on one Harness")
	}
	h.started = true
	if h.world != nil {
		for i := 0; i < n; i++ {
			id := i
			h.world.SpawnOn(id%h.procs, func(e env.Env) {
				body(id, e, h.alloc.NewThread(e))
			})
		}
		h.elapsedNS = h.world.Run()
		return
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			e := &env.RealEnv{ID: id}
			body(id, e, h.alloc.NewThread(e))
		}(i)
	}
	wg.Wait()
	h.elapsedNS = time.Since(start).Nanoseconds()
}

// NewBarrier returns a reusable barrier for n participants, usable inside
// Par bodies.
func (h *Harness) NewBarrier(n int) Barrier {
	if h.world != nil {
		return simBarrier{h.world.NewBarrier(n)}
	}
	b := &realBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

type simBarrier struct{ b *simproc.Barrier }

func (s simBarrier) Wait(e env.Env) { s.b.Wait(e) }

// realBarrier is a reusable generation-counting barrier.
type realBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     int
}

func (b *realBarrier) Wait(env.Env) {
	b.mu.Lock()
	gen := b.gen
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// Result assembles the run's outcome. ops is the workload's operation
// count.
func (h *Harness) Result(threads int, ops int64) Result {
	r := Result{
		Allocator: h.allocName,
		Procs:     h.procs,
		Threads:   threads,
		Ops:       ops,
		ElapsedNS: h.elapsedNS,
		Alloc:     h.alloc.Stats(),
		VM:        h.alloc.Space().Stats(),
	}
	var req alloc.Stats
	h.requested.Fill(&req)
	r.MaxLive = req.PeakLiveBytes
	if h.world != nil {
		r.Cache = h.world.CacheStats()
		r.Locks = h.world.LockStats()
	}
	return r
}

// WriteObj simulates the application writing an object: it really writes the
// block's bytes (so real-mode false sharing is physical) and reports the
// access to the cache model (so sim-mode false sharing is charged).
func WriteObj(a alloc.Allocator, e env.Env, p alloc.Ptr, n int) {
	buf := a.Bytes(p, n)
	for i := range buf {
		buf[i]++
	}
	e.Touch(uint64(p), n, true)
	e.Charge(env.OpWork, int64(n))
}

// ReadObj simulates the application reading an object.
func ReadObj(a alloc.Allocator, e env.Env, p alloc.Ptr, n int) byte {
	buf := a.Bytes(p, n)
	var x byte
	for i := range buf {
		x ^= buf[i]
	}
	e.Touch(uint64(p), n, false)
	e.Charge(env.OpWork, int64(n))
	return x
}
