// Package simproc is a deterministic discrete-event simulator of a
// shared-memory multiprocessor, used to reproduce the paper's 1-14 processor
// experiments on any host (including the single-CPU machine this repository
// was developed on).
//
// The key property: the simulator executes the *real allocator code*. Each
// simulated thread is a goroutine running actual workload and allocator
// logic against real (simulated-address-space) memory; only time is
// virtual. Locks are virtual locks with FIFO handoff and queueing delays,
// cache-line transfers are charged by internal/cachesim, and operation
// costs come from a configurable CostModel. Which locks contend and which
// lines ping-pong is therefore emergent from the allocator's actual
// behavior, not scripted.
//
// # Determinism
//
// Exactly one simulated thread executes at any instant. The scheduler always
// resumes the runnable thread with the smallest (virtual time, thread id)
// and lets it run until its clock reaches the next other runnable thread's
// clock (its "deadline"), it blocks, or it finishes. All interactions with
// shared state (locks, barriers, cache lines) therefore occur in a total
// order determined solely by virtual time and thread ids: the same program
// produces bit-identical schedules, times, and statistics on every run.
//
// There is no scheduler goroutine. The thread that yields runs the
// scheduling step itself: it settles its CPU's clock, picks the next thread
// and resumes it directly, or keeps running when it picked itself. Run
// starts the first thread and then waits until no thread can run or one
// panicked.
//
// # Interleaving exploration
//
// SetChooser replaces the time-ordered pick with a Chooser and makes every
// env hook (Charge, Touch, and each lock operation) a switch point, so the
// real code under test is interleaved at each hook in an order the Chooser
// alone decides. RandomChooser picks uniformly among the ready threads from
// a seed: one seed, one schedule, and a test that runs many seeds explores
// many interleavings of the same program.
//
// # Processor model
//
// Threads are bound to one of P virtual CPUs (round-robin by id unless
// chosen explicitly). Threads sharing a CPU serialize in virtual time: a
// thread resumes no earlier than the moment its CPU last went idle. This
// models co-scheduling coarsely (no preemption mid-run), which is exact for
// the paper's experiments (one thread per processor) and a reasonable
// approximation beyond.
package simproc

import (
	"fmt"
	"math"
	"math/rand"

	"hoardgo/internal/cachesim"
	"hoardgo/internal/env"
)

// CostModel maps abstract operations to virtual nanoseconds. The defaults
// approximate the paper's 400 MHz UltraSPARC Enterprise 5000; the ablation
// experiments vary them to show the qualitative results do not depend on
// the constants.
type CostModel struct {
	// Op is the cost per env.CostKind unit.
	Op [env.NumCostKinds]int64
	// LockAcquire is the cost of an uncontended lock acquisition.
	LockAcquire int64
	// LockRelease is the cost of releasing a lock.
	LockRelease int64
	// LockHandoff is the extra cost of handing a contended lock to a
	// waiter.
	LockHandoff int64
	// LockMigrate is the extra cost when a lock is acquired on a
	// different CPU than it was last held on (the lock word's cache line
	// must transfer).
	LockMigrate int64
	// SpawnCost is charged to a child thread at creation.
	SpawnCost int64
	// BarrierCost is charged to every thread released from a barrier.
	BarrierCost int64
	// Cache gives the coherence latencies.
	Cache cachesim.Costs
}

// DefaultCosts is the baseline cost model (virtual nanoseconds).
var DefaultCosts = CostModel{
	Op: [env.NumCostKinds]int64{
		env.OpMallocFast:     80,
		env.OpMallocSlow:     400,
		env.OpFree:           60,
		env.OpListScan:       15,
		env.OpSuperblockMove: 300,
		env.OpOSAlloc:        3000,
		env.OpMallocBatch:    50,
		env.OpFreeBatch:      50,
		env.OpWork:           1,
	},
	LockAcquire: 40,
	LockRelease: 20,
	LockHandoff: 60,
	LockMigrate: 240,
	SpawnCost:   5000,
	BarrierCost: 500,
	Cache:       cachesim.DefaultCosts,
}

type threadState int

const (
	stateReady threadState = iota
	stateRunning
	stateBlockedLock
	stateBlockedBarrier
	stateDone
)

type thread struct {
	id       int
	cpu      int
	time     int64
	deadline int64
	state    threadState
	resume   chan struct{}
	fn       func(e env.Env)
	w        *World
}

// Env is the per-thread environment handle; it implements env.Env.
type Env struct{ t *thread }

// ThreadID implements env.Env.
func (e *Env) ThreadID() int { return e.t.id }

// Charge implements env.Env.
func (e *Env) Charge(kind env.CostKind, n int64) {
	e.t.charge(e.t.w.cost.Op[kind] * n)
}

// Touch implements env.Env, charging coherence latency from the cache
// model.
func (e *Env) Touch(addr uint64, n int, write bool) {
	e.t.charge(e.t.w.cache.Access(e.t.cpu, addr, n, write))
}

// Time returns the thread's current virtual time (for workload
// instrumentation).
func (e *Env) Time() int64 { return e.t.time }

// World is one simulated multiprocessor run.
type World struct {
	cost  CostModel
	cache *cachesim.Model
	procs int

	threads []*thread
	cpus    []int64 // busyUntil per CPU
	running *thread
	started bool
	// wake resumes Run when no thread can run or one panicked (panicVal).
	wake     chan struct{}
	panicVal any

	locks []*simLock

	// chooser, if set, picks the next thread in place of the time order;
	// ready is its reused argument.
	chooser Chooser
	ready   []int
}

// A Chooser decides which thread runs at each switch point of a World run
// under SetChooser.
type Chooser interface {
	// Choose returns one of ready, the ids of the ready threads in
	// ascending order (never empty).
	Choose(ready []int) int
}

// SetChooser makes c pick the thread to run at every switch point, and
// makes every env hook a switch point. Virtual time still advances, but it
// no longer orders the schedule. Call it before Run.
func (w *World) SetChooser(c Chooser) {
	if w.started {
		panic("simproc: SetChooser after Run")
	}
	w.chooser = c
}

type randomChooser struct{ rng *rand.Rand }

func (c randomChooser) Choose(ready []int) int { return ready[c.rng.Intn(len(ready))] }

// RandomChooser returns a Chooser that picks uniformly among the ready
// threads, from a generator seeded with seed.
func RandomChooser(seed int64) Chooser {
	return randomChooser{rand.New(rand.NewSource(seed))}
}

// NewWorld creates a simulator with the given number of processors.
func NewWorld(procs int, cost CostModel) *World {
	if procs < 1 {
		panic(fmt.Sprintf("simproc: %d processors", procs))
	}
	if procs > 64 {
		panic("simproc: at most 64 processors (cache model sharer mask)")
	}
	return &World{
		cost:  cost,
		cache: cachesim.New(cost.Cache),
		procs: procs,
		cpus:  make([]int64, procs),
		wake:  make(chan struct{}),
	}
}

// Procs returns the number of virtual processors.
func (w *World) Procs() int { return w.procs }

// Spawn registers a simulated thread on CPU id%P. Must be called before Run
// or from a running simulated thread (dynamic spawn, e.g. Larson's worker
// generations). It returns the new thread's id.
func (w *World) Spawn(fn func(e env.Env)) int {
	return w.SpawnOn(len(w.threads)%w.procs, fn)
}

// SpawnOn registers a simulated thread on a specific CPU.
func (w *World) SpawnOn(cpu int, fn func(e env.Env)) int {
	if cpu < 0 || cpu >= w.procs {
		panic(fmt.Sprintf("simproc: SpawnOn(%d) with %d CPUs", cpu, w.procs))
	}
	t := &thread{
		id:     len(w.threads),
		cpu:    cpu,
		state:  stateReady,
		resume: make(chan struct{}),
		fn:     fn,
		w:      w,
	}
	if w.started {
		parent := w.running
		if parent == nil {
			panic("simproc: Spawn after Run completed")
		}
		t.time = parent.time + w.cost.SpawnCost
		parent.observe(t)
	}
	w.threads = append(w.threads, t)
	go t.main()
	return t.id
}

func (t *thread) main() {
	<-t.resume
	w := t.w
	defer func() {
		if r := recover(); r != nil {
			// Propagate to the Run caller, which re-panics on its own
			// goroutine, where tests can recover.
			w.panicVal = r
			w.wake <- struct{}{}
		}
	}()
	t.fn(&Env{t: t})
	t.state = stateDone
	w.step(t) <- struct{}{}
}

// charge advances the thread's clock and parks the thread once the clock
// reaches another runnable thread's.
func (t *thread) charge(d int64) {
	if d < 0 {
		panic("simproc: negative charge")
	}
	t.time += d
	if t.time >= t.deadline {
		t.state = stateReady
		t.park()
	}
}

// park runs the scheduling step in t's goroutine. t keeps running when the
// step picks it again; otherwise t hands control straight to the next
// thread and blocks until a later step resumes it.
func (t *thread) park() {
	if next := t.w.step(t); next != t.resume {
		next <- struct{}{}
		<-t.resume
	}
}

// step is the scheduler, run by the thread t that stops running (by Run,
// with t nil, to start): it settles t's CPU clock, picks the next thread and
// makes it the running one, from its effective time until its deadline,
// which under a Chooser is every hook. It returns the channel that resumes
// the next thread, or wake when no thread can run.
func (w *World) step(t *thread) chan struct{} {
	if t != nil && t.time > w.cpus[t.cpu] {
		w.cpus[t.cpu] = t.time
	}
	next := w.pick()
	w.running = next
	if next == nil {
		return w.wake
	}
	next.time = w.effTime(next)
	next.deadline = math.MinInt64
	if w.chooser == nil {
		next.deadline = w.nextDeadline(next)
	}
	next.state = stateRunning
	return next.resume
}

// observe lowers the running thread's deadline when another thread becomes
// runnable behind it, so interactions stay time-ordered.
func (t *thread) observe(other *thread) {
	if eff := t.w.effTime(other); eff < t.deadline {
		t.deadline = eff
	}
}

// effTime is the earliest virtual time a ready thread could run at,
// accounting for its CPU's occupancy.
func (w *World) effTime(t *thread) int64 {
	if b := w.cpus[t.cpu]; b > t.time {
		return b
	}
	return t.time
}

// Run executes the simulation to completion and returns the makespan: the
// largest virtual completion time across threads (and thus CPUs). It panics
// if the simulation deadlocks.
func (w *World) Run() int64 {
	if w.started {
		panic("simproc: Run called twice")
	}
	w.started = true
	if next := w.step(nil); next != w.wake {
		next <- struct{}{}
		<-w.wake
	}
	if w.panicVal != nil {
		panic(w.panicVal)
	}
	var blocked int
	var makespan int64
	for _, t := range w.threads {
		switch t.state {
		case stateDone:
			if t.time > makespan {
				makespan = t.time
			}
		default:
			blocked++
		}
	}
	if blocked > 0 {
		panic(fmt.Sprintf("simproc: deadlock — %d thread(s) blocked forever", blocked))
	}
	for _, b := range w.cpus {
		if b > makespan {
			makespan = b
		}
	}
	return makespan
}

// pick returns the thread to run next: the chooser's pick among the ready
// threads, or by default the one with the smallest (effective time, id).
func (w *World) pick() *thread {
	if w.chooser != nil {
		w.ready = w.ready[:0]
		for _, t := range w.threads {
			if t.state == stateReady {
				w.ready = append(w.ready, t.id)
			}
		}
		if len(w.ready) == 0 {
			return nil
		}
		id := w.chooser.Choose(w.ready)
		if id < 0 || id >= len(w.threads) || w.threads[id].state != stateReady {
			panic(fmt.Sprintf("simproc: chooser picked thread %d, not one of %v", id, w.ready))
		}
		return w.threads[id]
	}
	var best *thread
	var bestEff int64 = math.MaxInt64
	for _, t := range w.threads {
		if t.state != stateReady {
			continue
		}
		if eff := w.effTime(t); eff < bestEff {
			best, bestEff = t, eff
		}
	}
	return best
}

// nextDeadline computes how far t may run unsupervised: up to the next
// other runnable thread's effective time (at least one tick past its own
// clock, so zero-cost operations never spin).
func (w *World) nextDeadline(t *thread) int64 {
	var next int64 = math.MaxInt64
	for _, o := range w.threads {
		if o == t || o.state != stateReady {
			continue
		}
		if eff := w.effTime(o); eff < next {
			next = eff
		}
	}
	if next <= t.time {
		next = t.time + 1
	}
	return next
}

// CacheStats returns the coherence counters accumulated so far.
func (w *World) CacheStats() cachesim.Stats { return w.cache.Stats() }

// --- Locks ---

// LockStat describes one lock's contention profile.
type LockStat struct {
	// Name is the factory-supplied lock name.
	Name string
	// Acquires counts successful acquisitions.
	Acquires int64
	// Contended counts acquisitions that had to queue.
	Contended int64
	// WaitTime is the total virtual time threads spent queued.
	WaitTime int64
}

type simLock struct {
	w       *World
	name    string
	holder  *thread
	waiters []*thread
	lastCPU int
	stat    LockStat
}

// NewLock implements env.LockFactory.
func (w *World) NewLock(name string) env.Lock {
	l := &simLock{w: w, name: name, lastCPU: -1}
	w.locks = append(w.locks, l)
	return l
}

func (l *simLock) acquireBy(t *thread) int64 {
	l.holder = t
	d := l.w.cost.LockAcquire
	if l.lastCPU != -1 && l.lastCPU != t.cpu {
		d += l.w.cost.LockMigrate
	}
	l.lastCPU = t.cpu
	l.stat.Acquires++
	return d
}

// Lock implements env.Lock.
func (l *simLock) Lock(e env.Env) {
	t := e.(*Env).t
	if l.holder == t {
		panic(fmt.Sprintf("simproc: recursive lock of %q", l.name))
	}
	if l.holder == nil {
		t.charge(l.acquireBy(t))
		return
	}
	l.stat.Contended++
	l.waiters = append(l.waiters, t)
	enqueued := t.time
	t.state = stateBlockedLock
	t.park()
	// The releaser granted us the lock and advanced our clock.
	l.stat.WaitTime += t.time - enqueued
}

// TryLock implements env.Lock.
func (l *simLock) TryLock(e env.Env) bool {
	t := e.(*Env).t
	if l.holder == nil {
		t.charge(l.acquireBy(t))
		return true
	}
	t.charge(l.w.cost.LockAcquire)
	return false
}

// Unlock implements env.Lock, handing the lock FIFO to the oldest waiter.
func (l *simLock) Unlock(e env.Env) {
	t := e.(*Env).t
	if l.holder != t {
		panic(fmt.Sprintf("simproc: unlock of %q by non-holder", l.name))
	}
	if len(l.waiters) == 0 {
		l.holder = nil
		t.charge(l.w.cost.LockRelease)
		return
	}
	next := l.waiters[0]
	copy(l.waiters, l.waiters[1:])
	l.waiters = l.waiters[:len(l.waiters)-1]
	grant := t.time + l.w.cost.LockRelease + l.w.cost.LockHandoff
	if next.cpu != t.cpu {
		grant += l.w.cost.LockMigrate
	}
	if next.time < grant {
		next.time = grant
	}
	l.holder = next
	l.lastCPU = next.cpu
	l.stat.Acquires++
	next.state = stateReady
	t.observe(next)
	t.charge(l.w.cost.LockRelease)
}

// LockStats returns a snapshot of every lock's contention counters.
func (w *World) LockStats() []LockStat {
	out := make([]LockStat, len(w.locks))
	for i, l := range w.locks {
		out[i] = l.stat
		out[i].Name = l.name
	}
	return out
}

// --- Barriers ---

// Barrier synchronizes a fixed set of simulated threads; all release at the
// virtual time the last participant arrives. It is reusable across rounds.
type Barrier struct {
	w       *World
	parties int
	arrived []*thread
	maxT    int64
}

// NewBarrier creates a barrier for the given number of participants.
func (w *World) NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("simproc: barrier parties < 1")
	}
	return &Barrier{w: w, parties: parties}
}

// Wait blocks the calling simulated thread until all participants arrive.
func (b *Barrier) Wait(e env.Env) {
	t := e.(*Env).t
	if t.time > b.maxT {
		b.maxT = t.time
	}
	b.arrived = append(b.arrived, t)
	if len(b.arrived) < b.parties {
		t.state = stateBlockedBarrier
		t.park()
		return
	}
	release := b.maxT + b.w.cost.BarrierCost
	for _, o := range b.arrived {
		if o == t {
			continue
		}
		if o.time < release {
			o.time = release
		}
		o.state = stateReady
		t.observe(o)
	}
	b.arrived = b.arrived[:0]
	b.maxT = 0
	if t.time < release {
		t.charge(release - t.time)
	}
}
