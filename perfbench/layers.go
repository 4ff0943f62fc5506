package main

import (
	"fmt"
	"time"

	hoard "hoardgo"
	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
)

// layerReps is how many times each layer replay runs; the median is kept.
const layerReps = 9

// traced is the -trace 1 run. For half of seconds it alternates untraced
// and traced repetitions of the workload (the traced ones sample spans
// around the public calls and keep Stats deltas); then it replays the same
// op stream into each layer's own functions, a fixed number of times.
func (r *runner) traced(seconds float64) (result, error) {
	var res result
	var plain, traced []repResult
	start := time.Now()
	for len(traced) < 2 || time.Since(start).Seconds() < seconds/2 {
		for _, on := range []bool{false, true} {
			rr, err := r.rep(benchConfig(false), repMode{traced: on})
			if err != nil {
				return res, fmt.Errorf("%s traced repetition: %w", r.name, err)
			}
			res.Attempted += rr.attempted
			res.Failed += rr.failed
			if on {
				traced = append(traced, rr)
			} else {
				plain = append(plain, rr)
			}
		}
	}
	lockRep, err := r.rep(benchConfig(true), repMode{})
	if err != nil {
		return res, fmt.Errorf("%s lock-metrics repetition: %w", r.name, err)
	}
	res.Attempted += lockRep.attempted
	res.Failed += lockRep.failed

	m := map[string]metric{}
	res.Metrics = m

	// Public-call spans, corrected by the cost of an empty span.
	var mallocNS, freeNS []float64
	for _, sl := range r.spans {
		mallocNS = append(mallocNS, sl.malloc...)
		freeNS = append(freeNS, sl.free...)
	}
	clock := emptySpanNS()
	m["hoard.malloc_ns"] = metric{median(mallocNS) - clock, "ns"}
	m["hoard.free_ns"] = metric{median(freeNS) - clock, "ns"}

	// Counters of the traced repetitions, per thousand timed ops.
	var sum hoard.Stats
	var ratio, foot, relMS, relB, retB []float64
	for _, rr := range traced {
		d := rr.delta
		sum.Mallocs += d.Mallocs
		sum.Frees += d.Frees
		sum.LockFreeMallocs += d.LockFreeMallocs
		sum.LockFreeFrees += d.LockFreeFrees
		sum.RemoteFrees += d.RemoteFrees
		sum.FastPathRetries += d.FastPathRetries
		sum.SuperblockMoves += d.SuperblockMoves
		ratio = append(ratio, rr.footprintRatio())
		foot = append(foot, float64(rr.peakFoot))
		relMS = append(relMS, float64(rr.release.Nanoseconds())/1e6)
		relB = append(relB, float64(rr.released))
		retB = append(retB, float64(rr.retained))
	}
	ops := float64(sum.Mallocs + sum.Frees)
	kops := ops / 1e3
	// LockFreeFrees already counts cross-heap CAS frees, which are also
	// counted in RemoteFastFrees (see README.md), so that is not added.
	m["core.lockfree_share"] = metric{float64(sum.LockFreeMallocs+sum.LockFreeFrees) / ops, "ratio"}
	m["core.fastpath_retries_per_kop"] = metric{float64(sum.FastPathRetries) / kops, "1/kop"}
	m["core.remote_frees_per_kop"] = metric{float64(sum.RemoteFrees) / kops, "1/kop"}
	m["heap.superblock_moves_per_kop"] = metric{float64(sum.SuperblockMoves) / kops, "1/kop"}
	m["vm.peak_committed_bytes"] = metric{median(foot), "B"}
	m["vm.peak_footprint_ratio"] = metric{median(ratio), "ratio"}
	m["scavenge.release_ms"] = metric{median(relMS), "ms"}
	m["scavenge.released_bytes"] = metric{median(relB), "B"}
	m["scavenge.retained_bytes"] = metric{median(retB), "B"}
	q := costQuantile(r.name)
	m["trace.overhead_share"] = metric{1 - loopRate(positionCost(traced, q))/loopRate(positionCost(plain, q)), "ratio"}

	// Lock counters of the Config.Metrics repetition.
	var acq, contended, waitNS, holdNS int64
	for _, ls := range lockRep.locks {
		acq += ls.Acquires
		contended += ls.Contended
		waitNS += ls.WaitNS
		holdNS += ls.HoldNS
	}
	lockOps := float64(lockRep.totalOps)
	m["metrics.lock_acquisitions_per_kop"] = metric{float64(acq) / (lockOps / 1e3), "1/kop"}
	m["metrics.lock_contended_share"] = metric{float64(contended) / float64(max(acq, 1)), "ratio"}
	m["metrics.lock_wait_ns_per_op"] = metric{float64(waitNS) / lockOps, "ns"}
	m["metrics.lock_hold_ns_per_op"] = metric{float64(holdNS) / lockOps, "ns"}

	// The same stream replayed into the public API and into core directly.
	var public, direct []float64
	var cr coreReplay
	for i := 0; i < 2*layerReps; i++ {
		// Alternate which replay goes first, so neither always runs
		// just after the other's arena was unmapped.
		if (i+i/2)%2 == 0 {
			ns, err := r.replayPublic()
			if err != nil {
				return res, err
			}
			public = append(public, ns)
			continue
		}
		var err error
		if cr, err = r.replayCore(); err != nil {
			return res, err
		}
		direct = append(direct, cr.pairNS)
	}
	m["hoard.malloc_free_ns"] = metric{median(public), "ns"}
	m["core.malloc_free_ns"] = metric{median(direct), "ns"}
	m["hoard.self_ns"] = metric{median(public) - median(direct), "ns"}
	m["vm.lookup_ns"] = metric{cr.lookupNS, "ns"}
	m["vm.os_reserves_per_kop"] = metric{cr.perKop(cr.delta.OSReserves), "1/kop"}
	m["heap.global_hits_per_kop"] = metric{cr.perKop(cr.delta.GlobalHeapHits), "1/kop"}
	m["heap.local_reuses_per_kop"] = metric{cr.perKop(cr.delta.LocalReuses), "1/kop"}
	m["heap.moved_live_blocks_per_kop"] = metric{cr.perKop(cr.delta.MovedLiveBlocks), "1/kop"}

	sizes := r.mallocSizes()
	tab := cr.classes
	m["sizeclass.classfor_ns"] = metric{classForNS(tab, sizes), "ns"}
	pp, err := popPushNS(tab, sizes)
	if err != nil {
		return res, err
	}
	m["superblock.pop_push_ns"] = metric{pp, "ns"}
	return res, nil
}

// emptySpanNS is the median cost of recording an empty span: the clock
// overhead inside every sampled public-call span.
func emptySpanNS() float64 {
	xs := make([]float64, 1<<14)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(xs)
}

// mallocFreer is the part of a thread the layer replays call.
type mallocFreer interface {
	Malloc(size int) hoard.Ptr
	Free(p hoard.Ptr)
}

// coreThread calls core.Hoard directly, under the public API.
type coreThread struct {
	h *core.Hoard
	t *alloc.Thread
}

func (c coreThread) Malloc(size int) hoard.Ptr { return c.h.Malloc(c.t, size) }
func (c coreThread) Free(p hoard.Ptr)          { c.h.Free(c.t, p) }

// play replays the generated stream through prod (and, for handoff, frees
// through cons, from the same goroutine, keeping at most
// handoffBatch*handoffBatches blocks in flight). No stamping: this is the
// allocator's time alone. It returns the timed segment's ns per malloc+free
// pair and its op count. It calls atStart when the timed segment starts, and
// atEnd with the live blocks when it ends.
func (r *runner) play(prod, cons mallocFreer, atStart func(), atEnd func(live []hoard.Ptr)) (pairNS float64, ops int64) {
	var live []hoard.Ptr
	var t0 time.Time
	if r.name != "handoff" {
		slots := make([]hoard.Ptr, r.s.slots)
		step := func(o op) {
			if o.size > 0 {
				slots[o.slot] = prod.Malloc(int(o.size))
			} else {
				prod.Free(slots[o.slot])
				slots[o.slot] = 0
			}
		}
		for _, o := range r.s.ops[:r.s.warmEnd] {
			step(o)
		}
		atStart()
		t0 = time.Now()
		for _, o := range r.s.ops[r.s.warmEnd:r.s.timed] {
			step(o)
		}
		pairNS = float64(time.Since(t0).Nanoseconds()) / float64(r.s.timed-r.s.warmEnd) * 2
		ops = int64(r.s.timed - r.s.warmEnd)
		for _, p := range slots {
			if p != 0 {
				live = append(live, p)
			}
		}
		atEnd(live)
		for _, o := range r.s.ops[r.s.timed:] {
			step(o)
		}
		return pairNS, ops
	}
	const inFlight = handoffBatch * handoffBatches
	ring := make([]hoard.Ptr, inFlight)
	var n int
	var frees int64
	for i, size := range r.s.sizes {
		if i == r.s.warmEnd {
			atStart()
			t0, frees = time.Now(), 0
		}
		if n >= inFlight && n%handoffBatch == 0 {
			for j := n - inFlight; j < n-inFlight+handoffBatch; j++ {
				cons.Free(ring[j%inFlight])
			}
			frees += handoffBatch
		}
		ring[n%inFlight] = prod.Malloc(int(size))
		n++
	}
	ops = int64(r.s.timed-r.s.warmEnd) + frees
	pairNS = float64(time.Since(t0).Nanoseconds()) / float64(ops) * 2
	live = ring[:min(n, inFlight)]
	atEnd(live)
	for _, p := range live {
		cons.Free(p)
	}
	return pairNS, ops
}

// replayPublic replays the stream through the public API.
func (r *runner) replayPublic() (ns float64, err error) {
	if err := generate(r.name, r.streamSeed(0), r.sc, &r.s); err != nil {
		return 0, err
	}
	a, err := hoard.New(benchConfig(false))
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := a.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	prod, cons := a.NewThread(), a.NewThread()
	ns, _ = r.play(prod, cons, func() {}, func([]hoard.Ptr) {})
	prod.Close()
	cons.Close()
	if st := a.Stats(); st.LiveBytes != 0 {
		return 0, fmt.Errorf("public replay leaked %d B", st.LiveBytes)
	}
	return ns, nil
}

// coreReplay is one replay of the stream straight into core.Hoard.
type coreReplay struct {
	pairNS   float64
	ops      int64
	delta    alloc.Stats      // core counters over the timed segment
	lookupNS float64          // vm Lookup over the live blocks at the end of it
	classes  *sizeclass.Table // the allocator's size classes
}

func (c coreReplay) perKop(n int64) float64 { return float64(n) / (float64(c.ops) / 1e3) }

// replayCore replays the stream into core.Hoard.Malloc/Free, and times the
// vm backend's Lookup over the blocks live when the timed segment ends.
func (r *runner) replayCore() (cr coreReplay, err error) {
	if err := generate(r.name, r.streamSeed(0), r.sc, &r.s); err != nil {
		return cr, err
	}
	h := core.New(core.Config{Backend: "arena"}, env.RealLockFactory{})
	defer func() {
		if cerr := h.Space().Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	if h.Backend() != "arena" {
		return cr, fmt.Errorf("core fell back to %q: %s", h.Backend(), h.BackendFallbackReason())
	}
	prod := coreThread{h, h.NewThread(&env.RealEnv{ID: 0})}
	cons := coreThread{h, h.NewThread(&env.RealEnv{ID: 1})}
	cr.classes = h.Classes()
	var st0 alloc.Stats
	var misses int
	cr.pairNS, cr.ops = r.play(prod, cons, func() { st0 = h.Stats() }, func(live []hoard.Ptr) {
		st := h.Stats()
		cr.delta = alloc.Stats{
			OSReserves:      st.OSReserves - st0.OSReserves,
			GlobalHeapHits:  st.GlobalHeapHits - st0.GlobalHeapHits,
			LocalReuses:     st.LocalReuses - st0.LocalReuses,
			MovedLiveBlocks: st.MovedLiveBlocks - st0.MovedLiveBlocks,
		}
		cr.lookupNS, misses = lookupNS(h.Space(), live)
	})
	if misses > 0 {
		return cr, fmt.Errorf("vm Lookup missed %d live blocks", misses)
	}
	if st := h.Stats(); st.LiveBytes != 0 {
		return cr, fmt.Errorf("core replay leaked %d B", st.LiveBytes)
	}
	return cr, h.CheckIntegrity()
}

// lookupNS times the backend's pointer-to-span resolution over live,
// cycling through it for a fixed count, and counts lookups that miss.
func lookupNS(space vm.Backend, live []hoard.Ptr) (ns float64, misses int) {
	const n = 1 << 20
	if len(live) == 0 {
		return 0, 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if space.Lookup(uint64(live[i%len(live)])) == nil {
			misses++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / n, misses
}

// mallocSizes is every request size of the timed segment.
func (r *runner) mallocSizes() []int32 {
	if r.name == "handoff" {
		return r.s.sizes[r.s.warmEnd:r.s.timed]
	}
	var sizes []int32
	for _, o := range r.s.ops[r.s.warmEnd:r.s.timed] {
		if o.size > 0 {
			sizes = append(sizes, o.size)
		}
	}
	return sizes
}

// classForNS times the size-class lookup over the stream's sizes.
func classForNS(tab *sizeclass.Table, sizes []int32) float64 {
	var xs []float64
	sink := 0
	for k := 0; k < layerReps; k++ {
		t0 := time.Now()
		for _, s := range sizes {
			c, _ := tab.ClassFor(int(s))
			sink += c
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(len(sizes)))
	}
	if sink < 0 {
		panic("unreachable: class indices are non-negative")
	}
	return median(xs)
}

// popPushNS times a standalone lock-free TryPop+FastFree pair on one
// superblock per size class, over the stream's sizes: the floor under
// core.malloc_free_ns.
func popPushNS(tab *sizeclass.Table, sizes []int32) (ns float64, err error) {
	space, err := vm.NewArena(vm.ArenaOptions{SpanSize: superblock.DefaultSize})
	if err != nil {
		return 0, fmt.Errorf("arena for the superblock replay: %w", err)
	}
	defer func() {
		if cerr := space.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	e := &env.RealEnv{}
	sbs := make([]*superblock.Superblock, tab.NumClasses())
	classes := make([]int32, len(sizes))
	for i, s := range sizes {
		c, _ := tab.ClassFor(int(s))
		classes[i] = int32(c)
		if sbs[c] == nil {
			sb := superblock.New(space, superblock.DefaultSize, c, tab.Size(c))
			sb.Unseal()
			// Blocks are carved lazily; carve one and push it onto the
			// lock-free list so every timed pop finds it.
			p, ok := sb.AllocBlock(e)
			if !ok {
				return 0, fmt.Errorf("superblock of class %d: carve failed", c)
			}
			if ok, _, _ := sb.FastFree(e, p); !ok {
				return 0, fmt.Errorf("superblock of class %d: push failed", c)
			}
			sbs[c] = sb
		}
	}
	var xs []float64
	for k := 0; k < layerReps; k++ {
		t0 := time.Now()
		for _, c := range classes {
			sb := sbs[c]
			p, ok, _ := sb.SelfRef().TryPop(e)
			if !ok {
				return 0, fmt.Errorf("superblock of class %d: pop failed", c)
			}
			if ok, _, _ := sb.FastFree(e, p); !ok {
				return 0, fmt.Errorf("superblock of class %d: push failed", c)
			}
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(len(classes)))
	}
	return median(xs), nil
}
