package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/vm"
	"hoardgo/internal/workload"
)

// This file is the A12 experiment: the real-memory arena backend
// (DESIGN.md §12). Unlike the simulator experiments it measures wall-clock
// time and real physical memory: (a) the free path's pointer→superblock
// resolution cost, address arithmetic versus the simulated space's
// two-level page table, at a span population large enough that the index
// does not hide in cache; (b) malloc/free throughput on real memory across
// a thread sweep, sim versus arena; (c) the RSS-over-time trajectory of a
// churn workload with and without ReleaseMemory, with /proc/self/statm as
// ground truth that madvise(MADV_DONTNEED) actually returns pages.
// `hoardbench -exp arena` renders all three as the A12 table.

// arenaSpanSize is the superblock size the experiment reserves through both
// backends.
const arenaSpanSize = 8192

// resolveEntry is one backend's resolution measurement.
type resolveEntry struct {
	Backend string
	// Spans is the live span population the index holds.
	Spans int
	// NSPerLookup is wall nanoseconds per resolution.
	NSPerLookup float64
}

// resolveResult compares pointer→span resolution cost across backends.
type resolveResult struct {
	Entries []resolveEntry
	// Speedup is sim ns/lookup over arena ns/lookup, at a cache-hostile
	// population.
	Speedup float64
}

// resolveSpans sizes the span population: large enough that the sim page
// table's entry arrays and Span headers fall out of L2, so its two
// dependent loads pay real latency against the arena's single slot load.
func resolveSpans(scale Scale) int {
	if scale == Full {
		return 1 << 17 // 1 GiB of 8 KiB spans
	}
	return 1 << 16
}

// measureResolveBackend reserves spans superblocks and times random interior
// resolutions through the Backend interface (the same indirection the free
// path pays).
func measureResolveBackend(be vm.Backend, spans int, lookups int64) resolveEntry {
	sps := make([]*vm.Span, spans)
	bases := make([]uint64, spans)
	for i := range sps {
		sps[i] = be.Reserve(arenaSpanSize, arenaSpanSize, nil)
		bases[i] = sps[i].Base
	}
	// Precomputed random interior addresses: the timed loop streams through
	// this array (prefetchable) while the lookups themselves are random
	// (not). xorshift64 keeps generation deterministic and cheap.
	const addrBuf = 1 << 20
	addrs := make([]uint64, addrBuf)
	state := uint64(0x9E3779B97F4A7C15)
	for i := range addrs {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		addrs[i] = bases[state&uint64(spans-1)] + (state>>40)%arenaSpanSize
	}
	var hits int64
	start := time.Now()
	for i := int64(0); i < lookups; i++ {
		if be.Lookup(addrs[i&(addrBuf-1)]) != nil {
			hits++
		}
	}
	elapsed := time.Since(start)
	if hits != lookups {
		panic(fmt.Sprintf("arena experiment: %d of %d lookups missed on %s", lookups-hits, lookups, be.Name()))
	}
	for _, sp := range sps {
		be.Release(sp)
	}
	return resolveEntry{
		Backend:     be.Name(),
		Spans:       spans,
		NSPerLookup: float64(elapsed.Nanoseconds()) / float64(lookups),
	}
}

// measureResolve times pointer→span resolution on both backends. It errors
// where the arena backend is unavailable.
func measureResolve(scale Scale) (resolveResult, error) {
	spans := resolveSpans(scale)
	lookups := int64(1 << 23)
	if scale == Full {
		lookups = 1 << 24
	}
	arena, err := vm.NewArena(vm.ArenaOptions{
		SpanSize:         arenaSpanSize,
		SlotRegionBytes:  int64(spans)*arenaSpanSize + (64 << 20),
		LargeRegionBytes: 16 << 20,
	})
	if err != nil {
		return resolveResult{}, fmt.Errorf("arena backend unavailable: %w", err)
	}
	defer arena.Close()

	var res resolveResult
	sim := measureResolveBackend(vm.New(), spans, lookups)
	ar := measureResolveBackend(arena, spans, lookups)
	res.Entries = []resolveEntry{sim, ar}
	if ar.NSPerLookup > 0 {
		res.Speedup = sim.NSPerLookup / ar.NSPerLookup
	}
	return res, nil
}

// arenaThroughputEntry is one (backend x procs) cell of the wall-clock
// malloc/free sweep.
type arenaThroughputEntry struct {
	Backend string
	Procs   int
	Ops     int64
	// OpsPerMS is the wall-clock throughput.
	OpsPerMS float64
}

// arenaProcs sweeps powers of two up to NumCPU, always including NumCPU.
func arenaProcs() []int {
	n := runtime.NumCPU()
	var out []int
	for p := 1; p < n; p *= 2 {
		out = append(out, p)
	}
	return append(out, n)
}

// measureArenaThroughput runs Larson (remote-heavy malloc/free on real
// goroutines, every object written) on both backends across the thread
// sweep. Wall-clock numbers are machine-dependent; the table records them
// per backend so the sim-vs-arena ratio is still meaningful.
func measureArenaThroughput(scale Scale) ([]arenaThroughputEntry, error) {
	var out []arenaThroughputEntry
	for _, backend := range []string{"sim", "arena"} {
		for _, procs := range arenaProcs() {
			var hh *core.Hoard
			mk := func(p int, lf env.LockFactory) alloc.Allocator {
				hh = core.New(core.Config{Heaps: 2 * p, Backend: backend}, lf)
				return hh
			}
			h := workload.NewRealMaker("hoard", procs, mk)
			cfg := workload.DefaultLarson(procs)
			if scale == Quick {
				cfg.Rounds, cfg.OpsPerRound, cfg.SlotsPerWindow = 3, 3000, 500
			}
			res := workload.Larson(h, cfg)
			if backend == "arena" && hh.Backend() != "arena" {
				return nil, fmt.Errorf("arena backend unavailable: %s", hh.BackendFallbackReason())
			}
			if err := hh.CheckIntegrity(); err != nil {
				return nil, fmt.Errorf("arena throughput: integrity on %s/P=%d: %w", backend, procs, err)
			}
			hh.Space().Close()
			e := arenaThroughputEntry{
				Backend: backend,
				Procs:   procs,
				Ops:     res.Ops,
			}
			if res.ElapsedNS > 0 {
				e.OpsPerMS = float64(res.Ops) / (float64(res.ElapsedNS) / 1e6)
			}
			out = append(out, e)
		}
	}
	return out, nil
}

// arenaRSSEntry is one release mode's RSS trajectory on the arena backend.
type arenaRSSEntry struct {
	// Mode is "off" (retain) or "forced" (release every round).
	Mode string
	// PeakDelta is the highest RSS growth over the arm's baseline, read
	// with the working set live; FinalDelta the growth after the last
	// round's frees and release policy ran.
	PeakDelta  int64
	FinalDelta int64
	// ScavengePasses and ScavengedBytes count the release activity;
	// DecommittedBytes is the allocator's own accounting at the end, to
	// cross-check against the OS-observed drop.
	ScavengePasses   int64
	ScavengedBytes   int64
	DecommittedBytes int64
}

// arenaRSSShape sizes the churn: workers each allocate blocks of ~1 KiB,
// write every byte (faulting the pages), then free everything, parking
// thousands of empty superblocks on the global heap.
func arenaRSSShape(scale Scale) (workers, blocks, rounds int) {
	if scale == Full {
		return 4, 16384, 12
	}
	return 4, 4096, 6
}

// measureArenaRSS drives the churn workload on the arena under each release
// policy and records the real RSS trajectory. Requires the arena backend
// and /proc/self/statm.
func measureArenaRSS(scale Scale) ([]arenaRSSEntry, error) {
	if _, err := vm.ReadRSS(); err != nil {
		return nil, fmt.Errorf("no RSS source: %w", err)
	}
	workers, blocks, rounds := arenaRSSShape(scale)
	var out []arenaRSSEntry
	for _, mode := range footprintModes() {
		e, err := runArenaRSS(mode, workers, blocks, rounds)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

const arenaBlockSize = 1024

// runArenaRSS is one mode's run. Each round every worker allocates its
// blocks, writes them, and frees them all; then the release policy runs and
// the process RSS is sampled.
func runArenaRSS(mode string, workers, blocks, rounds int) (arenaRSSEntry, error) {
	// FreeOSMemory, not a bare GC: it returns the Go heap's free pages
	// to the OS before the baseline read, so the runtime's background
	// scavenger cannot shrink RSS during the arm and drive the deltas
	// below zero.
	debug.FreeOSMemory()
	baseline, err := vm.ReadRSS()
	if err != nil {
		return arenaRSSEntry{}, err
	}
	h := core.New(core.Config{Heaps: 2 * workers, Backend: "arena"}, env.RealLockFactory{})
	if h.Backend() != "arena" {
		return arenaRSSEntry{}, fmt.Errorf("arena backend unavailable: %s", h.BackendFallbackReason())
	}
	defer h.Space().Close()

	ths := make([]*alloc.Thread, workers)
	envs := make([]*env.RealEnv, workers)
	for i := range ths {
		envs[i] = &env.RealEnv{ID: i}
		ths[i] = h.NewThread(envs[i])
	}

	entry := arenaRSSEntry{Mode: mode}
	ptrs := make([][]alloc.Ptr, workers)
	for i := range ptrs {
		ptrs[i] = make([]alloc.Ptr, blocks)
	}
	parallel := func(fn func(w int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fn(w)
			}(w)
		}
		wg.Wait()
	}
	for r := 0; r < rounds; r++ {
		parallel(func(w int) {
			th, myPtrs := ths[w], ptrs[w]
			for i := range myPtrs {
				p := h.Malloc(th, arenaBlockSize)
				buf := h.Bytes(p, arenaBlockSize)
				for j := range buf {
					buf[j] = byte(i)
				}
				myPtrs[i] = p
			}
		})
		// Peak: the whole working set is live and written.
		if rss, err := vm.ReadRSS(); err == nil {
			entry.PeakDelta = max(entry.PeakDelta, rss-baseline)
		}
		parallel(func(w int) {
			th, myPtrs := ths[w], ptrs[w]
			for i := range myPtrs {
				h.Free(th, myPtrs[i])
			}
		})
		if mode == "forced" {
			h.ReleaseMemory(&env.RealEnv{ID: -1})
		}
		// Trough: everything freed and the release policy has run.
		rss, err := vm.ReadRSS()
		if err != nil {
			return arenaRSSEntry{}, err
		}
		entry.FinalDelta = rss - baseline
	}
	st := h.Stats()
	entry.ScavengePasses = st.ScavengePasses
	entry.ScavengedBytes = st.ScavengedBytes
	entry.DecommittedBytes = h.Space().Stats().DecommittedBytes
	if err := h.CheckIntegrity(); err != nil {
		return arenaRSSEntry{}, fmt.Errorf("arena rss: integrity under %s: %w", mode, err)
	}
	return entry, nil
}

// Arena renders A12 as a table: resolution cost, the throughput sweep, and
// the RSS trajectory. Where the arena backend is unavailable the table says
// so instead of failing, keeping the experiment catalog runnable everywhere.
func Arena(opts Options, progress func(string, int)) Table {
	t := Table{
		ID: "arena", Title: "A12",
		Paper:  "real-memory arena backend: resolution cost, wall-clock throughput, RSS under release policies",
		Header: []string{"section", "key", "metric", "value"},
	}
	if progress != nil {
		progress("hoard/arena(resolve)", 1)
	}
	res, err := measureResolve(opts.Scale)
	if err != nil {
		t.Rows = append(t.Rows, []string{"resolve", "-", "skipped", err.Error()})
		return t
	}
	for _, e := range res.Entries {
		t.Rows = append(t.Rows, []string{
			"resolve", e.Backend, "ns/lookup", fmt.Sprintf("%.2f (%d spans)", e.NSPerLookup, e.Spans),
		})
	}
	t.Rows = append(t.Rows, []string{"resolve", "sim/arena", "speedup", fmt.Sprintf("%.2fx", res.Speedup)})

	if progress != nil {
		progress("hoard/arena(throughput)", runtime.NumCPU())
	}
	tps, err := measureArenaThroughput(opts.Scale)
	if err != nil {
		t.Rows = append(t.Rows, []string{"throughput", "-", "skipped", err.Error()})
	}
	for _, e := range tps {
		t.Rows = append(t.Rows, []string{
			"throughput", fmt.Sprintf("%s/P=%d", e.Backend, e.Procs),
			"ops/ms", fmt.Sprintf("%.0f", e.OpsPerMS),
		})
	}

	if progress != nil {
		progress("hoard/arena(rss)", 4)
	}
	rss, err := measureArenaRSS(opts.Scale)
	if err != nil {
		t.Rows = append(t.Rows, []string{"rss", "-", "skipped", err.Error()})
	}
	for _, e := range rss {
		t.Rows = append(t.Rows, []string{
			"rss", e.Mode, "peak/final delta",
			fmt.Sprintf("%s / %s (%d scavenges)", fmtBytes(e.PeakDelta), fmtBytes(e.FinalDelta), e.ScavengePasses),
		})
	}
	return t
}
