package workload_test

import (
	"fmt"
	"maps"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/allocators"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/simproc"
	"hoardgo/internal/workload"
)

// hoardGolden is one simulator run of Hoard: virtual time, peak committed
// bytes, cache-line transfers between CPUs, the allocator's counters, and
// the acquisitions of each lock that was taken, by lock name.
type hoardGolden struct {
	elapsedNS, peakCommitted, remoteTransfers int64
	stats                                     string
	acquires                                  map[string]int64
}

// goldenStats is the part of an allocator's counters a golden run pins.
func goldenStats(st alloc.Stats) string {
	return fmt.Sprintf("m=%d f=%d live=%d peak=%d large=%d moves=%d global=%d os=%d remote=%d moved=%d refills=%d flushes=%d batched=%d hitm=%d hitf=%d reuse=%d",
		st.Mallocs, st.Frees, st.LiveBytes, st.PeakLiveBytes, st.LargeMallocs, st.SuperblockMoves,
		st.GlobalHeapHits, st.OSReserves, st.RemoteFrees, st.MovedLiveBlocks, st.BatchRefills,
		st.BatchFlushes, st.BatchedBlocks, st.LockFreeMallocs, st.LockFreeFrees, st.LocalReuses)
}

// hoardGoldens holds the figures the bare Hoard core ("hoard", the
// registry's) and Hoard under its default owner-aware magazines
// ("hoard+tcache") produced while the magazines were a separate layer over
// the core, before they moved into it.
var hoardGoldens = map[string]hoardGolden{
	"larson/hoard":               {4530171, 434176, 11040, "m=4800 f=4800 live=0 peak=119512 large=0 moves=2363 global=2314 os=53 remote=3124 moved=17943 refills=0 flushes=0 batched=0 hitm=0 hitf=0 reuse=0", map[string]int64{"hoard.heap0": 7036, "hoard.heap1": 1853, "hoard.heap2": 1822, "hoard.heap3": 1862, "hoard.heap4": 1842}},
	"larson/hoard+tcache":        {1319552, 786432, 2262, "m=4800 f=4800 live=0 peak=398272 large=0 moves=129 global=53 os=96 remote=1831 moved=2265 refills=98 flushes=29 batched=4977 hitm=4702 hitf=4771 reuse=0", map[string]int64{"hoard.heap0": 304, "hoard.heap1": 43, "hoard.heap2": 39, "hoard.heap3": 41, "hoard.heap4": 40}},
	"passive-false/hoard":        {178069, 32768, 114, "m=528 f=528 live=0 peak=1024 large=0 moves=0 global=0 os=4 remote=96 moved=0 refills=0 flushes=0 batched=0 hitm=0 hitf=0 reuse=0", map[string]int64{"hoard.heap0": 4, "hoard.heap1": 456, "hoard.heap2": 200, "hoard.heap3": 200, "hoard.heap4": 200}},
	"passive-false/hoard+tcache": {73817, 32768, 0, "m=528 f=528 live=0 peak=1792 large=0 moves=0 global=0 os=4 remote=0 moved=0 refills=7 flushes=0 batched=224 hitm=521 hitf=528 reuse=0", map[string]int64{"hoard.heap0": 4, "hoard.heap1": 4, "hoard.heap2": 1, "hoard.heap3": 1, "hoard.heap4": 1}},
	"threadtest/hoard":           {344426, 32768, 0, "m=4000 f=4000 live=0 peak=15856 large=0 moves=0 global=0 os=4 remote=0 moved=0 refills=0 flushes=0 batched=0 hitm=0 hitf=0 reuse=0", map[string]int64{"hoard.heap0": 4, "hoard.heap1": 2000, "hoard.heap2": 2000, "hoard.heap3": 2000, "hoard.heap4": 2000}},
	"threadtest/hoard+tcache":    {316782, 32768, 0, "m=4000 f=4000 live=0 peak=16960 large=0 moves=0 global=0 os=4 remote=0 moved=0 refills=124 flushes=116 batched=7796 hitm=3876 hitf=3884 reuse=0", map[string]int64{"hoard.heap0": 4, "hoard.heap1": 60, "hoard.heap2": 60, "hoard.heap3": 60, "hoard.heap4": 60}},
}

// hoardVariants are the two Hoard allocators the golden runs cover.
var hoardVariants = map[string]allocators.Maker{
	"hoard": nil,
	"hoard+tcache": func(procs int, lf env.LockFactory) alloc.Allocator {
		return core.New(core.Config{Heaps: 2 * procs, Magazines: core.DefaultCapacity}, lf)
	},
}

// TestHoardGolden runs threadtest, larson and passive-false at a small
// fixed size on four simulated processors over the bare Hoard core and over
// Hoard with its magazines. The simulator is deterministic, so every figure
// must match exactly: a changed charge, touch, lock call or counter shows
// up as a changed number.
func TestHoardGolden(t *testing.T) {
	const procs = 4
	runs := map[string]func(h *workload.Harness) workload.Result{
		"threadtest": func(h *workload.Harness) workload.Result {
			return workload.Threadtest(h, workload.ThreadtestConfig{Threads: procs, Iterations: 2, Objects: 2000, ObjSize: 8})
		},
		"larson": func(h *workload.Harness) workload.Result {
			return workload.Larson(h, workload.LarsonConfig{Threads: procs, Rounds: 3, OpsPerRound: 400,
				SlotsPerWindow: 100, MinSize: 10, MaxSize: 500, Seed: 1})
		},
		"passive-false": func(h *workload.Harness) workload.Result {
			return workload.PassiveFalse(h, workload.FalseShareConfig{Threads: procs, Iterations: 400,
				ObjSize: 8, Writes: 20, SeedObjects: 32})
		},
	}
	for bench, run := range runs {
		for name, mk := range hoardVariants {
			t.Run(bench+"/"+name, func(t *testing.T) {
				want := hoardGoldens[bench+"/"+name]
				res := run(workload.NewSimMaker("hoard", procs, simproc.DefaultCosts, mk))
				acquires := map[string]int64{}
				for _, l := range res.Locks {
					if l.Acquires != 0 {
						acquires[l.Name] = l.Acquires
					}
				}
				got := hoardGolden{res.ElapsedNS, res.VM.PeakCommitted, res.Cache.RemoteTransfers, goldenStats(res.Alloc), acquires}
				if got.elapsedNS != want.elapsedNS {
					t.Errorf("ElapsedNS %d, want %d", got.elapsedNS, want.elapsedNS)
				}
				if got.peakCommitted != want.peakCommitted {
					t.Errorf("PeakCommitted %d, want %d", got.peakCommitted, want.peakCommitted)
				}
				if got.remoteTransfers != want.remoteTransfers {
					t.Errorf("RemoteTransfers %d, want %d", got.remoteTransfers, want.remoteTransfers)
				}
				if got.stats != want.stats {
					t.Errorf("stats\n%s, want\n%s", got.stats, want.stats)
				}
				if !maps.Equal(got.acquires, want.acquires) {
					t.Errorf("lock acquisitions %v, want %v", got.acquires, want.acquires)
				}
			})
		}
	}
}
