package workload_test

import (
	"maps"
	"strings"
	"testing"

	"hoardgo/internal/simproc"
	"hoardgo/internal/workload"
)

// baselineGolden is one simulator run of a paper baseline: virtual time,
// peak committed bytes, cache-line transfers between CPUs, and the
// acquisitions of each lock that was taken, by lock name.
type baselineGolden struct {
	elapsedNS, peakCommitted, remoteTransfers int64
	acquires                                  map[string]int64
}

// lockedGoldens holds the figures the serial, concurrent and ownership
// baselines produced as three separate packages, before they became three
// heap-choice rules over one allocator.
var lockedGoldens = map[string]baselineGolden{
	"larson/serial": {4764425, 253952, 19722, map[string]int64{"serial.heap": 9600}},
	"larson/concurrent": {2814250, 253952, 19306, map[string]int64{
		"concurrent.class1": 118, "concurrent.class2": 160, "concurrent.class3": 156,
		"concurrent.class4": 158, "concurrent.class5": 148, "concurrent.class6": 314,
		"concurrent.class7": 298, "concurrent.class8": 276, "concurrent.class9": 454,
		"concurrent.class10": 438, "concurrent.class11": 604, "concurrent.class12": 866,
		"concurrent.class13": 920, "concurrent.class14": 1130, "concurrent.class15": 1286,
		"concurrent.class16": 1534, "concurrent.class17": 740}},
	"larson/ownership": {1451579, 712704, 4231, map[string]int64{
		"ownership.arena0": 2278, "ownership.arena1": 2350, "ownership.arena2": 2404,
		"ownership.arena3": 2382, "ownership.arena4": 186}},
	"threadtest/serial":     {4504570, 16384, 9696, map[string]int64{"serial.heap": 8000}},
	"threadtest/concurrent": {4504570, 16384, 9696, map[string]int64{"concurrent.class0": 8000}},
	"threadtest/ownership": {385946, 32768, 0, map[string]int64{
		"ownership.arena0": 2000, "ownership.arena1": 2000, "ownership.arena2": 2000,
		"ownership.arena3": 2000}},
}

// goldenProcs is the simulated processor count of every golden run.
const goldenProcs = 4

// goldenRuns are the small fixed-size workloads the baseline goldens pin,
// by name. Larson contends, so ownership's arena stealing is covered;
// prodcons frees every block on a thread that did not allocate it, which
// strands memory under pure private heaps and spills under thresholds.
var goldenRuns = map[string]func(h *workload.Harness) workload.Result{
	"threadtest": func(h *workload.Harness) workload.Result {
		return workload.Threadtest(h, workload.ThreadtestConfig{Threads: goldenProcs, Iterations: 2, Objects: 2000, ObjSize: 8})
	},
	"larson": func(h *workload.Harness) workload.Result {
		return workload.Larson(h, workload.LarsonConfig{Threads: goldenProcs, Rounds: 3, OpsPerRound: 400,
			SlotsPerWindow: 100, MinSize: 10, MaxSize: 500, Seed: 1})
	},
	"prodcons": func(h *workload.Harness) workload.Result {
		res, _ := workload.ProdCons(h, workload.ProdConsConfig{Threads: goldenProcs, Rounds: 5, Batch: 300, ObjSize: 64})
		return res
	},
}

// runBaselineGoldens runs each golden's workload, named "run/allocator",
// on goldenProcs simulated processors over the registry's allocator. The
// simulator is deterministic, so every figure must match exactly: a
// changed charge, touch or lock call shows up as a changed number.
func runBaselineGoldens(t *testing.T, goldens map[string]baselineGolden) {
	for key, want := range goldens {
		bench, name, _ := strings.Cut(key, "/")
		t.Run(key, func(t *testing.T) {
			res := goldenRuns[bench](workload.NewSim(name, goldenProcs, simproc.DefaultCosts))
			if res.ElapsedNS != want.elapsedNS {
				t.Errorf("ElapsedNS %d, want %d", res.ElapsedNS, want.elapsedNS)
			}
			if res.VM.PeakCommitted != want.peakCommitted {
				t.Errorf("PeakCommitted %d, want %d", res.VM.PeakCommitted, want.peakCommitted)
			}
			if res.Cache.RemoteTransfers != want.remoteTransfers {
				t.Errorf("RemoteTransfers %d, want %d", res.Cache.RemoteTransfers, want.remoteTransfers)
			}
			acquires := map[string]int64{}
			for _, l := range res.Locks {
				if l.Acquires != 0 {
					acquires[l.Name] = l.Acquires
				}
			}
			if !maps.Equal(acquires, want.acquires) {
				t.Errorf("lock acquisitions %v, want %v", acquires, want.acquires)
			}
		})
	}
}

// TestLockedHeapGolden pins threadtest and larson over each locked-heap
// baseline.
func TestLockedHeapGolden(t *testing.T) { runBaselineGoldens(t, lockedGoldens) }
