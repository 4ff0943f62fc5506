package workload_test

import (
	"maps"
	"testing"

	"hoardgo/internal/simproc"
	"hoardgo/internal/workload"
)

// lockedGolden is one simulator run of a locked-heap baseline: virtual
// time, peak committed bytes, cache-line transfers between CPUs, and the
// acquisitions of each lock that was taken, by lock name.
type lockedGolden struct {
	elapsedNS, peakCommitted, remoteTransfers int64
	acquires                                  map[string]int64
}

// lockedGoldens holds the figures the serial, concurrent and ownership
// baselines produced as three separate packages, before they became three
// heap-choice rules over one allocator.
var lockedGoldens = map[string]lockedGolden{
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

// TestLockedHeapGolden runs threadtest and larson at a small fixed size on
// four simulated processors over each locked-heap baseline. The simulator
// is deterministic, so every figure must match exactly: a changed charge,
// touch or lock call shows up as a changed number. Larson's ownership run
// contends, so arena stealing is covered too (arena4 is only ever stolen).
func TestLockedHeapGolden(t *testing.T) {
	const procs = 4
	runs := map[string]func(h *workload.Harness) workload.Result{
		"threadtest": func(h *workload.Harness) workload.Result {
			return workload.Threadtest(h, workload.ThreadtestConfig{Threads: procs, Iterations: 2, Objects: 2000, ObjSize: 8})
		},
		"larson": func(h *workload.Harness) workload.Result {
			return workload.Larson(h, workload.LarsonConfig{Threads: procs, Rounds: 3, OpsPerRound: 400,
				SlotsPerWindow: 100, MinSize: 10, MaxSize: 500, Seed: 1})
		},
	}
	for bench, run := range runs {
		for _, name := range []string{"serial", "concurrent", "ownership"} {
			t.Run(bench+"/"+name, func(t *testing.T) {
				want := lockedGoldens[bench+"/"+name]
				res := run(workload.NewSim(name, procs, simproc.DefaultCosts))
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
}
