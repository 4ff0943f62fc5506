package experiments

import (
	"fmt"

	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/workload"
)

// The footprint experiments measure what the paper's evaluation does not:
// the committed-memory trajectory of Hoard under the blowup workloads when
// empty superblocks parked on the global heap are (a) retained forever (the
// paper's policy) or (b) released by ReleaseMemory after every round.

// footprintEntry is one workload x mode measurement.
type footprintEntry struct {
	// Workload is "prodcons" or "phaseshift"; Mode is "off" (retain
	// everything) or "forced" (release all empties every round).
	Workload string
	Mode     string
	// Rounds is the run's length.
	Rounds int
	// PeakCommitted is the run's high-water committed bytes.
	PeakCommitted int64
	// SteadyCommitted is the mean committed bytes over the last quarter of
	// rounds — the resting footprint the mode converges to.
	SteadyCommitted int64
	// FinalCommitted, FinalReserved and FinalDecommitted are the
	// accounting at the end of the run (reserved - committed =
	// decommitted).
	FinalCommitted   int64
	FinalReserved    int64
	FinalDecommitted int64
	// ScavengePasses and ScavengedBytes count the release activity.
	ScavengePasses int64
	ScavengedBytes int64
	// ElapsedNS is the run's virtual time — the throughput guard: release
	// must not slow the workload measurably.
	ElapsedNS int64
}

// footprintModes lists the release policies the experiment compares.
func footprintModes() []string { return []string{"off", "forced"} }

// releaseHook is the workloads' AfterRound hook for mode: nil for "off",
// and a ReleaseMemory of h for "forced".
func releaseHook(mode string, h *core.Hoard) func(env.Env, int) {
	if mode != "forced" {
		return nil
	}
	return func(e env.Env, _ int) { h.ReleaseMemory(e) }
}

// steadyMean averages the last quarter of a committed-bytes series.
func steadyMean(series []int64) int64 {
	if len(series) == 0 {
		return 0
	}
	tail := series[len(series)-(len(series)+3)/4:]
	var sum int64
	for _, v := range tail {
		sum += v
	}
	return sum / int64(len(tail))
}

// runFootprint executes one workload under one release mode.
func runFootprint(opts Options, workloadName, mode string) footprintEntry {
	var hh *core.Hoard
	mk := func(procs int, lf env.LockFactory) alloc.Allocator {
		hh = core.New(core.Config{Heaps: 2 * procs}, lf)
		return hh
	}

	var procs int
	var series []int64
	var res workload.Result
	switch workloadName {
	case "prodcons":
		procs = 4
		cfg := workload.DefaultProdCons(procs)
		if opts.Scale == Quick {
			cfg.Rounds, cfg.Batch = 20, 400
		}
		h := workload.NewSimMaker("hoard", procs, opts.Cost, mk)
		cfg.AfterRound = releaseHook(mode, hh)
		res, series = workload.ProdCons(h, cfg)
	case "phaseshift":
		procs = 8
		cfg := workload.DefaultPhaseShift(procs)
		h := workload.NewSimMaker("hoard", procs, opts.Cost, mk)
		cfg.AfterRound = releaseHook(mode, hh)
		res, series = workload.PhaseShift(h, cfg)
	default:
		panic(fmt.Sprintf("experiments: unknown footprint workload %q", workloadName))
	}

	return footprintEntry{
		Workload:         workloadName,
		Mode:             mode,
		Rounds:           len(series),
		PeakCommitted:    res.VM.PeakCommitted,
		SteadyCommitted:  steadyMean(series),
		FinalCommitted:   series[len(series)-1],
		FinalReserved:    res.VM.Reserved,
		FinalDecommitted: res.VM.DecommittedBytes,
		ScavengePasses:   res.Alloc.ScavengePasses,
		ScavengedBytes:   res.Alloc.ScavengedBytes,
		ElapsedNS:        res.ElapsedNS,
	}
}

// footprintResults runs the full workload x mode grid.
func footprintResults(opts Options, progress func(string, int)) []footprintEntry {
	var out []footprintEntry
	for _, wl := range []string{"prodcons", "phaseshift"} {
		for _, mode := range footprintModes() {
			if progress != nil {
				procs := 4
				if wl == "phaseshift" {
					procs = 8
				}
				progress(fmt.Sprintf("hoard/%s(%s)", wl, mode), procs)
			}
			out = append(out, runFootprint(opts, wl, mode))
		}
	}
	return out
}

// Footprint renders the release-policy footprint comparison as a table.
func Footprint(opts Options, progress func(string, int)) Table {
	t := Table{
		ID: "footprint", Title: "A10",
		Paper:  "page-level reclamation: steady-state committed memory by release policy",
		Header: []string{"workload", "mode", "peak heap", "steady heap", "final heap", "decommitted", "scavenges", "virtual ms"},
	}
	for _, e := range footprintResults(opts, progress) {
		t.Rows = append(t.Rows, []string{
			e.Workload,
			e.Mode,
			fmtBytes(e.PeakCommitted),
			fmtBytes(e.SteadyCommitted),
			fmtBytes(e.FinalCommitted),
			fmtBytes(e.FinalDecommitted),
			fmt.Sprintf("%d", e.ScavengePasses),
			fmt.Sprintf("%.2f", float64(e.ElapsedNS)/1e6),
		})
	}
	return t
}
