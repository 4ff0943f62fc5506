package experiments

import (
	"fmt"
	"math"
	"sync/atomic"

	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/scavenge"
	"hoardgo/internal/workload"
)

// The footprint experiments measure what the paper's evaluation does not:
// the committed-memory trajectory of Hoard under the blowup workloads when
// empty superblocks parked on the global heap are (a) retained forever (the
// paper's policy), (b) trimmed by the paced scavenger, or (c) forcibly
// decommitted after every round. The runs share one virtual clock — each
// workload round advances it by footprintRoundNS — so the scavenger's
// cold-age and token-bucket behavior is deterministic.

// footprintRoundNS is one workload round in virtual nanoseconds.
const footprintRoundNS = int64(1e6)

// footprintS is the superblock size the thresholds are tuned for.
const footprintS = int64(8192)

// footprintEntry is one workload x mode measurement.
type footprintEntry struct {
	// Workload is "prodcons" or "phaseshift"; Mode is "off" (retain
	// everything), "scavenge" (paced background policy), or "forced"
	// (decommit all empties every round).
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
	// ScavengePasses and ScavengedBytes count the scavenge activity.
	ScavengePasses int64
	ScavengedBytes int64
	// ElapsedNS is the run's virtual time — the throughput guard: the
	// scavenger must not slow the workload measurably.
	ElapsedNS int64
}

// footprintModes lists the release policies the experiment compares.
func footprintModes() []string { return []string{"off", "scavenge", "forced"} }

// footprintPolicy drives one release policy from a workload's AfterRound
// hook, in virtual time.
type footprintPolicy struct {
	mode  string
	hoard *core.Hoard
	vnow  *atomic.Int64
	pacer *scavenge.Pacer
}

func newFootprintPolicy(mode string, h *core.Hoard) *footprintPolicy {
	p := &footprintPolicy{mode: mode, hoard: h, vnow: new(atomic.Int64)}
	h.SetClock(p.vnow.Load)
	if mode == "scavenge" {
		// Watermarks sized to the workloads' few-superblock surpluses:
		// engage above two empty superblocks, keep one as warm reserve.
		p.pacer = scavenge.NewPacer(scavenge.Config{
			HighWaterBytes: 2 * footprintS,
			LowWaterBytes:  footprintS,
			BytesPerSec:    64 << 20, // 64 KiB per virtual millisecond-round
			BurstBytes:     8 * footprintS,
		})
	}
	return p
}

// afterRound advances the virtual clock past round r and applies the policy.
// Superblocks parked during round r carry stamp r*footprintRoundNS, so a
// cold age of one round makes this round's parkings eligible while the token
// bucket still paces how fast they actually go.
func (p *footprintPolicy) afterRound(e env.Env, r int) {
	now := int64(r+1) * footprintRoundNS
	p.vnow.Store(now)
	switch p.mode {
	case "forced":
		p.hoard.ScavengeGlobal(e, math.MaxInt64, 0)
	case "scavenge":
		empty := p.hoard.GlobalEmptyBytes(e)
		if grant := p.pacer.Grant(empty, now); grant > 0 {
			p.pacer.Spend(p.hoard.ScavengeGlobal(e, grant, footprintRoundNS))
		}
	}
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
		pol := newFootprintPolicy(mode, hh)
		cfg.AfterRound = pol.afterRound
		res, series = workload.ProdCons(h, cfg)
	case "phaseshift":
		procs = 8
		cfg := workload.DefaultPhaseShift(procs)
		h := workload.NewSimMaker("hoard", procs, opts.Cost, mk)
		pol := newFootprintPolicy(mode, hh)
		cfg.AfterRound = pol.afterRound
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

// Footprint renders the scavenger footprint comparison as a table.
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
