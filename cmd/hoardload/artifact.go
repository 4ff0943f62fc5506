package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	hoard "hoardgo"
	"hoardgo/internal/experiments"
	"hoardgo/internal/loadgen"
)

// loadSchema names the committed record's format.
const loadSchema = "hoardgo-bench/pr9-loadgen/v1"

// engineRun is one backend's pass through the traffic schedule.
type engineRun struct {
	Backend string `json:"backend"`
	Workers int    `json:"workers"`
	// Result carries the phase latency summaries, the footprint/contention
	// timeline, and the end-of-run leak check (final live and cached bytes,
	// both necessarily zero or the run would have failed).
	Result loadgen.Result `json:"result"`
	// Scavenger is the background scavenger's activity during the run.
	Scavenger hoard.ScavengerStats `json:"scavenger"`
	// PeakFootprintBytes is the high-water committed footprint;
	// ReleasedBytes what the post-drain forced release recovered; and
	// FinalFootprintBytes what the allocator still holds after it — the
	// retention-debt number the smoke threshold is written against.
	PeakFootprintBytes  int64 `json:"peak_footprint_bytes"`
	ReleasedBytes       int64 `json:"released_bytes"`
	FinalFootprintBytes int64 `json:"final_footprint_bytes"`
	// Tuned marks the self-tuning arm (-tune): the run starts from
	// deliberately detuned knobs (f=0.05, K=0, magazines of 4) with the
	// background controller enabled, and must still hold the same SLOs as
	// the static runs. Controller is that arm's activity record.
	Tuned      bool                   `json:"tuned,omitempty"`
	Controller *hoard.ControllerStats `json:"controller,omitempty"`
}

// hostInfo records the machine the wall-clock numbers came from.
type hostInfo struct {
	NumCPU    int    `json:"num_cpu"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go_version"`
}

// artifact is the committed serving-benchmark record (BENCH_PR9.json):
// traffic-phase latency SLO summaries and footprint timelines per backend,
// plus the wall-clock scalability sweep. Reproducible with
// `hoardload -artifact <path> -scale <scale>`.
type artifact struct {
	Schema     string                 `json:"schema"`
	Scale      string                 `json:"scale"`
	Provenance experiments.Provenance `json:"provenance"`
	Host       hostInfo               `json:"host"`
	Config     shape                  `json:"config"`
	Seed       int64                  `json:"seed"`
	Engine     []engineRun            `json:"engine"`
	Sweep      []loadgen.SweepEntry   `json:"sweep"`
	// EngineSkips and SweepSkips record sections that could not run here
	// (no arena backend on this platform), so an artifact with a missing
	// section is distinguishable from one that never attempted it.
	EngineSkips []string `json:"engine_skips,omitempty"`
	SweepSkips  []string `json:"sweep_skips,omitempty"`
}

// newArtifact stamps the record with provenance over every knob that shapes
// the workload, in fixed order (the fingerprint contract).
func newArtifact(scale string, sh shape, workers int, seed int64) *artifact {
	return &artifact{
		Schema: loadSchema,
		Scale:  scale,
		Provenance: experiments.Stamp(loadSchema, scale,
			fmt.Sprintf("keys=%d", sh.Keys),
			fmt.Sprintf("sizes=%d..%d", sh.SizeMin, sh.SizeMax),
			fmt.Sprintf("phase=%s", sh.PhaseDur),
			fmt.Sprintf("rate=%g", sh.PeakRate),
			fmt.Sprintf("sweepops=%d", sh.SweepOps),
			fmt.Sprintf("tcache=%d", sh.TCacheCap),
			fmt.Sprintf("workers=%d", workers),
			fmt.Sprintf("seed=%d", seed),
		),
		Host: hostInfo{
			NumCPU:    runtime.NumCPU(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			GoVersion: runtime.Version(),
		},
		Config: sh,
		Seed:   seed,
	}
}

// writeArtifact serializes the record.
func writeArtifact(path string, art *artifact) error {
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Smoke thresholds: deliberately generous — they catch an allocator that
// fell off a cliff (a lock convoy pushing p999 into the hundreds of
// milliseconds, a drain that stopped draining), not machine-to-machine
// noise. CI boxes are slow and single-core; the SLOs account for that.
const (
	smokeMallocP999NS  = 100e6 // 100ms: any malloc slower than this is a stall
	smokeRequestP999NS = 500e6 // 500ms end-to-end on a loaded 1-core box
	// smokeRetainRatio bounds final footprint after drain + forced release
	// against the peak. Frees restore the emptiness invariant as they land,
	// so a fully drained schedule ends at the invariant's slack — a few
	// superblocks per heap, tiny next to any real peak. Holding a quarter of
	// the peak means the release path regressed.
	smokeRetainRatio = 0.25
)

// checkSmoke enforces the thresholds over a completed artifact.
func checkSmoke(art *artifact) error {
	if len(art.Engine) == 0 {
		return fmt.Errorf("no engine runs completed")
	}
	for _, er := range art.Engine {
		if got := len(er.Result.Phases); got != 4 {
			return fmt.Errorf("%s: %d phases, want 4", er.Backend, got)
		}
		for _, ph := range er.Result.Phases {
			if ph.Requests == 0 {
				return fmt.Errorf("%s/%s: no requests served", er.Backend, ph.Name)
			}
			if ph.Malloc.Count > 0 && ph.Malloc.P999 > smokeMallocP999NS {
				return fmt.Errorf("%s/%s: malloc p999 %s exceeds SLO %s",
					er.Backend, ph.Name, ns(ph.Malloc.P999), ns(smokeMallocP999NS))
			}
			if ph.Request.P999 > smokeRequestP999NS {
				return fmt.Errorf("%s/%s: request p999 %s exceeds SLO %s",
					er.Backend, ph.Name, ns(ph.Request.P999), ns(smokeRequestP999NS))
			}
		}
		if er.Result.FinalLiveBytes != 0 || er.Result.FinalCachedBytes != 0 {
			return fmt.Errorf("%s: drain leaked live=%d cached=%d",
				er.Backend, er.Result.FinalLiveBytes, er.Result.FinalCachedBytes)
		}
		if er.PeakFootprintBytes > 0 {
			ratio := float64(er.FinalFootprintBytes) / float64(er.PeakFootprintBytes)
			if ratio > smokeRetainRatio {
				return fmt.Errorf("%s: final footprint %d is %.2f of peak %d (limit %.2f) — release is not releasing",
					er.Backend, er.FinalFootprintBytes, ratio, er.PeakFootprintBytes, smokeRetainRatio)
			}
		}
		if len(er.Result.Timeline) == 0 {
			return fmt.Errorf("%s: no timeline samples", er.Backend)
		}
		if er.Tuned && (er.Controller == nil || er.Controller.Decisions == 0) {
			return fmt.Errorf("%s: tuned arm ran but the controller never made a decision", er.Backend)
		}
	}
	if len(art.Sweep) == 0 {
		return fmt.Errorf("no sweep entries")
	}
	for _, e := range art.Sweep {
		if e.Ops == 0 || e.OpsPerMS <= 0 {
			return fmt.Errorf("sweep %s/P=%d: no throughput recorded", e.Backend, e.Procs)
		}
		if e.LockAcquires == 0 {
			return fmt.Errorf("sweep %s/P=%d: lock instrumentation recorded nothing", e.Backend, e.Procs)
		}
		if e.Malloc.P999 > smokeMallocP999NS {
			return fmt.Errorf("sweep %s/P=%d: malloc p999 %s exceeds SLO %s",
				e.Backend, e.Procs, ns(e.Malloc.P999), ns(smokeMallocP999NS))
		}
	}
	return nil
}
