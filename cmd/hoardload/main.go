// Command hoardload is the traffic-shaped serving benchmark: it drives the
// allocator through internal/loadgen's open-loop engine — diurnal ramp,
// hotspot shift, burst spike, slow drain — against the wall clock, records
// malloc/free and end-to-end request latency in HDR-style histograms with
// p50/p99/p999/max, samples the committed-bytes and lock-contention
// timeline, and runs the 1..NumCPU wall-clock scalability sweep with
// instrumented locks on both the sim and arena backends.
//
// Usage:
//
//	hoardload [-scale quick|full] [-backends sim,arena] [-workers N] [-seed N]
//	hoardload -artifact BENCH_PR9.json       # write the committed record
//	hoardload -smoke                         # enforce the CI SLO thresholds
//
// The request stream is deterministic under -seed; wall-clock latencies are
// machine-dependent, which is why the artifact records the host's CPU count
// and the provenance stamp records the configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	hoard "hoardgo"
	"hoardgo/internal/loadgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hoardload:", err)
		os.Exit(1)
	}
}

// shape is the scale-dependent workload geometry.
type shape struct {
	Keys      int64
	SizeMin   int
	SizeMax   int
	PhaseDur  time.Duration
	PeakRate  float64
	SweepOps  int
	TCacheCap int
}

func shapeFor(scale string) (shape, error) {
	switch scale {
	case "quick":
		return shape{
			Keys: 4096, SizeMin: 16, SizeMax: 2048,
			PhaseDur: 250 * time.Millisecond, PeakRate: 8000,
			SweepOps: 20000, TCacheCap: 64,
		}, nil
	case "full":
		return shape{
			Keys: 65536, SizeMin: 16, SizeMax: 4096,
			PhaseDur: 1200 * time.Millisecond, PeakRate: 20000,
			SweepOps: 120000, TCacheCap: 64,
		}, nil
	default:
		return shape{}, fmt.Errorf("unknown -scale %q (want quick or full)", scale)
	}
}

func run() error {
	var (
		scaleFlag = flag.String("scale", "quick", "workload scale: quick or full")
		backends  = flag.String("backends", "sim,arena", "engine/sweep backends, comma separated")
		workers   = flag.Int("workers", 4, "serving workers (engine goroutines)")
		seed      = flag.Int64("seed", 1, "request-stream seed (keys, sizes, ordering)")
		artifact  = flag.String("artifact", "", "write the benchmark artifact to this JSON file")
		smoke     = flag.Bool("smoke", false, "enforce the smoke thresholds (tail-latency SLOs, drained footprint, sweep sanity) and fail on violation")
		verbose   = flag.Bool("v", false, "print progress to stderr")
	)
	flag.Parse()

	sh, err := shapeFor(*scaleFlag)
	if err != nil {
		return err
	}
	progress := func(format string, args ...any) {
		if *verbose {
			fmt.Fprintf(os.Stderr, "  "+format+"\n", args...)
		}
	}

	art := newArtifact(*scaleFlag, sh, *workers, *seed)
	for _, backend := range strings.Split(*backends, ",") {
		backend = strings.TrimSpace(backend)
		progress("engine on %s: 4 phases x %v at peak %.0f req/s", backend, sh.PhaseDur, sh.PeakRate)
		er, err := runEngine(backend, sh, *workers, *seed)
		if err != nil {
			if backend == "arena" {
				// No real-memory backend on this platform: record the
				// skip, keep the artifact reproducible elsewhere.
				art.EngineSkips = append(art.EngineSkips, fmt.Sprintf("%s: %v", backend, err))
				progress("engine on %s skipped: %v", backend, err)
				continue
			}
			return err
		}
		art.Engine = append(art.Engine, er)

		progress("sweep on %s: procs %v, %d ops/worker", backend, loadgen.SweepProcs(), sh.SweepOps)
		entries, err := loadgen.WallClockSweep(backend, loadgen.SweepProcs(), sh.SweepOps, *seed)
		if err != nil {
			if backend == "arena" {
				art.SweepSkips = append(art.SweepSkips, fmt.Sprintf("%s: %v", backend, err))
				progress("sweep on %s skipped: %v", backend, err)
				continue
			}
			return err
		}
		art.Sweep = append(art.Sweep, entries...)
	}

	if *smoke {
		if err := checkSmoke(art); err != nil {
			return fmt.Errorf("smoke thresholds: %w", err)
		}
		fmt.Println("smoke thresholds passed")
	}
	report(art)
	if *artifact != "" {
		if err := writeArtifact(*artifact, art); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *artifact)
	}
	return nil
}

// runEngine plays the standard traffic schedule on one backend and returns
// the engine record: the phase results, the timeline, and the
// post-drain/post-release footprint that measures retention debt.
func runEngine(backend string, sh shape, workers int, seed int64) (engineRun, error) {
	a, err := hoard.New(hoard.Config{
		Procs:               workers,
		Backend:             backend,
		ThreadCacheCapacity: sh.TCacheCap,
		Metrics:             true,
		Scavenge: hoard.ScavengeConfig{
			Enabled:  true,
			Interval: 5 * time.Millisecond,
			ColdAge:  20 * time.Millisecond,
		},
	})
	if err != nil {
		return engineRun{}, err
	}
	defer a.Close()
	if backend == "arena" && a.Backend() != "arena" {
		return engineRun{}, fmt.Errorf("arena backend unavailable: %s", a.BackendFallbackReason())
	}
	phases := loadgen.StandardPhases(sh.Keys, sh.SizeMin, sh.SizeMax, sh.PhaseDur, sh.PeakRate)
	res, err := loadgen.Run(loadgen.Config{
		Allocator: a,
		Workers:   workers,
		Slots:     int(sh.Keys),
		Seed:      seed,
	}, phases)
	if err != nil {
		return engineRun{}, fmt.Errorf("engine on %s: %w", backend, err)
	}

	er := engineRun{
		Backend:   a.Backend(),
		Workers:   workers,
		Scavenger: a.StopScavenger(),
		Result:    res,
	}
	for _, pt := range res.Timeline {
		if pt.FootprintBytes > er.PeakFootprintBytes {
			er.PeakFootprintBytes = pt.FootprintBytes
		}
	}
	st := a.Stats()
	if st.PeakFootprintBytes > er.PeakFootprintBytes {
		er.PeakFootprintBytes = st.PeakFootprintBytes
	}
	// The drained allocator holds only empty superblocks; a forced release
	// (malloc_trim) should strip the footprint to near nothing. What
	// remains is the allocator's irreducible retention.
	er.ReleasedBytes = a.ReleaseMemory()
	er.FinalFootprintBytes = a.Stats().FootprintBytes
	return er, nil
}

// report prints the human summary: per phase tail latencies, then the sweep.
func report(art *artifact) {
	for _, er := range art.Engine {
		fmt.Printf("engine %s (%d workers): %d requests, %d dropped, peak footprint %d KiB, after release %d KiB\n",
			er.Backend, er.Workers, er.Result.Requests, er.Result.Dropped,
			er.PeakFootprintBytes/1024, er.FinalFootprintBytes/1024)
		for _, ph := range er.Result.Phases {
			fmt.Printf("  %-14s %7d req  malloc p50/p99/p999 %s/%s/%s  request p50/p99/p999 %s/%s/%s\n",
				ph.Name, ph.Requests,
				ns(ph.Malloc.P50), ns(ph.Malloc.P99), ns(ph.Malloc.P999),
				ns(ph.Request.P50), ns(ph.Request.P99), ns(ph.Request.P999))
		}
	}
	for _, e := range art.Sweep {
		fmt.Printf("sweep %s P=%d (ncpu %d): %.0f ops/ms, malloc p99 %s, %.1f lock-wait ns/op\n",
			e.Backend, e.Procs, e.NumCPU, e.OpsPerMS, ns(e.Malloc.P99), e.LockWaitNSPerOp)
	}
	for _, s := range append(append([]string(nil), art.EngineSkips...), art.SweepSkips...) {
		fmt.Printf("skipped: %s\n", s)
	}
}

// ns renders a nanosecond latency compactly.
func ns(v int64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}
