// Command hoardbench regenerates the paper's evaluation: every figure
// (F1-F7), every table (T1-T4), and the ablations (A1-A5), on the
// deterministic simulated multiprocessor.
//
// Usage:
//
//	hoardbench [-exp all|<id>[,<id>...]] [-scale quick|full] [-procs 1,2,4,...] [-allocs hoard,serial,...] [-v]
//	hoardbench -metrics timeline.json     # instrumented churn: occupancy/lock timeline + audit record
//	hoardbench -lockfree bench.json       # A11: heap-lock acquisitions fast vs locked arm + sim throughput sweep
//
// Experiment ids: threadtest shbench larson active-false passive-false bem
// barneshut (figures); catalog frag uniproc blowup footprint (tables);
// ablate-f ablate-s ablate-k ablate-heaps coherence cost-sensitivity
// (ablations).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hoardgo/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hoardbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expFlag   = flag.String("exp", "all", "experiment id(s), comma separated, or 'all'")
		scaleFlag = flag.String("scale", "quick", "workload scale: quick or full")
		procsFlag = flag.String("procs", "", "processor counts to sweep, e.g. 1,2,4,8,14")
		allocFlag = flag.String("allocs", "", "allocators to compare, e.g. hoard,serial")
		verbose   = flag.Bool("v", false, "print progress to stderr")
		format    = flag.String("format", "text", "output format: text, csv, or md")
		artifact  = flag.String("artifact", "", "write the benchmark artifact (batch lock counts + key sim runs) to this JSON file and exit")
		metricsTo = flag.String("metrics", "", "run the instrumented churn scenario and write the metrics timeline (occupancy samples, lock counters, audit record, Prometheus scrape) to this JSON file and exit")
		footTo    = flag.String("footprint", "", "run the scavenger footprint grid (workloads x release modes) and write the artifact (steady-state ratios + batch-lock guard) to this JSON file and exit")
		lockfree  = flag.String("lockfree", "", "run the zero-lock steady-state comparison (heap-lock acquisitions per op, fast vs locked arm, plus the simulator throughput sweep) and write the artifact to this JSON file and exit; at quick scale the smoke thresholds are enforced")
		arenaTo   = flag.String("arena", "", "run the real-memory arena comparison (pointer resolution cost, wall-clock malloc/free sweep, RSS under release policies) and write the artifact to this JSON file and exit; requires the arena backend (Linux amd64/arm64); the smoke thresholds are enforced")
		tuneTo    = flag.String("tune", "", "run the self-tuning controller ablation (controller off vs on vs oracle-static, on the workload set and the serving phase schedule) and write the artifact to this JSON file and exit; the convergence thresholds are enforced")
	)
	flag.Parse()

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return fmt.Errorf("unknown -scale %q (want quick or full)", *scaleFlag)
	}
	opts := experiments.Defaults(scale)
	if *procsFlag != "" {
		procs, err := parseInts(*procsFlag)
		if err != nil {
			return fmt.Errorf("-procs: %w", err)
		}
		opts.Procs = procs
	}
	if *allocFlag != "" {
		opts.Allocs = strings.Split(*allocFlag, ",")
	}

	var progress func(string, int)
	if *verbose {
		progress = func(what string, p int) {
			fmt.Fprintf(os.Stderr, "  running %s P=%d...\n", what, p)
		}
	}

	of, err := experiments.ParseFormat(*format)
	if err != nil {
		return err
	}
	if *artifact != "" {
		return writeArtifact(*artifact, opts, *scaleFlag, progress)
	}
	if *metricsTo != "" {
		return writeMetricsTimeline(*metricsTo, scale)
	}
	if *footTo != "" {
		return writeFootprint(*footTo, opts, *scaleFlag, progress)
	}
	if *lockfree != "" {
		return writeLockFree(*lockfree, opts, *scaleFlag, progress)
	}
	if *arenaTo != "" {
		return writeArena(*arenaTo, opts, *scaleFlag, progress)
	}
	if *tuneTo != "" {
		return writeTune(*tuneTo, opts, *scaleFlag, progress)
	}
	ids := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		ids = allIDs()
	}
	start := time.Now()
	for _, id := range ids {
		if err := runOne(strings.TrimSpace(id), opts, of, progress); err != nil {
			return err
		}
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "total %v\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func allIDs() []string {
	ids := []string{"catalog"}
	for _, f := range experiments.Figures() {
		ids = append(ids, f.ID)
	}
	return append(ids,
		"frag", "uniproc", "blowup", "blowup-shift", "footprint", "lockfree", "arena",
		"ablate-f", "ablate-s", "ablate-k", "ablate-heaps",
		"ablate-batch", "tcache", "coherence", "contention", "cost-sensitivity")
}

func runOne(id string, opts experiments.Options, of experiments.OutputFormat, progress func(string, int)) error {
	out := os.Stdout
	if def, ok := experiments.FigureByID(id); ok {
		fig := experiments.RunFigure(def, opts, progress)
		fig.Render(out, of)
		return nil
	}
	tables := map[string]func(experiments.Options, func(string, int)) experiments.Table{
		"frag":             experiments.Fragmentation,
		"uniproc":          experiments.Uniproc,
		"blowup":           experiments.Blowup,
		"blowup-shift":     experiments.BlowupShift,
		"footprint":        experiments.Footprint,
		"lockfree":         experiments.LockFree,
		"arena":            experiments.Arena,
		"ablate-f":         experiments.AblateF,
		"ablate-s":         experiments.AblateS,
		"ablate-k":         experiments.AblateK,
		"ablate-heaps":     experiments.AblateHeaps,
		"tcache":           experiments.AblateTCache,
		"ablate-batch":     experiments.AblateBatch,
		"contention":       experiments.Contention,
		"coherence":        experiments.Coherence,
		"cost-sensitivity": experiments.CostSensitivity,
	}
	switch {
	case id == "catalog":
		experiments.Catalog(out)
	case tables[id] != nil:
		tables[id](opts, progress).Render(out, of)
	default:
		return fmt.Errorf("unknown experiment %q (try: %s)", id, strings.Join(allIDs(), " "))
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		if n < 1 || n > 64 {
			return nil, fmt.Errorf("processor count %d out of [1,64]", n)
		}
		out = append(out, n)
	}
	return out, nil
}
