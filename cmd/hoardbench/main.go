// Command hoardbench regenerates the paper's evaluation on the
// deterministic simulated multiprocessor: every figure (F1-F7), every table
// (T1-T4b), and the ablations and extensions (A1-A8, A10, A12), printed as text,
// CSV or Markdown. results_full.txt is `hoardbench -scale full`.
//
// Usage:
//
//	hoardbench [-exp all|<id>[,<id>...]] [-scale quick|full] [-procs 1,2,4,...] [-allocs hoard,serial,...] [-format text|csv|md] [-v]
//
// Experiment ids: threadtest shbench larson active-false passive-false bem
// barneshut (figures); catalog frag uniproc blowup blowup-shift (tables);
// footprint arena ablate-f ablate-s ablate-k ablate-heaps tcache coherence
// contention cost-sensitivity (ablations and extensions).
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
		"frag", "uniproc", "blowup", "blowup-shift", "footprint", "arena",
		"ablate-f", "ablate-s", "ablate-k", "ablate-heaps",
		"tcache", "coherence", "contention", "cost-sensitivity")
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
		"arena":            experiments.Arena,
		"ablate-f":         experiments.AblateF,
		"ablate-s":         experiments.AblateS,
		"ablate-k":         experiments.AblateK,
		"ablate-heaps":     experiments.AblateHeaps,
		"tcache":           experiments.AblateTCache,
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
