// Command hoardbench regenerates the paper's evaluation on the
// deterministic simulated multiprocessor: every figure (F1-F7), every table
// (T1-T4b), and the ablations and extensions (A1-A8, A10), printed as text,
// CSV or Markdown. Its output depends only on its flags: two runs print the
// same bytes. results_full.txt is `hoardbench -scale full`.
//
// Usage:
//
//	hoardbench [-exp all|<id>[,<id>...]] [-scale quick|full] [-procs 1,2,4,...] [-allocs hoard,serial,...] [-format text|csv|md] [-v]
//
// Experiment ids: catalog, then experiments.Figures (threadtest shbench
// larson active-false passive-false bem barneshut), then experiments.Tables
// (frag uniproc blowup blowup-shift footprint ablate-f ablate-s ablate-k
// ablate-heaps tcache coherence contention cost-sensitivity). Every -exp id
// and -allocs name is checked before anything runs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"hoardgo/internal/allocators"
	"hoardgo/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hoardbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hoardbench", flag.ExitOnError)
	var (
		expFlag   = fs.String("exp", "all", "experiment id(s), comma separated, or 'all'")
		scaleFlag = fs.String("scale", "quick", "workload scale: quick or full")
		procsFlag = fs.String("procs", "", "processor counts to sweep, e.g. 1,2,4,8,14")
		allocFlag = fs.String("allocs", "", "allocators to compare, e.g. hoard,serial")
		verbose   = fs.Bool("v", false, "print progress to stderr")
		format    = fs.String("format", "text", "output format: text, csv, or md")
	)
	fs.Parse(args)

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
		allocs, err := parseList(*allocFlag, "allocator", allocators.Names())
		if err != nil {
			return fmt.Errorf("-allocs: %w", err)
		}
		opts.Allocs = allocs
	}
	of, err := experiments.ParseFormat(*format)
	if err != nil {
		return err
	}
	ids := allIDs()
	if *expFlag != "all" {
		if ids, err = parseList(*expFlag, "experiment", ids); err != nil {
			return fmt.Errorf("-exp: %w", err)
		}
	}

	var progress func(string, int)
	if *verbose {
		progress = func(what string, p int) {
			fmt.Fprintf(os.Stderr, "  running %s P=%d...\n", what, p)
		}
	}
	start := time.Now()
	for _, id := range ids {
		runOne(out, id, opts, of, progress)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "total %v\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// allIDs lists every experiment id in report order: the benchmark catalog,
// the figures, then the tables.
func allIDs() []string {
	ids := []string{"catalog"}
	for _, f := range experiments.Figures() {
		ids = append(ids, f.ID)
	}
	for _, t := range experiments.Tables() {
		ids = append(ids, t.ID)
	}
	return ids
}

// parseList splits a comma-separated flag value and checks every element
// against valid, naming the valid values in the error.
func parseList(s, what string, valid []string) ([]string, error) {
	var out []string
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(valid, f) {
			return nil, fmt.Errorf("unknown %s %q (valid: %s)", what, f, strings.Join(valid, " "))
		}
		out = append(out, f)
	}
	return out, nil
}

// runOne prints the experiment id, which allIDs lists.
func runOne(out io.Writer, id string, opts experiments.Options, of experiments.OutputFormat, progress func(string, int)) {
	if id == "catalog" {
		experiments.Catalog(out)
		return
	}
	if def, ok := experiments.FigureByID(id); ok {
		experiments.RunFigure(def, opts, progress).Render(out, of)
		return
	}
	for _, def := range experiments.Tables() {
		if def.ID == id {
			def.Run(opts, progress).Render(out, of)
		}
	}
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
