// Command perfbench is the Hoard allocator's benchmark. It runs one
// workload as a closed loop through the public API for a fixed time,
// verifies every block, and prints the end-to-end metrics (or, with -trace
// 1, the per-layer metrics) as one JSON object on the last line of standard
// output. See README.md for the workloads and metrics.
//
//	go run . -workload churn-small -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"time"
)

// minReps is the fewest timed repetitions a run makes, however long they
// take; footprintStreams is how many streams, one repetition each, set
// peak_footprint_ratio.
const (
	minReps          = 5
	footprintStreams = 9
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rev      string
	sc       scale
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloads))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated op stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long to repeat the workload")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead")
	flag.StringVar(&o.rev, "rev", "unknown", "revision of the code under test, recorded in the output")
	flag.Parse()
	o.trace = *trace == 1
	o.sc = fullScale
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, cond, err := measure(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(os.Stdout, res, cond)
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: verification failed")
		os.Exit(1)
	}
}

// measure runs the workload for o.seconds and summarizes it. Any leak,
// integrity error or backend fallback is an error; failed block checks are
// counted in the result, which is then not correct.
func measure(o options) (result, map[string]any, error) {
	if !slices.Contains(workloads, o.workload) {
		return result{}, nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloads)
	}
	r := newRunner(o.workload, o.seed, o.sc)
	cond := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"scale": scaleOf(o.workload, o.sc), "batch_ops": batchOps,
		"position_cost_quantile": costQuantile(o.workload), "footprint_streams": footprintStreams,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "rev": o.rev,
		"config": fmt.Sprintf("%+v", benchConfig(false)),
	}
	var (
		res result
		err error
	)
	start := time.Now()
	if o.trace {
		res, err = r.traced(o.seconds)
	} else {
		res, err = r.untraced(o.seconds, cond)
	}
	if err != nil {
		return result{}, nil, err
	}
	cond["elapsed_s"] = time.Since(start).Seconds()
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return res, cond, nil
}

// repeat runs whole repetitions of stream 0 until seconds have passed, and
// at least minReps of them.
func (r *runner) repeat(seconds float64) ([]repResult, error) {
	var reps []repResult
	start := time.Now()
	for len(reps) < minReps || time.Since(start).Seconds() < seconds {
		rr, err := r.rep(benchConfig(false), repMode{})
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", r.name, len(reps), err)
		}
		reps = append(reps, rr)
	}
	return reps, nil
}

// untraced is the -trace 0 run: timed repetitions for seconds, summarized
// by endToEnd, then one repetition on each of footprintStreams streams for
// peak_footprint_ratio. It records the repetition count and the whole-loop
// rate in cond; the latter counts host preemptions as allocator time, so it
// is not the gated throughput.
func (r *runner) untraced(seconds float64, cond map[string]any) (result, error) {
	reps, err := r.repeat(seconds)
	if err != nil {
		return result{}, err
	}
	res := r.endToEnd(reps)
	var loop, timedRatio []float64
	for _, rr := range reps {
		loop = append(loop, float64(rr.ops)/rr.timed.Seconds()/1e6)
		timedRatio = append(timedRatio, rr.footprintRatio())
	}
	cond["reps"], cond["loop_mops_median"] = len(reps), median(loop)
	// The concurrent handoff's footprint swings with scheduling (see
	// README.md), so its footprint repetitions are sequential replays of
	// the same streams, whose footprint is the same on every run of a seed.
	if r.name == "handoff" {
		cond["concurrent_peak_footprint_ratio"] = median(timedRatio)
	}
	var ratios []float64
	for k := 0; k < footprintStreams; k++ {
		fr, err := r.rep(benchConfig(false), repMode{sequential: r.name == "handoff", stream: k})
		if err != nil {
			return result{}, fmt.Errorf("footprint repetition on stream %d: %w", k, err)
		}
		ratios = append(ratios, fr.footprintRatio())
		res.Attempted += fr.attempted
		res.Failed += fr.failed
	}
	res.Metrics["peak_footprint_ratio"] = metric{median(ratios), "ratio"}
	return res, nil
}

// endToEnd summarizes timed repetitions of one stream. Throughput and the
// tail come from the loop's position costs (see positionCost): throughput
// is the loop's ops over the sum of its batches' costs, and batch_p99_us
// the p99 over the costs. Set-up time is the median over repetitions.
func (r *runner) endToEnd(reps []repResult) result {
	var res result
	var setup []float64
	for _, rr := range reps {
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		setup = append(setup, rr.setup.Seconds())
	}
	cost := positionCost(reps, costQuantile(r.name))
	res.Metrics = map[string]metric{
		"throughput_mops": {loopRate(cost), "Mop/s"},
		"batch_p99_us":    {quantile(cost, 0.99), "us"},
		"setup_s":         {median(setup), "s"},
	}
	return res
}

func printResult(w io.Writer, res result, cond map[string]any) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	c, _ := json.Marshal(map[string]any{"conditions": cond}) // a map of plain values always marshals
	fmt.Fprintln(w, string(c))
	out, _ := json.Marshal(res)
	fmt.Fprintln(w, string(out))
}

func scaleOf(workload string, sc scale) map[string]int {
	switch workload {
	case "churn-small":
		return map[string]int{"slots": sc.churnSlots, "warm_replacements": sc.churnWarm, "replacements": sc.churnReplacements}
	case "phase-shift":
		return map[string]int{"small_blocks": sc.phaseSmall, "large_blocks": sc.phaseLarge, "warm_cycles": 1, "cycles": sc.phaseCycles}
	default:
		return map[string]int{"warm_blocks": sc.handoffWarm, "blocks": sc.handoffBlocks, "batch": handoffBatch, "batches_in_flight": handoffBatches}
	}
}

// costQuantile is the quantile over repetitions that positionCost takes.
// A single-goroutine stream does the same work at a batch position in every
// repetition, so the position's fastest time is its cost with the least
// host interference. On handoff the work of a position depends on how the
// two goroutines interleave: its fastest time is a batch the producer
// malloc'd into an empty queue while the consumer was descheduled, so the
// lower quartile is taken instead.
func costQuantile(workload string) float64 {
	if workload == "handoff" {
		return 0.25
	}
	return 0
}

// positionCost gives each batch position of the timed loop its cost: the
// q-quantile of the position's wall time (µs) over the repetitions, which
// all replay the same stream. The host's other tenants slow whole
// repetitions by 30% or more for tens of seconds at a time, and preempt
// single batches; a low quantile per position drops both, and keeps the
// batches that are slow in every repetition because of the allocator's own
// work (OS reserves, global-heap takes, evictions).
func positionCost(reps []repResult, q float64) []float64 {
	n := len(reps[0].batches)
	for _, rr := range reps {
		n = min(n, len(rr.batches))
	}
	cost := make([]float64, n)
	col := make([]float64, len(reps))
	for i := range cost {
		for k, rr := range reps {
			col[k] = rr.batches[i]
		}
		cost[i] = quantile(col, q)
	}
	return cost
}

// loopRate is the rate in Mop/s of a loop whose batches take cost µs each.
func loopRate(cost []float64) float64 {
	var sum float64
	for _, c := range cost {
		sum += c
	}
	return batchOps * float64(len(cost)) / sum
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
