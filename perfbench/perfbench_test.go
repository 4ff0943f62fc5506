package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	hoard "hoardgo"
)

// contract is the part of BENCHMARK.json the smoke test checks against.
type contract struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestSmoke runs every workload at quick scale, untraced and traced, and
// checks that each metric BENCHMARK.json names is present, finite and in
// its unit, and that no op failed.
func TestSmoke(t *testing.T) {
	c := loadContract(t)
	if len(c.Workload) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(c.Workload), len(workloads))
	}
	for _, w := range c.Workload {
		for _, trace := range []bool{false, true} {
			res, _, err := measure(options{workload: w.Name, seed: 7, trace: trace, sc: quickScale})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, m.Name, got.Value)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestDriverLiveMatchesStats pins the driver's own live-byte tracking, which
// peak_footprint_ratio divides by, to Stats.LiveBytes at every quiescent
// point of a single-goroutine run. It also shows why the driver does not use
// Stats.PeakLiveBytes: that counter sums per-shard high-water marks, so it
// overstates the peak once mallocs and frees land on different shards.
func TestDriverLiveMatchesStats(t *testing.T) {
	for _, w := range []string{"churn-small", "phase-shift"} {
		r := newRunner(w, 3, quickScale)
		if err := generate(w, 3, quickScale, &r.s); err != nil {
			t.Fatal(err)
		}
		a, err := hoard.New(benchConfig(false))
		if err != nil {
			t.Fatal(err)
		}
		c := &client{th: a.NewThread()}
		r.slots = make([]block, r.s.slots)
		cuts := []int{0, r.s.warmEnd, (r.s.warmEnd + r.s.timed) / 2, r.s.timed, len(r.s.ops)}
		for i := 1; i < len(cuts); i++ {
			r.replay(c, cuts[i-1], cuts[i], nil)
			if st := a.Stats(); st.LiveBytes != c.live {
				t.Errorf("%s after op %d: driver live %d B, Stats.LiveBytes %d B", w, cuts[i], c.live, st.LiveBytes)
			}
		}
		st := a.Stats()
		if c.failed != 0 || c.live != 0 || st.LiveBytes != 0 {
			t.Errorf("%s: failed=%d driver live=%d Stats.LiveBytes=%d after drain", w, c.failed, c.live, st.LiveBytes)
		}
		if st.PeakLiveBytes < c.peak {
			t.Errorf("%s: Stats.PeakLiveBytes %d below the driver's exact peak %d", w, st.PeakLiveBytes, c.peak)
		}
		t.Logf("%s: driver peak live %d B, Stats.PeakLiveBytes %d B (%.1fx)", w, c.peak, st.PeakLiveBytes, float64(st.PeakLiveBytes)/float64(c.peak))
		c.th.Close()
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPositionCost pins how throughput and the tail are taken: a batch slow
// in one repetition only (a host preemption) leaves its position's cost,
// and a batch slow in every repetition (the allocator's own stall) sets it.
func TestPositionCost(t *testing.T) {
	reps := []repResult{
		{batches: []float64{10, 10, 90, 50}},
		{batches: []float64{12, 80, 11, 50}},
		{batches: []float64{11, 10, 10, 55}},
	}
	cost := positionCost(reps, 0)
	want := []float64{10, 10, 10, 50}
	for i := range want {
		if cost[i] != want[i] {
			t.Fatalf("position costs %v, want %v", cost, want)
		}
	}
	if got := loopRate(cost); got != batchOps*4/80.0 {
		t.Errorf("loopRate = %v, want %v", got, batchOps*4/80.0)
	}
}
