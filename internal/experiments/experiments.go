// Package experiments defines and runs every experiment of the paper's
// evaluation: the seven speedup/throughput figures (F1-F7), the
// fragmentation, uniprocessor-overhead, and blowup tables (T2-T4), and the
// ablations and extensions (A1-A10) over Hoard's parameters and the
// simulator's cost model. Every experiment runs on the deterministic
// simulator, so its output is a pure function of its options: TestGolden
// pins each one byte for byte. DESIGN.md carries the experiment index;
// cmd/hoardbench is the CLI front end; bench_test.go exposes each experiment
// as a testing.B benchmark.
package experiments

import (
	"fmt"
	"io"

	"hoardgo/internal/allocators"
	"hoardgo/internal/simproc"
	"hoardgo/internal/workload"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// Quick shrinks workloads for fast runs (CI, -quick).
	Quick Scale = iota
	// Full approximates the paper's workload sizes.
	Full
)

// Options configures a run of the experiment suite.
type Options struct {
	// Scale selects Quick or Full sizing.
	Scale Scale
	// Procs are the processor counts swept by the figures (the paper
	// sweeps 1..14).
	Procs []int
	// Allocs are the allocator names to compare.
	Allocs []string
	// Cost is the simulator's cost model.
	Cost simproc.CostModel
}

// Defaults returns the paper-shaped options at the given scale.
func Defaults(scale Scale) Options {
	procs := []int{1, 2, 4, 6, 8, 10, 12, 14}
	if scale == Quick {
		procs = []int{1, 2, 4, 8, 14}
	}
	return Options{
		Scale:  scale,
		Procs:  procs,
		Allocs: allocators.Names(),
		Cost:   simproc.DefaultCosts,
	}
}

// Runner executes one benchmark on a harness with the given thread count.
type Runner func(h *workload.Harness, threads int) workload.Result

// FigureDef describes one speedup/throughput figure.
type FigureDef struct {
	// ID is the experiment id used on the command line.
	ID string
	// Title and Paper describe the figure ("threadtest", "Figure:
	// speedup on threadtest").
	Title, Paper string
	// Metric is "speedup" or "throughput" — how the paper presents it.
	Metric string
	// Run builds the benchmark at the given scale.
	Run func(scale Scale) Runner
}

// Figures lists F1-F7 in paper order.
func Figures() []FigureDef {
	return []FigureDef{
		{
			ID: "threadtest", Title: "threadtest", Metric: "speedup",
			Paper: "F1: speedup, t threads allocating/freeing 100,000 8-byte objects",
			Run: func(s Scale) Runner {
				return func(h *workload.Harness, th int) workload.Result {
					cfg := workload.ThreadtestConfig{Threads: th, Iterations: 2, Objects: 100000, ObjSize: 8}
					if s == Quick {
						cfg.Iterations, cfg.Objects = 1, 57344 // >= 4 superblocks/thread at P=14
					}
					return workload.Threadtest(h, cfg)
				}
			},
		},
		{
			ID: "shbench", Title: "shbench", Metric: "speedup",
			Paper: "F2: speedup, SmartHeap-style random sizes and lifetimes",
			Run: func(s Scale) Runner {
				return func(h *workload.Harness, th int) workload.Result {
					cfg := workload.DefaultShbench(th)
					if s == Quick {
						cfg.Ops = 84000
						cfg.Slots = 1200
					}
					return workload.Shbench(h, cfg)
				}
			},
		},
		{
			ID: "larson", Title: "larson", Metric: "throughput",
			Paper: "F3: throughput, Larson server simulation with bleeding",
			Run: func(s Scale) Runner {
				return func(h *workload.Harness, th int) workload.Result {
					cfg := workload.DefaultLarson(th)
					if s == Quick {
						cfg.Rounds, cfg.OpsPerRound, cfg.SlotsPerWindow = 3, 1500, 600
					}
					return workload.Larson(h, cfg)
				}
			},
		},
		{
			ID: "active-false", Title: "active-false", Metric: "speedup",
			Paper: "F4: speedup, active false sharing microbenchmark",
			Run: func(s Scale) Runner {
				return func(h *workload.Harness, th int) workload.Result {
					cfg := workload.DefaultFalseShare(th)
					if s == Quick {
						cfg.Iterations, cfg.Writes = 840, 200
					}
					return workload.ActiveFalse(h, cfg)
				}
			},
		},
		{
			ID: "passive-false", Title: "passive-false", Metric: "speedup",
			Paper: "F5: speedup, passive false sharing microbenchmark",
			Run: func(s Scale) Runner {
				return func(h *workload.Harness, th int) workload.Result {
					cfg := workload.DefaultFalseShare(th)
					if s == Quick {
						cfg.Iterations, cfg.Writes = 840, 200
					}
					return workload.PassiveFalse(h, cfg)
				}
			},
		},
		{
			ID: "bem", Title: "BEMengine-style", Metric: "speedup",
			Paper: "F6: speedup, boundary-element phase structure (substituted surrogate)",
			Run: func(s Scale) Runner {
				return func(h *workload.Harness, th int) workload.Result {
					cfg := workload.DefaultBEM(th)
					if s == Quick {
						cfg.MeshNodes, cfg.Rows, cfg.SolveBuffers, cfg.SolveWork = 11200, 560, 28, 100000
					}
					return workload.BEM(h, cfg)
				}
			},
		},
		{
			ID: "barneshut", Title: "barnes-hut", Metric: "speedup",
			Paper: "F7: speedup, Barnes-Hut n-body with per-step octree rebuild",
			Run: func(s Scale) Runner {
				return func(h *workload.Harness, th int) workload.Result {
					cfg := workload.DefaultBarnesHut(th)
					if s == Quick {
						cfg.Bodies, cfg.Steps = 800, 1
					}
					return workload.BarnesHut(h, cfg)
				}
			},
		},
	}
}

// FigureByID finds a figure definition.
func FigureByID(id string) (FigureDef, bool) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, true
		}
	}
	return FigureDef{}, false
}

// Series is one allocator's line on a figure.
type Series struct {
	// Allocator is the line's allocator name.
	Allocator string
	// Results holds one point per entry in Figure.Procs.
	Results []workload.Result
}

// Speedup returns T(1)/T(P) per point (relative to this allocator's own
// single-processor time, as the paper plots it).
func (s Series) Speedup() []float64 {
	out := make([]float64, len(s.Results))
	if len(s.Results) == 0 || s.Results[0].ElapsedNS == 0 {
		return out
	}
	base := float64(s.Results[0].ElapsedNS)
	for i, r := range s.Results {
		if r.ElapsedNS > 0 {
			out[i] = base / float64(r.ElapsedNS)
		}
	}
	return out
}

// Throughputs returns operations per second per point.
func (s Series) Throughputs() []float64 {
	out := make([]float64, len(s.Results))
	for i, r := range s.Results {
		out[i] = r.Throughput()
	}
	return out
}

// Figure is a completed speedup/throughput figure.
type Figure struct {
	// Def is the figure's definition.
	Def FigureDef
	// Procs are the swept processor counts.
	Procs []int
	// Series holds one line per allocator.
	Series []Series
}

// RunFigure sweeps allocators x processor counts for one figure.
// The progress callback (optional) is invoked before each point.
func RunFigure(def FigureDef, opts Options, progress func(alloc string, procs int)) Figure {
	run := def.Run(opts.Scale)
	fig := Figure{Def: def, Procs: opts.Procs}
	for _, name := range opts.Allocs {
		s := Series{Allocator: name}
		for _, p := range opts.Procs {
			if progress != nil {
				progress(name, p)
			}
			h := workload.NewSim(name, p, opts.Cost)
			s.Results = append(s.Results, run(h, p))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Format renders the figure as an aligned text table: one row per
// allocator, one column per processor count, cells carrying the figure's
// metric.
func (f Figure) Format(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", f.Def.Title, f.Def.Paper)
	metric := f.Def.Metric
	fmt.Fprintf(w, "%-12s", metric)
	for _, p := range f.Procs {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("P=%d", p))
	}
	fmt.Fprintln(w)
	for _, s := range f.Series {
		fmt.Fprintf(w, "%-12s", s.Allocator)
		var vals []float64
		if metric == "throughput" {
			vals = s.Throughputs()
			for _, v := range vals {
				fmt.Fprintf(w, " %9s", fmtTput(v))
			}
		} else {
			vals = s.Speedup()
			for _, v := range vals {
				fmt.Fprintf(w, " %9.2f", v)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

func fmtTput(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// Catalog prints the benchmark table (the paper's Table 1).
func Catalog(w io.Writer) {
	rows := [][2]string{
		{"threadtest", "t threads allocate and free 100,000/t 8-byte objects per round (no cross-thread frees)"},
		{"shbench", "SmartHeap-style: random sizes 1..1000 B, random lifetimes, per-thread working sets"},
		{"larson", "server simulation: worker sessions inherit live windows, free remotely, allocate replacements"},
		{"active-false", "threads allocate one small object each and write it repeatedly (line-splitting test)"},
		{"passive-false", "one thread allocates adjacent objects, others free them then run the write loop"},
		{"BEMengine-style", "phase-structured solid-modeling surrogate: small mesh allocs, medium rows, large solver buffers"},
		{"barnes-hut", "n-body: octree of small nodes rebuilt, traversed, and freed each timestep"},
		{"prodcons", "producer-consumer blowup probe from the paper's section 2.2 analysis"},
	}
	fmt.Fprintln(w, "T1 — benchmark catalog")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-16s %s\n", r[0], r[1])
	}
	fmt.Fprintln(w)
}
