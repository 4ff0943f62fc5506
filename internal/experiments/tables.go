package experiments

import (
	"fmt"
	"io"

	"hoardgo/internal/alloc"
	"hoardgo/internal/allocators"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/workload"
)

// Table is a generic experiment result table.
type Table struct {
	// ID, Title and Paper identify the experiment.
	ID, Title, Paper string
	// Header names the columns; Rows carry formatted cells.
	Header []string
	Rows   [][]string
}

// Format renders the table with aligned columns.
func (t Table) Format(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.Title, t.Paper)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i == 0 {
				fmt.Fprintf(w, "%-*s", widths[i]+2, c)
			} else {
				fmt.Fprintf(w, " %*s", widths[i], c)
			}
		}
		fmt.Fprintln(w)
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// TableDef is one table experiment.
type TableDef struct {
	// ID is the experiment id used on the command line; the table Run
	// returns carries the same ID.
	ID string
	// Run runs the experiment; the progress callback (optional) is invoked
	// before each simulation.
	Run func(opts Options, progress func(what string, procs int)) Table
}

// Tables lists the table experiments in report order: the paper's tables
// T2-T4b, then the ablations and extensions.
func Tables() []TableDef {
	return []TableDef{
		{"frag", Fragmentation},
		{"uniproc", Uniproc},
		{"blowup", Blowup},
		{"blowup-shift", BlowupShift},
		{"footprint", Footprint},
		{"ablate-f", AblateF},
		{"ablate-s", AblateS},
		{"ablate-k", AblateK},
		{"ablate-heaps", AblateHeaps},
		{"tcache", AblateTCache},
		{"coherence", Coherence},
		{"contention", Contention},
		{"cost-sensitivity", CostSensitivity},
	}
}

// fragProcs is the processor count used for table experiments (the paper's
// full machine).
const fragProcs = 14

// Fragmentation runs every benchmark under Hoard and reports the paper's
// fragmentation table: max heap (committed) over max live (requested).
func Fragmentation(opts Options, progress func(string, int)) Table {
	t := Table{
		ID: "frag", Title: "T2",
		Paper:  "Hoard fragmentation: max heap / max live per benchmark (14 threads)",
		Header: []string{"benchmark", "max live", "max heap", "fragmentation"},
	}
	for _, def := range Figures() {
		if def.ID == "active-false" || def.ID == "passive-false" {
			// Microbenchmarks with a few live bytes per thread have no
			// meaningful fragmentation ratio; the paper's table covers
			// the application benchmarks.
			continue
		}
		if progress != nil {
			progress("hoard/"+def.ID, fragProcs)
		}
		h := workload.NewSim("hoard", fragProcs, opts.Cost)
		res := def.Run(opts.Scale)(h, fragProcs)
		t.Rows = append(t.Rows, []string{
			def.Title,
			fmtBytes(res.MaxLive),
			fmtBytes(res.VM.PeakCommitted),
			fmt.Sprintf("%.2f", res.Fragmentation()),
		})
	}
	return t
}

// Uniproc compares single-processor runtime across allocators — the paper's
// check that Hoard's multiprocessor machinery costs almost nothing
// sequentially. Values are normalized to the serial allocator (1.00 =
// identical).
func Uniproc(opts Options, progress func(string, int)) Table {
	t := Table{
		ID: "uniproc", Title: "T3",
		Paper:  "uniprocessor runtime, normalized to the serial allocator (P=1)",
		Header: append([]string{"benchmark"}, opts.Allocs...),
	}
	for _, id := range []string{"threadtest", "shbench", "larson"} {
		def, _ := FigureByID(id)
		run := def.Run(opts.Scale)
		times := map[string]int64{}
		for _, name := range opts.Allocs {
			if progress != nil {
				progress(name+"/"+id, 1)
			}
			h := workload.NewSim(name, 1, opts.Cost)
			times[name] = run(h, 1).ElapsedNS
		}
		base := float64(times["serial"])
		row := []string{def.Title}
		for _, name := range opts.Allocs {
			row = append(row, fmt.Sprintf("%.2f", float64(times[name])/base))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Blowup runs the producer-consumer probe per allocator and reports memory
// growth across rounds — the paper's section 2.2 taxonomy, measured.
func Blowup(opts Options, progress func(string, int)) Table {
	const procs = 4
	cfg := workload.DefaultProdCons(procs)
	if opts.Scale == Quick {
		cfg.Rounds, cfg.Batch = 20, 400
	}
	ideal := int64(cfg.Batch * cfg.ObjSize)
	t := Table{
		ID: "blowup", Title: "T4",
		Paper: fmt.Sprintf("producer-consumer blowup: committed memory across %d rounds (live set %s)",
			cfg.Rounds, fmtBytes(ideal)),
		Header: []string{"allocator", "round 1", "final round", "growth", "final/live"},
	}
	for _, name := range opts.Allocs {
		if progress != nil {
			progress(name+"/prodcons", procs)
		}
		h := workload.NewSim(name, procs, opts.Cost)
		_, series := workload.ProdCons(h, cfg)
		first, last := series[0], series[len(series)-1]
		t.Rows = append(t.Rows, []string{
			name,
			fmtBytes(first),
			fmtBytes(last),
			fmt.Sprintf("%.2fx", float64(last)/float64(first)),
			fmt.Sprintf("%.1fx", float64(last)/float64(ideal)),
		})
	}
	return t
}

// BlowupShift runs the phase-shifted allocation probe: the workload whose
// worst case separates ownership-based allocators (O(P) blowup) from Hoard
// (O(1)).
func BlowupShift(opts Options, progress func(string, int)) Table {
	const procs = 8
	cfg := workload.DefaultPhaseShift(procs)
	ideal := int64(cfg.LiveObjects * cfg.ObjSize)
	t := Table{
		ID: "blowup-shift", Title: "T4b",
		Paper: fmt.Sprintf("phase-shifted allocation: committed memory after %d phases (live set %s, %d threads)",
			cfg.Phases, fmtBytes(ideal), procs),
		Header: []string{"allocator", "after phase 1", "final", "final/live"},
	}
	for _, name := range opts.Allocs {
		if progress != nil {
			progress(name+"/phaseshift", procs)
		}
		h := workload.NewSim(name, procs, opts.Cost)
		_, series := workload.PhaseShift(h, cfg)
		first, last := series[0], series[len(series)-1]
		t.Rows = append(t.Rows, []string{
			name,
			fmtBytes(first),
			fmtBytes(last),
			fmt.Sprintf("%.1fx", float64(last)/float64(ideal)),
		})
	}
	return t
}

// Coherence reports the cache model's counters for the false-sharing
// benchmarks — the direct measurement behind figures F4/F5.
func Coherence(opts Options, progress func(string, int)) Table {
	const procs = 8
	t := Table{
		ID: "coherence", Title: "A4",
		Paper:  "cache-line transfers on the false-sharing benchmarks (P=8)",
		Header: []string{"allocator", "bench", "remote transfers", "invalidations", "virtual ms"},
	}
	for _, id := range []string{"active-false", "passive-false"} {
		def, _ := FigureByID(id)
		run := def.Run(opts.Scale)
		for _, name := range opts.Allocs {
			if progress != nil {
				progress(name+"/"+id, procs)
			}
			h := workload.NewSim(name, procs, opts.Cost)
			res := run(h, procs)
			t.Rows = append(t.Rows, []string{
				name, def.ID,
				fmt.Sprintf("%d", res.Cache.RemoteTransfers),
				fmt.Sprintf("%d", res.Cache.Invalidations),
				fmt.Sprintf("%.2f", float64(res.ElapsedNS)/1e6),
			})
		}
	}
	return t
}

// hoardMaker builds a custom-parameter Hoard constructor for ablations.
func hoardMaker(cfg core.Config) allocators.Maker {
	return func(procs int, lf env.LockFactory) alloc.Allocator {
		c := cfg
		if c.Heaps == 0 {
			c.Heaps = 2 * procs
		}
		return core.New(c, lf)
	}
}

// AblateF sweeps the empty fraction f — the knob trading fragmentation
// against superblock traffic.
func AblateF(opts Options, progress func(string, int)) Table {
	const procs = 8
	t := Table{
		ID: "ablate-f", Title: "A1",
		Paper:  "empty fraction f (with K=0, isolating f): time, fragmentation, superblock traffic (shbench, P=8)",
		Header: []string{"f", "virtual ms", "fragmentation", "superblock moves", "global hits"},
	}
	def, _ := FigureByID("shbench")
	run := def.Run(opts.Scale)
	for _, f := range []float64{0.125, 0.25, 0.5, 0.75} {
		if progress != nil {
			progress(fmt.Sprintf("hoard(f=%v)", f), procs)
		}
		h := workload.NewSimMaker("hoard", procs, opts.Cost, hoardMaker(core.Config{EmptyFraction: f, K: core.KNone}))
		res := run(h, procs)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", f),
			fmt.Sprintf("%.2f", float64(res.ElapsedNS)/1e6),
			fmt.Sprintf("%.2f", res.Fragmentation()),
			fmt.Sprintf("%d", res.Alloc.SuperblockMoves),
			fmt.Sprintf("%d", res.Alloc.GlobalHeapHits),
		})
	}
	return t
}

// AblateS sweeps the superblock size S.
func AblateS(opts Options, progress func(string, int)) Table {
	const procs = 8
	t := Table{
		ID: "ablate-s", Title: "A2",
		Paper:  "superblock size S: time and fragmentation (threadtest, P=8)",
		Header: []string{"S", "virtual ms", "fragmentation", "OS reserves"},
	}
	def, _ := FigureByID("threadtest")
	run := def.Run(opts.Scale)
	for _, s := range []int{4096, 8192, 16384, 65536} {
		if progress != nil {
			progress(fmt.Sprintf("hoard(S=%d)", s), procs)
		}
		h := workload.NewSimMaker("hoard", procs, opts.Cost, hoardMaker(core.Config{SuperblockSize: s}))
		res := run(h, procs)
		t.Rows = append(t.Rows, []string{
			fmtBytes(int64(s)),
			fmt.Sprintf("%.2f", float64(res.ElapsedNS)/1e6),
			fmt.Sprintf("%.2f", res.Fragmentation()),
			fmt.Sprintf("%d", res.Alloc.OSReserves),
		})
	}
	return t
}

// AblateK sweeps the emptiness invariant's slack K. K=0 reproduces a
// reproduction finding: free-heavy phases evict still-live superblocks and
// serialize their remaining frees on the global heap.
func AblateK(opts Options, progress func(string, int)) Table {
	const procs = 8
	t := Table{
		ID: "ablate-k", Title: "A4b",
		Paper:  "invariant slack K: global-heap serialization in free-heavy phases (threadtest, P=8)",
		Header: []string{"K", "virtual ms", "remote frees", "superblock moves", "global wait ms"},
	}
	def, _ := FigureByID("threadtest")
	run := def.Run(opts.Scale)
	for _, k := range []int{core.KNone, 1, 2, 4} {
		if progress != nil {
			progress(fmt.Sprintf("hoard(K=%d)", k), procs)
		}
		h := workload.NewSimMaker("hoard", procs, opts.Cost, hoardMaker(core.Config{K: k}))
		res := run(h, procs)
		var globalWait int64
		for _, l := range res.Locks {
			if l.Name == "hoard.heap0" {
				globalWait = l.WaitTime
			}
		}
		shown := k
		if k == core.KNone {
			shown = 0
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", shown),
			fmt.Sprintf("%.2f", float64(res.ElapsedNS)/1e6),
			fmt.Sprintf("%d", res.Alloc.RemoteFrees),
			fmt.Sprintf("%d", res.Alloc.SuperblockMoves),
			fmt.Sprintf("%.2f", float64(globalWait)/1e6),
		})
	}
	return t
}

// AblateHeaps sweeps the per-processor heap count (the released Hoard used
// 2P to thin out hash collisions).
func AblateHeaps(opts Options, progress func(string, int)) Table {
	const procs = 8
	t := Table{
		ID: "ablate-heaps", Title: "A3",
		Paper:  "heap count under hashed thread ids: collision cost vs memory (larson, P=8)",
		Header: []string{"heaps", "virtual ms", "max heap", "fragmentation"},
	}
	def, _ := FigureByID("larson")
	run := def.Run(opts.Scale)
	for _, mult := range []int{1, 2, 4} {
		heaps := mult * procs
		if progress != nil {
			progress(fmt.Sprintf("hoard(heaps=%d)", heaps), procs)
		}
		// HashThreads reproduces arbitrary pthread ids: with only P
		// heaps, hash collisions co-locate threads on heaps — the
		// reason the released Hoard used 2P.
		h := workload.NewSimMaker("hoard", procs, opts.Cost,
			hoardMaker(core.Config{Heaps: heaps, HashThreads: true}))
		res := run(h, procs)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dP", mult),
			fmt.Sprintf("%.2f", float64(res.ElapsedNS)/1e6),
			fmtBytes(res.VM.PeakCommitted),
			fmt.Sprintf("%.2f", res.Fragmentation()),
		})
	}
	return t
}

// AblateTCache measures the thread-cache extension (the direction Hoard's
// successors took), at the default magazine capacity: lock-free fast paths,
// and whether owner-aware magazines keep passive false sharing away.
func AblateTCache(opts Options, progress func(string, int)) Table {
	const procs = 8
	t := Table{
		ID: "tcache", Title: "A6",
		Paper:  "owner-aware thread caches over Hoard (P=8): speed vs passive false sharing",
		Header: []string{"allocator", "bench", "virtual ms", "remote transfers"},
	}
	for _, id := range []string{"threadtest", "larson", "passive-false"} {
		def, _ := FigureByID(id)
		run := def.Run(opts.Scale)
		for _, variant := range []struct {
			name string
			mk   allocators.Maker
		}{
			{"hoard", nil},
			{"hoard+tcache", hoardMaker(core.Config{Magazines: core.DefaultCapacity})},
		} {
			if progress != nil {
				progress(variant.name+"/"+id, procs)
			}
			h := workload.NewSimMaker("hoard", procs, opts.Cost, variant.mk)
			res := run(h, procs)
			t.Rows = append(t.Rows, []string{
				variant.name, id,
				fmt.Sprintf("%.2f", float64(res.ElapsedNS)/1e6),
				fmt.Sprintf("%d", res.Cache.RemoteTransfers),
			})
		}
	}
	return t
}

// Contention reports where lock waiting concentrates (the paper's Theorem
// 2 discussion: Hoard's worst-case contention is bounded and, away from
// adversarial patterns, spread across per-processor heaps; a serial
// allocator concentrates all waiting on one lock).
func Contention(opts Options, progress func(string, int)) Table {
	const procs = 8
	t := Table{
		ID: "contention", Title: "A8",
		Paper:  "lock contention distribution (larson, P=8): total wait and its concentration",
		Header: []string{"allocator", "virtual ms", "total wait ms", "hottest lock", "hottest share"},
	}
	def, _ := FigureByID("larson")
	run := def.Run(opts.Scale)
	for _, name := range opts.Allocs {
		if progress != nil {
			progress(name+"/larson", procs)
		}
		h := workload.NewSim(name, procs, opts.Cost)
		res := run(h, procs)
		var total, hottest int64
		hotName := "-"
		for _, l := range res.Locks {
			total += l.WaitTime
			if l.WaitTime > hottest {
				hottest = l.WaitTime
				hotName = l.Name
			}
		}
		share := "-"
		if total > 0 {
			share = fmt.Sprintf("%.0f%%", 100*float64(hottest)/float64(total))
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f", float64(res.ElapsedNS)/1e6),
			fmt.Sprintf("%.2f", float64(total)/1e6),
			hotName,
			share,
		})
	}
	return t
}

// CostSensitivity re-runs the headline comparison under perturbed cost
// models, demonstrating that "Hoard beats serial" does not hinge on the
// chosen constants.
func CostSensitivity(opts Options, progress func(string, int)) Table {
	const procs = 8
	t := Table{
		ID: "cost-sensitivity", Title: "A5",
		Paper:  "cost-model sensitivity: serial/hoard time ratio on threadtest (P=8)",
		Header: []string{"coherence & lock-migrate scale", "hoard ms", "serial ms", "serial/hoard"},
	}
	def, _ := FigureByID("threadtest")
	run := def.Run(opts.Scale)
	for _, scale := range []float64{0.25, 0.5, 1, 2, 4} {
		cost := opts.Cost
		cost.LockMigrate = int64(float64(cost.LockMigrate) * scale)
		cost.Cache.RemoteTransfer = int64(float64(cost.Cache.RemoteTransfer) * scale)
		if progress != nil {
			progress(fmt.Sprintf("scale=%.2f", scale), procs)
		}
		hh := workload.NewSim("hoard", procs, cost)
		hr := run(hh, procs)
		sh := workload.NewSim("serial", procs, cost)
		sr := run(sh, procs)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2fx", scale),
			fmt.Sprintf("%.2f", float64(hr.ElapsedNS)/1e6),
			fmt.Sprintf("%.2f", float64(sr.ElapsedNS)/1e6),
			fmt.Sprintf("%.1f", float64(sr.ElapsedNS)/float64(hr.ElapsedNS)),
		})
	}
	return t
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
