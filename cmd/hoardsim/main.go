// Command hoardsim runs a single benchmark point on the simulated
// multiprocessor and prints everything the simulation observed: virtual
// time, throughput, memory, per-lock contention, and cache-coherence
// counters. It is the inspection tool behind hoardbench's summaries, and
// emits CSV with -csv for plotting.
//
// Usage:
//
//	hoardsim [-bench threadtest] [-alloc hoard] [-procs 8] [-scale quick|full] [-csv]
//	hoardsim -bench larson -procs 8 -compare     # all allocators, one table
//	hoardsim -bench larson -metrics out.prom     # instrument locks, dump a Prometheus scrape
//	hoardsim -bench larson -scavenge             # decommit empties post-run, report footprint drop
package main

import (
	"flag"
	"fmt"
	"os"

	"hoardgo/internal/alloc"
	"hoardgo/internal/allocators"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/experiments"
	"hoardgo/internal/metrics"
	"hoardgo/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hoardsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		benchFlag = flag.String("bench", "threadtest", "benchmark id (threadtest shbench larson active-false passive-false bem barneshut)")
		allocFlag = flag.String("alloc", "hoard", "allocator (hoard serial private ownership threshold)")
		procsFlag = flag.Int("procs", 8, "virtual processor count")
		scaleFlag = flag.String("scale", "quick", "workload scale: quick or full")
		csvFlag   = flag.Bool("csv", false, "emit one CSV line: bench,alloc,procs,virtual_ns,ops,ops_per_sec,max_live,peak_heap,remote_transfers")
		compare   = flag.Bool("compare", false, "run every allocator at this point and print a comparison table")
		metricsTo = flag.String("metrics", "", "instrument every simulated lock and write a post-run Prometheus scrape (counters, occupancy, lock stats) to this file")
		scavFlag  = flag.Bool("scavenge", false, "after the run, forcibly decommit every empty global-heap superblock (hoard only) and report the footprint before/after")
	)
	flag.Parse()

	def, ok := experiments.FigureByID(*benchFlag)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", *benchFlag)
	}
	scale := experiments.Quick
	if *scaleFlag == "full" {
		scale = experiments.Full
	} else if *scaleFlag != "quick" {
		return fmt.Errorf("unknown -scale %q", *scaleFlag)
	}
	if *procsFlag < 1 || *procsFlag > 64 {
		return fmt.Errorf("-procs %d out of [1,64]", *procsFlag)
	}

	opts := experiments.Defaults(scale)
	if *compare {
		fmt.Printf("%s at P=%d (%s scale)\n", def.ID, *procsFlag, *scaleFlag)
		fmt.Printf("%-12s %12s %14s %14s %10s\n", "allocator", "virtual ms", "ops/s", "peak heap", "frag")
		for _, name := range allocators.Names() {
			ch := workload.NewSim(name, *procsFlag, opts.Cost)
			r := def.Run(scale)(ch, *procsFlag)
			fmt.Printf("%-12s %12.3f %14.0f %14d %10.2f\n",
				name, float64(r.ElapsedNS)/1e6, r.Throughput(), r.VM.PeakCommitted, r.Fragmentation())
		}
		return nil
	}
	var reg *metrics.Registry
	var h *workload.Harness
	if *metricsTo != "" {
		// Wrap the simulated world's lock factory so every heap lock the
		// allocator creates carries metrics counters. The wrapper's TryLock
		// contention probe is charged by the simulator as one extra failed
		// try per contended acquisition, so virtual times shift slightly
		// against an uninstrumented run.
		reg = metrics.NewRegistry()
		name := *allocFlag
		h = workload.NewSimMaker(name, *procsFlag, opts.Cost,
			func(procs int, lf env.LockFactory) alloc.Allocator {
				return allocators.MustMake(name, procs, reg.WrapFactory(lf))
			})
	} else {
		h = workload.NewSim(*allocFlag, *procsFlag, opts.Cost)
	}
	res := def.Run(scale)(h, *procsFlag)
	var scavBefore, scavReleased, scavAfter int64
	if *scavFlag {
		hoard, ok := h.Allocator().(*core.Hoard)
		if !ok {
			return fmt.Errorf("-scavenge: allocator %q has no global heap to scavenge", *allocFlag)
		}
		scavBefore = hoard.Space().Committed()
		scavReleased = hoard.ScavengeQuiescent()
		scavAfter = hoard.Space().Committed()
	}
	if reg != nil {
		if err := writeSimMetrics(*metricsTo, h, res, reg); err != nil {
			return err
		}
	}

	if *csvFlag {
		fmt.Printf("%s,%s,%d,%d,%d,%.0f,%d,%d,%d\n",
			def.ID, *allocFlag, *procsFlag, res.ElapsedNS, res.Ops,
			res.Throughput(), res.MaxLive, res.VM.PeakCommitted,
			res.Cache.RemoteTransfers)
		return nil
	}

	fmt.Printf("benchmark   %s (%s)\n", def.ID, def.Paper)
	fmt.Printf("allocator   %s\n", *allocFlag)
	fmt.Printf("processors  %d\n", *procsFlag)
	fmt.Printf("virtual     %.3f ms\n", float64(res.ElapsedNS)/1e6)
	fmt.Printf("ops         %d (%.0f ops/s)\n", res.Ops, res.Throughput())
	fmt.Printf("max live    %d B\n", res.MaxLive)
	fmt.Printf("peak heap   %d B (fragmentation %.2f)\n", res.VM.PeakCommitted, res.Fragmentation())
	if *scavFlag {
		fmt.Printf("scavenge    released %d B: footprint %d -> %d B (address space still reserved)\n",
			scavReleased, scavBefore, scavAfter)
	}
	st := res.Alloc
	fmt.Printf("allocator   mallocs=%d frees=%d large=%d sbMoves=%d globalHits=%d osReserves=%d remoteFrees=%d\n",
		st.Mallocs, st.Frees, st.LargeMallocs, st.SuperblockMoves, st.GlobalHeapHits, st.OSReserves, st.RemoteFrees)
	fmt.Printf("cache       hits=%d cold=%d remote=%d invalidations=%d\n",
		res.Cache.Hits, res.Cache.ColdMisses, res.Cache.RemoteTransfers, res.Cache.Invalidations)
	fmt.Println("locks (contended only):")
	any := false
	for _, l := range res.Locks {
		if l.Contended > 0 {
			fmt.Printf("  %-24s acquires=%-8d contended=%-8d wait=%.3fms\n",
				l.Name, l.Acquires, l.Contended, float64(l.WaitTime)/1e6)
			any = true
		}
	}
	if !any {
		fmt.Println("  (none)")
	}
	return nil
}

// writeSimMetrics dumps the post-run state of an instrumented simulator run
// as a Prometheus scrape: allocator counters for every policy, per-heap
// occupancy when the allocator is Hoard, and the registry's lock counters.
// The run is over, so the sample is exact, not racy.
func writeSimMetrics(path string, h *workload.Harness, res workload.Result, reg *metrics.Registry) error {
	s := metrics.NewSnapshot(res.Allocator)
	st := res.Alloc
	s.Counters["mallocs_total"] = st.Mallocs
	s.Counters["frees_total"] = st.Frees
	s.Counters["live_bytes"] = st.LiveBytes
	s.Counters["peak_live_bytes"] = st.PeakLiveBytes
	s.Counters["footprint_bytes"] = res.VM.Committed
	s.Counters["peak_footprint_bytes"] = res.VM.PeakCommitted
	s.Counters["superblock_moves_total"] = st.SuperblockMoves
	s.Counters["remote_frees_total"] = st.RemoteFrees
	s.Counters["lockfree_mallocs_total"] = st.LockFreeMallocs
	s.Counters["lockfree_frees_total"] = st.LockFreeFrees
	s.Counters["virtual_ns_total"] = res.ElapsedNS
	// Live space accounting: the run is over, so these reflect any -scavenge
	// pass that ran after the result was captured.
	sp := h.Allocator().Space().Stats()
	s.Counters["reserved_bytes"] = sp.Reserved
	s.Counters["decommitted_bytes"] = sp.DecommittedBytes
	if hoard, ok := h.Allocator().(*core.Hoard); ok {
		hs := hoard.Stats()
		s.Counters["scavenge_passes_total"] = hs.ScavengePasses
		s.Counters["scavenged_bytes_total"] = hs.ScavengedBytes
		for id, occ := range hoard.SampleHeapsQuiescent(true) {
			s.Heaps = append(s.Heaps, metrics.HeapSample{
				ID:          id,
				U:           occ.U,
				A:           occ.A,
				Superblocks: occ.Superblocks,
				Decommitted: occ.Decommitted,
				Groups:      occ.Groups[:],
			})
		}
	}
	s.Locks = reg.LockStats()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("metrics     wrote %s (%d locks instrumented)\n", path, len(s.Locks))
	return nil
}
