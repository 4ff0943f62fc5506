package hoard

import (
	"fmt"
	"io"
	"net/http"

	"hoardgo/internal/core"
	"hoardgo/internal/debugalloc"
	"hoardgo/internal/env"
	"hoardgo/internal/metrics"
)

// This file is the public face of the observability layer (internal/metrics):
// Prometheus/JSON export of the allocator's counters, per-heap occupancy, and
// lock contention, plus the on-demand invariant audit. See DESIGN.md §9.

// unwrap peels the debug layer off the allocator stack and returns the
// Hoard core, or nil for other policies.
func (a *Allocator) unwrap() *core.Hoard {
	impl := a.impl
	if d, ok := impl.(*debugalloc.Allocator); ok {
		impl = d.Inner()
	}
	h, _ := impl.(*core.Hoard)
	return h
}

// sampleMetrics builds one observation of the allocator: counters for every
// policy, per-heap occupancy for Hoard, magazine fill when a thread cache is
// layered, and lock counters when Config.Metrics was set. Safe to call while
// other threads allocate; its counters are then SampleStats' and its
// cross-heap sums approximate.
func (a *Allocator) sampleMetrics() metrics.Snapshot {
	s := metrics.NewSnapshot(a.name)
	st := a.SampleStats()
	s.Counters["mallocs_total"] = st.Mallocs
	s.Counters["frees_total"] = st.Frees
	s.Counters["live_bytes"] = st.LiveBytes
	s.Counters["peak_live_bytes"] = st.PeakLiveBytes
	s.Counters["footprint_bytes"] = st.FootprintBytes
	s.Counters["peak_footprint_bytes"] = st.PeakFootprintBytes
	s.Counters["reserved_bytes"] = st.ReservedBytes
	s.Counters["peak_reserved_bytes"] = st.PeakReservedBytes
	s.Counters["decommitted_bytes"] = st.DecommittedBytes
	s.Counters["scavenge_passes_total"] = st.ScavengeOps
	s.Counters["scavenged_bytes_total"] = st.ScavengedBytes
	sp := a.impl.Space().Stats()
	s.Counters["decommits_total"] = sp.Decommits
	s.Counters["recommits_total"] = sp.Recommits
	s.Counters["superblock_moves_total"] = st.SuperblockMoves
	s.Counters["global_heap_hits_total"] = st.GlobalHeapHits
	s.Counters["remote_frees_total"] = st.RemoteFrees
	s.Counters["batch_refills_total"] = st.BatchRefills
	s.Counters["batch_flushes_total"] = st.BatchFlushes
	s.Counters["batched_blocks_total"] = st.BatchedBlocks
	s.Counters["lockfree_mallocs_total"] = st.LockFreeMallocs
	s.Counters["lockfree_frees_total"] = st.LockFreeFrees
	if h := a.unwrap(); h != nil {
		for _, occ := range h.SampleHeaps(&env.RealEnv{ID: -1}, true) {
			hs := metrics.HeapSample{
				U:           occ.U,
				A:           occ.A,
				Superblocks: occ.Superblocks,
				Decommitted: occ.Decommitted,
				Groups:      occ.Groups[:],
			}
			for _, c := range occ.Classes {
				hs.Classes = append(hs.Classes, metrics.ClassSample{
					Class:       c.Class,
					BlockSize:   c.BlockSize,
					Superblocks: c.Superblocks,
					InUseBytes:  c.InUseBytes,
					Groups:      c.Groups[:],
				})
			}
			hs.ID = len(s.Heaps)
			s.Heaps = append(s.Heaps, hs)
		}
		s.MagazineBytes = h.MagazineBytes()
	}
	if a.reg != nil {
		s.Locks = a.reg.LockStats()
	}
	return s
}

// WriteMetrics writes the allocator's current state in the Prometheus text
// exposition format: operation counters and live/footprint gauges for every
// policy, per-heap occupancy (u, a, superblocks, decommitted superblocks,
// fullness groups) for Hoard, magazine fill for thread-cached stacks, and
// per-lock acquisition/contention/wait/hold counters when the allocator
// was built with Config.Metrics. Safe under load.
func (a *Allocator) WriteMetrics(w io.Writer) error {
	return a.sampleMetrics().WritePrometheus(w)
}

// WriteMetricsJSON writes the same observation as WriteMetrics as one
// indented JSON document, including the per-class occupancy detail the
// Prometheus form aggregates away.
func (a *Allocator) WriteMetricsJSON(w io.Writer) error {
	return a.sampleMetrics().WriteJSON(w)
}

// LockStats returns per-lock acquisition/contention counters, or nil unless
// the allocator was built with Config.Metrics. The slice is sorted
// worst-contended first.
func (a *Allocator) LockStats() []metrics.LockStats {
	if a.reg == nil {
		return nil
	}
	stats := a.reg.LockStats()
	metrics.SortLockStats(stats)
	return stats
}

// Audit checks structural integrity and the emptiness invariant while the
// allocator remains in service, taking each heap's lock briefly in turn. It
// is the under-load subset of CheckIntegrity (which needs quiescence); for
// non-Hoard policies, which expose no online check, it reports nil. A
// caller that wants a continuous audit calls it from a time.Ticker (see
// examples/metricsserver).
func (a *Allocator) Audit() error {
	if h := a.unwrap(); h != nil {
		return h.Audit(&env.RealEnv{ID: -1})
	}
	return nil
}

// LintMetrics validates Prometheus exposition text (as produced by
// WriteMetrics) and returns the first format problem, or nil. Exported so
// a service's own tests can lint their scrapes without importing internal
// packages.
func LintMetrics(text string) error { return metrics.LintPrometheus(text) }

// MetricsHandler returns an http.Handler that serves WriteMetrics in the
// Prometheus text exposition format, for mounting on a scrape endpoint:
//
//	http.Handle("/metrics", a.MetricsHandler())
//
// Each request takes a fresh sample; safe under allocation load. See
// examples/metricsserver for a complete scrape target.
func (a *Allocator) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := a.WriteMetrics(w); err != nil {
			// Headers are gone; all we can do is note it for the scraper.
			fmt.Fprintf(w, "# metrics write failed: %v\n", err)
		}
	})
}
