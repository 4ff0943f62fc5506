package experiments

import (
	"fmt"
	"strings"
	"time"

	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/metrics"
	"hoardgo/internal/tcache"
)

// This file produces the observability timeline artifact behind hoardbench's
// -metrics flag: a real-mode multi-threaded churn run on the instrumented
// hoard+tcache stack, sampled into a ring buffer while a background auditor
// re-checks the allocator's invariants, serialized as JSON with the final
// Prometheus scrape embedded. Unlike the other artifacts this one is
// wall-clock sampled, so sample contents vary run to run; its value is the
// shape of the timeline and the lock/occupancy counters, not exact bytes.

// MetricsTimeline is the -metrics artifact.
type MetricsTimeline struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"`
	// Workers and Rounds parameterize the churn workload.
	Workers int `json:"workers"`
	Rounds  int `json:"rounds"`
	// IntervalMS is the sampling and audit interval.
	IntervalMS float64 `json:"interval_ms"`
	// Samples is the occupancy/lock timeline, oldest first.
	Samples []metrics.Snapshot `json:"samples"`
	// Prometheus is the final post-run scrape in text exposition format.
	Prometheus string `json:"prometheus"`
	// AuditPasses and AuditFailures count the background invariant audits
	// that ran concurrently with the churn. AuditFailures must be zero.
	AuditPasses   int64 `json:"audit_passes"`
	AuditFailures int64 `json:"audit_failures"`
}

// snapshotStack observes an instrumented hoard+tcache stack: allocator
// counters, per-heap occupancy (with per-class detail), magazine fill, and
// lock counters. Safe under load.
func snapshotStack(tc *tcache.Allocator, h *core.Hoard, reg *metrics.Registry) metrics.Snapshot {
	s := metrics.NewSnapshot(tc.Name())
	st := tc.Stats()
	s.Counters["mallocs_total"] = st.Mallocs
	s.Counters["frees_total"] = st.Frees
	s.Counters["live_bytes"] = st.LiveBytes
	s.Counters["peak_live_bytes"] = st.PeakLiveBytes
	s.Counters["remote_frees_total"] = st.RemoteFrees
	s.Counters["remote_fast_frees_total"] = st.RemoteFastFrees
	s.Counters["batch_refills_total"] = st.BatchRefills
	s.Counters["batch_flushes_total"] = st.BatchFlushes
	s.Counters["superblock_moves_total"] = st.SuperblockMoves
	for id, occ := range h.SampleHeaps(&env.RealEnv{ID: -1}, true) {
		hs := metrics.HeapSample{
			ID:          id,
			U:           occ.U,
			A:           occ.A,
			Superblocks: occ.Superblocks,
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
		s.Heaps = append(s.Heaps, hs)
	}
	s.MagazineBytes = tc.MagazineBytes()
	s.Locks = reg.LockStats()
	return s
}

// CollectMetricsTimeline runs the instrumented churn scenario: workers
// goroutines allocate mixed-size bursts and hand half of every burst to
// their ring neighbor to free (driving remote frees, magazine flushes, and
// heap-lock contention), while a Collector samples occupancy and an Auditor
// re-checks the invariants, both every interval. The error is non-nil if any
// audit or the final integrity check failed.
func CollectMetricsTimeline(workers, rounds int, interval time.Duration) (MetricsTimeline, error) {
	reg := metrics.NewRegistry()
	h := core.New(core.Config{Heaps: workers}, reg.WrapFactory(env.RealLockFactory{}))
	tc := tcache.New(h, tcache.Config{Capacity: 32})

	collector := metrics.NewCollector(256, func() metrics.Snapshot {
		return snapshotStack(tc, h, reg)
	})
	auditor := metrics.NewAuditor(func() error {
		return h.Audit(&env.RealEnv{ID: -1})
	})
	collector.Start(interval)
	auditor.Start(interval)

	const burst = 64
	// Ring handoff channels, buffered so sends never block: every round each
	// worker sends one batch and frees the batches received so far.
	chans := make([]chan []alloc.Ptr, workers)
	for i := range chans {
		chans[i] = make(chan []alloc.Ptr, rounds+1)
	}
	done := make(chan *alloc.Thread, workers)
	for w := 0; w < workers; w++ {
		go func(id int) {
			th := tc.NewThread(&env.RealEnv{ID: id})
			sizes := [...]int{16, 64, 72, 256, 1024, 4096}
			for r := 0; r < rounds; r++ {
				ps := make([]alloc.Ptr, burst)
				for i := range ps {
					ps[i] = tc.Malloc(th, sizes[(id+i+r)%len(sizes)])
				}
				// Neighbor frees the first half (cross-thread), we free
				// the rest locally.
				chans[(id+1)%workers] <- ps[:burst/2]
				for _, p := range ps[burst/2:] {
					tc.Free(th, p)
				}
				select {
				case in := <-chans[id]:
					for _, p := range in {
						tc.Free(th, p)
					}
				default: // neighbor hasn't produced yet; catch up later
				}
			}
			close(chans[(id+1)%workers])
			for in := range chans[id] {
				for _, p := range in {
					tc.Free(th, p)
				}
			}
			done <- th
		}(w)
	}
	var threads []*alloc.Thread
	for w := 0; w < workers; w++ {
		threads = append(threads, <-done)
	}

	auditErr := auditor.Stop()
	collector.Stop()

	// Quiesce: return every magazine, fold lock-free drift into the books,
	// and run the full (stricter than the auditor's) integrity check.
	for _, th := range threads {
		tc.FlushThread(th)
	}
	h.Reconcile(&env.RealEnv{ID: -1})
	finalErr := tc.CheckIntegrity()

	var prom strings.Builder
	if err := snapshotStack(tc, h, reg).WritePrometheus(&prom); err != nil {
		return MetricsTimeline{}, err
	}
	tl := MetricsTimeline{
		Schema:        "hoardgo-bench/pr4-metrics/v1",
		Scenario:      "ring-churn",
		Workers:       workers,
		Rounds:        rounds,
		IntervalMS:    float64(interval) / float64(time.Millisecond),
		Samples:       collector.Snapshots(),
		Prometheus:    prom.String(),
		AuditPasses:   auditor.Passes(),
		AuditFailures: auditor.Failures(),
	}
	switch {
	case auditErr != nil:
		return tl, fmt.Errorf("metrics timeline: audit under load: %w", auditErr)
	case finalErr != nil:
		return tl, fmt.Errorf("metrics timeline: final integrity: %w", finalErr)
	}
	return tl, nil
}
