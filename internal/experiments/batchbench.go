package experiments

import (
	"fmt"

	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/tcache"
	"hoardgo/internal/workload"
)

// This file is the machine-readable side of the batching ablation: structured
// results that cmd/hoardbench serializes into a committed benchmark artifact
// (BENCH_PR3.json), so the batched-transfer win is recorded in-repo rather
// than only printed.

// BatchLockVariant is one arm of the lock-acquisition measurement.
type BatchLockVariant struct {
	// LockAcquires is the total heap-lock acquisitions across the run
	// (counted by env.CountingLockFactory over every lock the allocator
	// creates).
	LockAcquires int64 `json:"lock_acquires"`
	// Mallocs is the number of cached mallocs performed.
	Mallocs int64 `json:"mallocs"`
	// LocksPerMalloc is LockAcquires / Mallocs (frees included in the
	// numerator: every malloc in the workload has a matching free, so the
	// ratio compares the full churn cost of the two arms).
	LocksPerMalloc float64 `json:"locks_per_malloc"`
	// BatchRefills and BatchFlushes confirm which path ran: zero on the
	// per-block arm.
	BatchRefills int64 `json:"batch_refills"`
	BatchFlushes int64 `json:"batch_flushes"`
}

// BatchLockResult compares heap-lock acquisitions per cached malloc with the
// native batch path enabled versus hidden behind alloc.NoBatch.
type BatchLockResult struct {
	// Capacity is the tcache magazine capacity; Rounds the churn rounds.
	Capacity int `json:"capacity"`
	Rounds   int `json:"rounds"`
	// Batch and PerBlock are the two arms.
	Batch    BatchLockVariant `json:"batch"`
	PerBlock BatchLockVariant `json:"per_block"`
	// Improvement is PerBlock.LocksPerMalloc / Batch.LocksPerMalloc —
	// the PR's acceptance criterion requires >= 5.
	Improvement float64 `json:"improvement"`
}

// MeasureBatchLocks runs the deterministic single-threaded churn workload on
// both arms: each round allocates a burst of 2*capacity blocks (defeating
// the magazine so every round forces refills) and frees them all (forcing
// flushes). Single-threaded on the real environment, so the counted lock
// acquisitions are exactly the protocol's, with no contention noise.
func MeasureBatchLocks(capacity, rounds int) BatchLockResult {
	res := BatchLockResult{
		Capacity: capacity,
		Rounds:   rounds,
		Batch:    measureBatchLocksArm(capacity, rounds, false),
		PerBlock: measureBatchLocksArm(capacity, rounds, true),
	}
	if res.Batch.LocksPerMalloc > 0 {
		res.Improvement = res.PerBlock.LocksPerMalloc / res.Batch.LocksPerMalloc
	}
	return res
}

func measureBatchLocksArm(capacity, rounds int, noBatch bool) BatchLockVariant {
	clf := &env.CountingLockFactory{Inner: env.RealLockFactory{}}
	var inner alloc.Allocator = core.New(core.Config{Heaps: 2}, clf)
	if noBatch {
		inner = alloc.NoBatch{Allocator: inner}
	}
	a := tcache.New(inner, tcache.Config{Capacity: capacity})
	th := a.NewThread(&env.RealEnv{})
	burst := 2 * capacity
	ptrs := make([]alloc.Ptr, burst)
	var mallocs int64
	for r := 0; r < rounds; r++ {
		for i := range ptrs {
			ptrs[i] = a.Malloc(th, 64)
			mallocs++
		}
		for i := range ptrs {
			a.Free(th, ptrs[i])
		}
	}
	acquires := clf.Acquires()
	st := a.Stats()
	a.FlushThread(th)
	if err := a.CheckIntegrity(); err != nil {
		panic(fmt.Sprintf("batchbench: integrity after churn: %v", err))
	}
	return BatchLockVariant{
		LockAcquires:   acquires,
		Mallocs:        mallocs,
		LocksPerMalloc: float64(acquires) / float64(mallocs),
		BatchRefills:   st.BatchRefills,
		BatchFlushes:   st.BatchFlushes,
	}
}

// BatchSimEntry is one deterministic simulator run in the artifact.
type BatchSimEntry struct {
	Bench         string  `json:"bench"`
	Allocator     string  `json:"allocator"`
	Procs         int     `json:"procs"`
	VirtualMS     float64 `json:"virtual_ms"`
	RemoteFrees   int64   `json:"remote_frees"`
	BatchRefills  int64   `json:"batch_refills"`
	BatchFlushes  int64   `json:"batch_flushes"`
	BatchedBlocks int64   `json:"batched_blocks"`
}

// BatchSimResults runs the artifact's simulator benchmarks — threadtest,
// larson, and the contended producer-consumer probe — on the batch and
// per-block arms of the tcache-over-Hoard stack. Deterministic for a given
// scale, so the artifact is reproducible byte-for-byte.
func BatchSimResults(opts Options) []BatchSimEntry {
	const procs = 8
	var out []BatchSimEntry
	variants := []struct {
		name    string
		noBatch bool
	}{
		{"hoard+tcache (batch)", false},
		{"hoard+tcache (per-block)", true},
	}
	for _, id := range []string{"threadtest", "larson"} {
		def, _ := FigureByID(id)
		run := def.Run(opts.Scale)
		for _, v := range variants {
			h := workload.NewSimMaker("hoard", procs, opts.Cost,
				batchTCacheMaker("hoard", 32, v.noBatch))
			res := run(h, procs)
			out = append(out, batchSimEntry(id, v.name, procs, res))
		}
	}
	cfg := workload.DefaultProdCons(procs)
	if opts.Scale == Quick {
		cfg.Rounds, cfg.Batch = 20, 400
	}
	for _, v := range variants {
		h := workload.NewSimMaker("hoard", procs, opts.Cost,
			batchTCacheMaker("hoard", 32, v.noBatch))
		res, _ := workload.ProdCons(h, cfg)
		out = append(out, batchSimEntry("prodcons", v.name, procs, res))
	}
	return out
}

func batchSimEntry(bench, name string, procs int, res workload.Result) BatchSimEntry {
	return BatchSimEntry{
		Bench:         bench,
		Allocator:     name,
		Procs:         procs,
		VirtualMS:     float64(res.ElapsedNS) / 1e6,
		RemoteFrees:   res.Alloc.RemoteFrees,
		BatchRefills:  res.Alloc.BatchRefills,
		BatchFlushes:  res.Alloc.BatchFlushes,
		BatchedBlocks: res.Alloc.BatchedBlocks,
	}
}
