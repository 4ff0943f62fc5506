package workload

import (
	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
)

// PhaseShiftConfig parameterizes the paper's O(P) blowup scenario for
// private heaps with ownership (§2.2): a program whose allocation phases
// migrate from thread to thread. In each phase one thread allocates the
// program's whole live set, works on it, and frees it — then the next
// thread takes over. Freed memory returns to each phase's own heap or
// arena, so ownership-based allocators accumulate one live-set copy per
// thread (P-fold blowup); Hoard's global heap recycles the same memory
// across phases.
type PhaseShiftConfig struct {
	// Threads is the worker count; each phase belongs to one thread.
	Threads int
	// Phases is the total number of allocation phases (>= Threads to
	// visit every thread).
	Phases int
	// LiveObjects and ObjSize define the per-phase live set.
	LiveObjects, ObjSize int
	// AfterRound, if set, runs on the phase's owning thread after its frees
	// and before the phase's committed-memory sample; the footprint
	// experiments run ReleaseMemory here.
	AfterRound func(e env.Env, phase int)
}

// DefaultPhaseShift gives the experiment's usual shape.
func DefaultPhaseShift(threads int) PhaseShiftConfig {
	return PhaseShiftConfig{Threads: threads, Phases: 2 * threads, LiveObjects: 1000, ObjSize: 64}
}

// PhaseShift runs the experiment and returns the committed-memory sample
// after each phase alongside the usual Result.
func PhaseShift(h *Harness, cfg PhaseShiftConfig) (Result, []int64) {
	committed := make([]int64, cfg.Phases)
	barrier := h.NewBarrier(cfg.Threads)
	h.Par(cfg.Threads, func(id int, e env.Env, t *alloc.Thread) {
		a := h.Allocator()
		for phase := 0; phase < cfg.Phases; phase++ {
			if phase%cfg.Threads == id {
				ps := make([]alloc.Ptr, cfg.LiveObjects)
				for i := range ps {
					ps[i] = a.Malloc(t, cfg.ObjSize)
					h.OnAlloc(cfg.ObjSize)
					WriteObj(a, e, ps[i], cfg.ObjSize)
				}
				for _, p := range ps {
					a.Free(t, p)
					h.OnFree(cfg.ObjSize)
				}
				if cfg.AfterRound != nil {
					cfg.AfterRound(e, phase)
				}
				committed[phase] = a.Space().Committed()
			}
			barrier.Wait(e)
		}
	})
	ops := int64(cfg.Phases) * int64(cfg.LiveObjects) * 2
	return h.Result(cfg.Threads, ops), committed
}
