package workload

import (
	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
)

// ProdConsConfig parameterizes the producer-consumer blowup experiment from
// the paper's §2.2 analysis: one producer allocates a batch, the consumers
// free it, round after round. The program's live set is constant (one
// batch), so an ideal allocator's memory is constant; pure private heaps
// grow without bound, ownership-based heaps plateau at O(P), Hoard stays
// within its 1/(1-f) bound.
type ProdConsConfig struct {
	// Threads is the total thread count: thread 0 produces, the rest
	// consume.
	Threads int
	// Rounds is the number of produce/consume cycles.
	Rounds int
	// Batch is objects per round.
	Batch int
	// ObjSize is the object size.
	ObjSize int
	// AfterRound, if set, runs on thread 0 after each round's frees have
	// completed (all threads are between barriers) and before the round's
	// committed-memory sample — the hook the footprint experiments use to
	// run ReleaseMemory in virtual time.
	AfterRound func(e env.Env, round int)
}

// DefaultProdCons gives the experiment's usual shape.
func DefaultProdCons(threads int) ProdConsConfig {
	return ProdConsConfig{Threads: threads, Rounds: 50, Batch: 1000, ObjSize: 64}
}

// ProdCons runs the experiment and returns, alongside the usual Result, the
// committed-memory sample after each round — the series the blowup table
// plots.
func ProdCons(h *Harness, cfg ProdConsConfig) (Result, []int64) {
	shared := make([]alloc.Ptr, cfg.Batch)
	committed := make([]int64, cfg.Rounds)
	barrier := h.NewBarrier(cfg.Threads)
	h.Par(cfg.Threads, func(id int, e env.Env, t *alloc.Thread) {
		a := h.Allocator()
		for r := 0; r < cfg.Rounds; r++ {
			if id == 0 {
				for i := range shared {
					shared[i] = a.Malloc(t, cfg.ObjSize)
					h.OnAlloc(cfg.ObjSize)
					WriteObj(a, e, shared[i], cfg.ObjSize)
				}
			}
			barrier.Wait(e)
			// Consumers split the batch; with one thread, the
			// producer consumes its own output (no blowup).
			consumers := cfg.Threads - 1
			me := id - 1
			if consumers == 0 {
				consumers, me = 1, 0
			}
			if me >= 0 {
				for i := me; i < len(shared); i += consumers {
					ReadObj(a, e, shared[i], cfg.ObjSize)
					a.Free(t, shared[i])
					h.OnFree(cfg.ObjSize)
				}
			}
			barrier.Wait(e)
			if id == 0 {
				if cfg.AfterRound != nil {
					cfg.AfterRound(e, r)
				}
				committed[r] = a.Space().Committed()
			}
			barrier.Wait(e)
		}
	})
	ops := int64(cfg.Rounds) * int64(cfg.Batch) * 2
	return h.Result(cfg.Threads, ops), committed
}
