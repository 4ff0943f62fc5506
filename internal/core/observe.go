package core

import (
	"fmt"

	"hoardgo/internal/env"
	"hoardgo/internal/heap"
)

// This file is the observability surface of the core allocator: an
// under-load integrity audit and per-heap occupancy sampling. Both take each
// heap's lock briefly and are safe to run concurrently with allocation;
// neither requires quiescence.

// Audit checks structural integrity and the emptiness invariant heap by
// heap, taking each heap's lock in turn, and is safe to run while other
// threads allocate. It is CheckIntegrity minus the two pieces that need
// quiescence: the bitmap comparison inside each superblock (thread caches
// flip the free bits of blocks they hold without a heap lock) and the
// global live-gauge crosscheck (u, committed bytes, and the
// live gauge cannot be read atomically across heaps). e is charged for the lock traffic and list scans the audit
// performs.
func (h *Hoard) Audit(e env.Env) error {
	for _, hp := range h.heaps {
		env.LockWith(hp.Lock, e, "audit")
		err := hp.CheckIntegrityOnline()
		if err == nil && hp.ID != 0 && hp.InvariantViolated() &&
			hp.FindEvictable(e) == nil && hp.InvariantViolatedUsable() {
			err = fmt.Errorf("hoard: heap %d violates emptiness invariant with no evictable superblock (u=%d a=%d)",
				hp.ID, hp.U(), hp.A())
		}
		hp.Lock.Unlock(e)
		if err != nil {
			return err
		}
	}
	return nil
}

// SampleHeaps snapshots every heap's occupancy, taking each heap's lock in
// turn. With detail the samples include per-class breakdowns. Heaps are
// sampled at different instants, so cross-heap sums are approximate under
// load — fine for a metrics timeline, not for accounting checks.
func (h *Hoard) SampleHeaps(e env.Env, detail bool) []heap.Occupancy {
	out := make([]heap.Occupancy, len(h.heaps))
	for i, hp := range h.heaps {
		hp.Lock.Lock(e)
		out[i] = hp.SampleOccupancy(detail)
		hp.Lock.Unlock(e)
	}
	return out
}

// SampleHeapsQuiescent is SampleHeaps without the locks, for an allocator
// that has gone quiet — e.g. after a simulator run, whose locks cannot be
// taken from outside the simulation.
func (h *Hoard) SampleHeapsQuiescent(detail bool) []heap.Occupancy {
	out := make([]heap.Occupancy, len(h.heaps))
	for i, hp := range h.heaps {
		out[i] = hp.SampleOccupancy(detail)
	}
	return out
}
