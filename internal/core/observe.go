package core

import (
	"hoardgo/internal/env"
	"hoardgo/internal/heap"
)

// This file is the observability surface of the core allocator: an
// under-load integrity audit and per-heap occupancy sampling. Both take each
// heap's lock briefly and are safe to run concurrently with allocation;
// neither requires quiescence.

// Audit checks structural integrity and the emptiness invariant heap by
// heap, taking each heap's lock in turn, and is safe to run while other
// threads allocate. It reads only the free states of listed blocks, which
// only the heap lock's holder writes. It is CheckIntegrity minus the two
// pieces that need quiescence: the count of each superblock's free states
// against its counters (thread caches and the application change the states
// of the blocks they hold without a heap lock) and the global live-gauge
// crosscheck (u, committed bytes, and the live gauge cannot be read
// atomically across heaps). e is charged for the lock traffic and list
// scans the audit performs.
func (h *Hoard) Audit(e env.Env) error {
	for _, hp := range h.heaps {
		hp.Lock.Lock(e)
		err := hp.CheckIntegrityOnline()
		if err == nil {
			err = hp.CheckEmptiness(e)
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
