package core

import (
	"fmt"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/heap"
	"hoardgo/internal/superblock"
)

// This file implements alloc.BatchAllocator for Hoard, and its thread-cache
// forms. The batch protocol (DESIGN.md §8) amortizes the dominant
// per-operation cost — the per-processor heap lock — over a magazine's worth
// of blocks: MallocBatch carves up to n blocks under ONE heap-lock
// acquisition, and FreeBatch frees each owner heap's blocks under one
// acquisition of that heap's lock.

// MallocBatch implements alloc.BatchAllocator. It fills out[:n] with blocks
// of the given size and returns the count obtained (always min(n, len(out));
// the OS never refuses in this simulated space, so batches are only
// "partial" when capped by out).
//
// All n carves happen inside one critical section on the calling thread's
// heap: superblock searches and pulls from the global heap (or the OS)
// happen in the same section, exactly as n back-to-back Mallocs would do —
// minus n-1 lock round-trips. Accounting is one sharded update for the
// whole batch.
func (h *Hoard) MallocBatch(t *alloc.Thread, size, n int, out []alloc.Ptr) int {
	n = min(n, len(out))
	if n <= 0 {
		return 0
	}
	if size > h.classes.MaxSize() {
		// Large objects bypass superblocks and take no heap lock, so
		// there is nothing to amortize; serve them per-block.
		for i := 0; i < n; i++ {
			out[i] = h.mallocLarge(t.Env, size)
		}
		return n
	}
	return h.mallocBatch(t, size, out[:n], nil)
}

// MallocCached is MallocBatch for a thread cache's refill (DESIGN.md §11):
// the blocks keep their free bits set, since they go to a cache and not to
// the application, and sbs[i] receives out[i]'s superblock, so the cache
// never looks a block up. size must be a small size; n must not exceed
// len(out) or len(sbs).
func (h *Hoard) MallocCached(t *alloc.Thread, size, n int, out []alloc.Ptr, sbs []*superblock.Superblock) int {
	if n <= 0 {
		return 0
	}
	return h.mallocBatch(t, size, out[:n], sbs[:n])
}

// mallocBatch fills out with small blocks under one acquisition of the
// calling thread's heap lock; a non-nil sbs selects the thread-cache form.
func (h *Hoard) mallocBatch(t *alloc.Thread, size int, out []alloc.Ptr, sbs []*superblock.Superblock) int {
	e := t.Env
	class, _ := h.classes.ClassFor(size)
	blockSize := h.classes.Size(class)
	hp := h.heaps[t.State.(*threadState).heapIdx]
	env.LockWith(hp.Lock, e, "batch-refill")
	h.allocLocked(e, hp, class, blockSize, out, sbs)
	hp.Lock.Unlock(e)
	n := len(out)
	h.acct.OnMallocN(hp.ID, n, int64(n)*int64(blockSize))
	// Per-block bookkeeping really happened; the batch op is a surcharge
	// for marshalling (see the charging discipline in internal/env).
	e.Charge(env.OpMallocBatch, 1)
	e.Charge(env.OpMallocFast, int64(n))
	h.batchRefills.Add(1)
	h.batchedBlocks.Add(int64(n))
	return n
}

// FreeBatch implements alloc.BatchAllocator. One page-table pass resolves
// every pointer (large objects are released inline); then every owner
// heap's blocks are freed under ONE acquisition of that heap's lock, with
// the emptiness invariant restored once at the end (looping: a batch of B
// frees can demand up to B evictions where a single free demands at most
// one).
func (h *Hoard) FreeBatch(t *alloc.Thread, ps []alloc.Ptr) {
	e := t.Env
	small := make([]alloc.Ptr, 0, len(ps))
	sbs := make([]*superblock.Superblock, 0, len(ps))
	for _, p := range ps {
		if p.IsNil() {
			continue
		}
		sp := h.space.Lookup(uint64(p))
		if sp == nil {
			panic(fmt.Sprintf("hoard: free of unknown pointer %#x", uint64(p)))
		}
		switch owner := sp.Owner.(type) {
		case *largeObj:
			if uint64(p) != sp.Base {
				panic(fmt.Sprintf("hoard: free of interior large-object pointer %#x", uint64(p)))
			}
			h.acct.OnFree(0, owner.size)
			h.space.Release(sp)
			e.Charge(env.OpOSAlloc, 1)
			e.Charge(env.OpFree, 1)
		case *superblock.Superblock:
			small = append(small, p)
			sbs = append(sbs, owner)
		default:
			panic(fmt.Sprintf("hoard: free of foreign pointer %#x", uint64(p)))
		}
	}
	h.freeOwned(t, small, sbs, false)
}

// FreeCached is FreeBatch for a thread cache's flush (DESIGN.md §11): every
// block's free bit is already set (superblock.MarkCached), and sbs[i] is
// ps[i]'s superblock, so the flush looks nothing up. ps and sbs are used as
// scratch space.
func (h *Hoard) FreeCached(t *alloc.Thread, ps []alloc.Ptr, sbs []*superblock.Superblock) {
	h.freeOwned(t, ps, sbs[:len(ps)], true)
}

// freeOwned frees small blocks owner by owner: it takes the lock of the
// first block's owner once, frees every block that heap still owns, and
// goes around again for blocks whose ownership moved while it waited — the
// batch form of the per-block free protocol's re-check dance.
func (h *Hoard) freeOwned(t *alloc.Thread, ps []alloc.Ptr, sbs []*superblock.Superblock, cached bool) {
	e := t.Env
	myIdx := t.State.(*threadState).heapIdx
	e.Charge(env.OpFreeBatch, 1)
	h.batchFlushes.Add(1)
	h.batchedBlocks.Add(int64(len(ps)))
	for len(ps) > 0 {
		n := len(ps)
		rest := h.freeOwnedLocked(e, h.heaps[sbs[0].OwnerID()], myIdx, ps, sbs, cached)
		ps, sbs = ps[:rest], sbs[:rest]
		if rest == n {
			// The lock bought us nothing (ownership raced away before we
			// acquired it); account the wasted pass like the per-block
			// retry does.
			e.Charge(env.OpListScan, 1)
		}
	}
}

// freeOwnedLocked acquires hp's lock once, frees every block hp still owns
// (heap.FreeBatch: one regroup per touched superblock, and one clock read
// for the park stamps when hp is the global heap), restores the emptiness
// invariant (once, at the end), and returns the count of blocks owned
// elsewhere, compacted to the front of ps and sbs. The freed blocks are
// accounted in one update after the lock is released — also when a free
// panics on a misused pointer, so the books match the heaps the blocks
// freed before it went back to.
func (h *Hoard) freeOwnedLocked(e env.Env, hp *heap.Heap, myIdx int, ps []alloc.Ptr, sbs []*superblock.Superblock, cached bool) int {
	var freed heap.Freed
	env.LockWith(hp.Lock, e, "batch-free")
	defer func() {
		hp.Lock.Unlock(e)
		if freed.Blocks > 0 {
			h.acct.OnFreeN(hp.ID, freed.Blocks, freed.Bytes)
			if hp.ID != myIdx {
				h.remote.Add(int64(freed.Blocks))
			}
		}
	}()
	var stamp func() int64
	if hp.ID == 0 {
		// A batch into parked superblocks refreshes their scavenger
		// cold-age stamps, as the per-block path does.
		stamp = h.clock
	}
	rest := hp.FreeBatch(e, ps, sbs, cached, stamp, &freed)
	e.Charge(env.OpFree, int64(freed.Blocks))
	if hp.ID != 0 && freed.Blocks > 0 {
		// A batch of B frees can push the heap up to B blocks past the
		// invariant; keep evicting until it holds (or no superblock
		// qualifies — the benign all-full capacity-waste state).
		for hp.InvariantViolated() && h.restoreInvariant(e, hp) {
		}
	}
	return rest
}
