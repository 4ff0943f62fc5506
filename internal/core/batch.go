package core

import (
	"hoardgo/internal/env"
	"hoardgo/internal/heap"
	"hoardgo/internal/superblock"
)

// This file implements Hoard's batch transfers for the magazines
// (magazine.go, DESIGN.md §8 and §11). A refill or flush amortizes the
// dominant per-operation cost — the per-processor heap lock — over a
// magazine's worth of blocks: mallocCached carves up to n blocks under ONE
// heap-lock acquisition, and freeCached frees each owner heap's blocks under
// one acquisition of that heap's lock (freeOwned, which every free runs).

// mallocCached fills out[:n] with blocks of class for a magazine refill,
// under one acquisition of ts's heap lock (allocRun), and returns n. The
// blocks stay marked free until the magazine hands each one out, and each
// carries its superblock, so the magazine never looks a block up. n must
// not exceed cap(out).
//
// Superblock searches and pulls from the global heap (or the OS) happen in
// the same critical section, exactly as n back-to-back Mallocs would do —
// minus n-1 lock round-trips. Accounting is one update for the whole
// batch.
func (h *Hoard) mallocCached(ts *ThreadState, class, n int, out []superblock.Block) int {
	if n <= 0 {
		return 0
	}
	e := ts.e
	blockSize := h.classes.Size(class)
	h.allocRun(ts, class, blockSize, out[:n])
	h.acct.OnMallocN(n, int64(n)*int64(blockSize))
	// Per-block bookkeeping really happened; the batch op is a surcharge
	// for marshalling (see the charging discipline in internal/env).
	e.Charge(env.OpMallocBatch, 1)
	e.Charge(env.OpMallocFast, int64(n))
	h.batchRefills.Add(1)
	h.batchedBlocks.Add(int64(n))
	return n
}

// freeCached frees a magazine's or remote batch's flush (DESIGN.md §11)
// through freeOwned, with the batch surcharge and counters. Each block
// carries its superblock, so the flush looks nothing up.
func (h *Hoard) freeCached(ts *ThreadState, bs []superblock.Block) {
	ts.e.Charge(env.OpFreeBatch, 1)
	h.batchFlushes.Add(1)
	h.batchedBlocks.Add(int64(len(bs)))
	h.freeOwned(ts, bs)
}

// freeOwned is the paper's free protocol (§3), the one ownership re-check
// of every small free, a single free being a flush of one. It locks the
// first block's owner once, frees every block that heap still owns
// (freeOwnedLocked), and goes around again for blocks whose owner moved
// while it waited. Every block is already marked free (MarkCached); bs is
// used as scratch space.
func (h *Hoard) freeOwned(ts *ThreadState, bs []superblock.Block) {
	e := ts.e
	for len(bs) > 0 {
		n := len(bs)
		bs = bs[:h.freeOwnedLocked(e, h.heaps[bs[0].SB.OwnerID()], ts.heapIdx, bs)]
		if len(bs) == n {
			// Ownership moved before we acquired the lock.
			e.Charge(env.OpListScan, 1)
		}
	}
}

// freeOwnedLocked acquires hp's lock once, frees every block hp still owns
// (heap.FreeBatch: one regroup per touched superblock), restores the
// emptiness invariant (once, at the end), and returns the count of blocks
// owned elsewhere, compacted to the front of bs. The freed blocks are
// accounted in one update after the lock is released — also when a free
// panics on a misused pointer, so the books match the heaps the blocks
// freed before it went back to.
func (h *Hoard) freeOwnedLocked(e env.Env, hp *heap.Heap, myIdx int, bs []superblock.Block) int {
	var freed heap.Freed
	hp.Lock.Lock(e)
	defer func() {
		hp.Lock.Unlock(e)
		if freed.Blocks > 0 {
			h.acct.OnFreeN(freed.Blocks, freed.Bytes)
			if hp.ID != myIdx {
				h.remote.Add(int64(freed.Blocks))
			}
		}
	}()
	rest := hp.FreeBatch(e, bs, &freed)
	e.Charge(env.OpFree, int64(freed.Blocks))
	if hp.ID != 0 {
		// Evict until the invariant holds, no superblock qualifies (the
		// benign all-full capacity-waste state), or every freed block has
		// paid for one move: the single free's rule, so a heap a malloc
		// left far below the invariant is not drained by one flush.
		for i := 0; i < freed.Blocks && hp.InvariantViolated() && h.restoreInvariant(e, hp); i++ {
		}
	}
	return rest
}
