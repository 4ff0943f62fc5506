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
// one acquisition of that heap's lock.

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

// freeCached frees a magazine's or remote batch's flush (DESIGN.md §11):
// every block is already marked free (superblock.MarkCached) and carries its
// superblock, so the flush looks nothing up. bs is used as scratch space.
//
// It frees the blocks owner by owner: it takes the lock of the first
// block's owner once, frees every block that heap still owns, and goes
// around again for blocks whose ownership moved while it waited — the batch
// form of the per-block free protocol's re-check dance. Each pass restores
// the emptiness invariant at its end, with at most one eviction per block it
// freed, the rule of a single free.
func (h *Hoard) freeCached(ts *ThreadState, bs []superblock.Block) {
	e, myIdx := ts.e, ts.heapIdx
	e.Charge(env.OpFreeBatch, 1)
	h.batchFlushes.Add(1)
	h.batchedBlocks.Add(int64(len(bs)))
	for len(bs) > 0 {
		n := len(bs)
		rest := h.freeOwnedLocked(e, h.heaps[bs[0].SB.OwnerID()], myIdx, bs)
		bs = bs[:rest]
		if rest == n {
			// The lock bought us nothing (ownership raced away before we
			// acquired it); account the wasted pass like the per-block
			// retry does.
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
