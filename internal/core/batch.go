package core

import (
	"fmt"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/heap"
	"hoardgo/internal/superblock"
)

// This file implements alloc.BatchAllocator for Hoard. The batch protocol
// (DESIGN.md §8) amortizes the dominant per-operation cost — the
// per-processor heap lock — over a magazine's worth of blocks: MallocBatch
// carves up to n blocks under ONE heap-lock acquisition, and FreeBatch
// groups its pointers by owning superblock with a single page-table pass and
// frees each owner's groups under one acquisition of that owner's lock.

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
	if n > len(out) {
		n = len(out)
	}
	if n <= 0 {
		return 0
	}
	e := t.Env
	if size > h.classes.MaxSize() {
		// Large objects bypass superblocks and take no heap lock, so
		// there is nothing to amortize; serve them per-block.
		for i := 0; i < n; i++ {
			out[i] = h.mallocLarge(e, size)
		}
		return n
	}
	class, _ := h.classes.ClassFor(size)
	blockSize := h.classes.Size(class)
	hp := h.heaps[t.State.(*threadState).heapIdx]

	// Lock-free prefix: claim runs from the warm superblock and then the
	// warm ring (i == -1 is the warm slot), each with one CAS per candidate,
	// until the batch is full or the candidates run dry. Whatever the prefix
	// cannot serve (empty lists, contention, sealed) falls through to the
	// locked refill below.
	got := 0
	if !h.cfg.DisableLockFree {
		for i := -1; i < heap.WarmRingSize && got < n; i++ {
			var ref *superblock.Ref
			if i < 0 {
				ref = hp.Warm(class)
			} else {
				ref = hp.WarmAt(class, i)
			}
			if ref == nil || ref.BlockSize != blockSize {
				continue
			}
			k, retries := ref.TryPopRun(e, out[got:n])
			if retries > 0 {
				h.fastRetries.Add(int64(retries))
			}
			if k == 0 {
				continue
			}
			got += k
			h.lfMallocs.Add(int64(k))
			if i >= 0 {
				// A ring superblock is serving pops; make it the warm one
				// so per-block Mallocs find it first.
				hp.PromoteWarm(class, ref)
			}
			owner := ref.SB.OwnerID()
			h.heaps[owner].HintAdd(int64(k) * int64(blockSize))
			h.acct.OnMallocN(owner, k, int64(k)*int64(blockSize))
		}
	}

	if got < n {
		lockedStart := got
		env.LockWith(hp.Lock, e, "batch-refill")
		for ; got < n; got++ {
			p, ok := hp.AllocBlock(e, class)
			if !ok {
				e.Charge(env.OpMallocSlow, 1)
				// As in Malloc: recycle an owned empty superblock before
				// touching the global heap (no a(i) growth, no eviction).
				if sb := hp.ReuseEmpty(e, class, blockSize); sb != nil {
					h.localReuses.Add(1)
					p, ok = hp.AllocBlock(e, class)
					if !ok {
						panic("hoard: reused superblock has no free block")
					}
					out[got] = p
					continue
				}
				g := h.heaps[0]
				env.LockWith(g.Lock, e, "global-take")
				sb := g.TakeSuper(e, class, blockSize)
				if sb != nil {
					// As in Malloc: ownership transfer must be visible
					// before the global lock is released.
					hp.Insert(sb)
					h.globalHits.Add(1)
					e.Charge(env.OpSuperblockMove, 1)
				}
				g.Lock.Unlock(e)
				if sb == nil {
					e.Charge(env.OpOSAlloc, 1)
					sb = superblock.New(h.space, h.cfg.SuperblockSize, class, blockSize)
					h.osReserves.Add(1)
					hp.Insert(sb)
				}
				p, ok = hp.AllocBlock(e, class)
				if !ok {
					panic("hoard: fresh superblock has no free block")
				}
			}
			out[got] = p
		}
		if !h.cfg.DisableLockFree {
			// Same as Malloc's refill: the lock is already paid for, so
			// arm the warm ring for the misses that follow this batch.
			hp.ArmRing(e, class)
		}
		hp.Lock.Unlock(e)
		h.acct.OnMallocN(hp.ID, n-lockedStart, int64(n-lockedStart)*int64(blockSize))
	}

	// Per-block bookkeeping really happened; the batch op is a surcharge
	// for marshalling (see the charging discipline in internal/env).
	e.Charge(env.OpMallocBatch, 1)
	e.Charge(env.OpMallocFast, int64(n))
	h.batchRefills.Add(1)
	h.batchedBlocks.Add(int64(n))
	return n
}

// batchGroup is one owning superblock's share of a FreeBatch.
type batchGroup struct {
	sb *superblock.Superblock
	ps []alloc.Ptr
}

// FreeBatch implements alloc.BatchAllocator. One page-table pass resolves
// and groups every pointer by owning superblock (large objects are released
// inline); then each group takes one of the per-block free's two paths:
//
//   - the lock-free path: the whole group is spliced onto its superblock's
//     free list with one CAS (superblock.FastFreeRun), whoever owns it;
//   - when that CAS is refused (sealed superblock, or DisableLockFree):
//     every refused group still owned by one heap is freed under ONE
//     acquisition of that heap's lock, with the emptiness invariant
//     restored once at the end (looping: a batch of B frees can demand up
//     to B evictions where a single free demands at most one).
//
// Ownership can change while we wait for a lock, so groups re-check under
// the lock and unclaimed groups retry — the batch form of the per-block
// free protocol's re-check dance.
func (h *Hoard) FreeBatch(t *alloc.Thread, ps []alloc.Ptr) {
	e := t.Env
	myIdx := t.State.(*threadState).heapIdx

	// Pass 1: one Lookup per pointer; free large objects inline, group
	// small blocks by superblock. Groups are kept in first-seen order in a
	// slice (batches are magazine-sized; a deterministic linear scan beats
	// a map's randomized iteration for simulator reproducibility).
	var groups []batchGroup
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
			found := false
			for i := range groups {
				if groups[i].sb == owner {
					groups[i].ps = append(groups[i].ps, p)
					found = true
					break
				}
			}
			if !found {
				groups = append(groups, batchGroup{sb: owner, ps: []alloc.Ptr{p}})
			}
		default:
			panic(fmt.Sprintf("hoard: free of foreign pointer %#x", uint64(p)))
		}
	}
	e.Charge(env.OpFreeBatch, 1)
	h.batchFlushes.Add(1)
	for _, g := range groups {
		h.batchedBlocks.Add(int64(len(g.ps)))
	}

	var fastBytes int64
	if !h.cfg.DisableLockFree {
		locked := groups[:0]
		for _, g := range groups {
			// Lock-free path, whoever owns the superblock: splice the whole
			// group onto its free list with one CAS. All-or-nothing — a
			// sealed superblock (migrating, evicting, decommitting) rejects
			// the run, and the group takes the locked path below. Read the
			// format first, while the group's live blocks pin it: once the
			// CAS lands the superblock may empty and be reformatted.
			class, blockSize := g.sb.Class(), g.sb.BlockSize()
			ok, _, retries := g.sb.FastFreeRun(e, g.ps)
			if retries > 0 {
				h.fastRetries.Add(int64(retries))
			}
			if !ok {
				locked = append(locked, g)
				continue
			}
			k := len(g.ps)
			bytes := int64(k) * int64(blockSize)
			h.lfFrees.Add(int64(k))
			owner := h.heaps[g.sb.OwnerID()]
			if owner.ID == myIdx {
				e.Charge(env.OpFree, int64(k))
			} else {
				e.Charge(env.OpRemoteFree, int64(k))
				h.remote.Add(int64(k))
				h.remoteFast.Add(int64(k))
			}
			owner.HintAdd(-bytes)
			h.acct.OnFreeN(owner.ID, k, bytes)
			if owner.ID == 0 {
				g.sb.SetParkedAt(h.clock())
				continue
			}
			owner.PublishWarm(class, g.sb.SelfRef())
			if owner.ID == myIdx {
				fastBytes += bytes
			} else if owner.HintSuspectsViolation() {
				h.confirmAndRestore(e, owner)
			}
		}
		groups = locked
	}
	for len(groups) > 0 {
		// Take the lock of the first group's owner once and free every
		// group that heap still owns under it. Groups whose ownership moved
		// while we waited go around again.
		n := len(groups)
		hp := h.heaps[groups[0].sb.OwnerID()]
		var nblk int
		var bytes int64
		groups, nblk, bytes = h.freeBatchLocked(e, hp, myIdx, groups)
		if nblk > 0 {
			h.acct.OnFreeN(hp.ID, nblk, bytes)
		}
		if len(groups) == n {
			// The lock bought us nothing (ownership raced away before we
			// acquired it); account the wasted pass like the per-block
			// retry does.
			e.Charge(env.OpListScan, 1)
		}
	}
	if fastBytes > 0 {
		// The lock-free groups bypassed the invariant check; the hint
		// decides (cheaply, racily) whether to take the slow path once for
		// the whole batch — the batch form of the per-block fast free.
		if hp := h.heaps[myIdx]; hp.ID != 0 && hp.HintSuspectsViolation() {
			h.confirmAndRestore(e, hp)
		}
	}
}

// freeBatchLocked acquires hp's lock once, frees every group still owned by
// hp, restores the emptiness invariant (once, at the end), and returns the
// groups whose ownership had moved elsewhere plus the blocks and bytes it
// freed, for the caller's single accounting update outside the critical
// section. The lock is released before returning, also when a free panics
// on a misused pointer. myIdx is the freeing thread's heap, for the
// cross-heap count.
func (h *Hoard) freeBatchLocked(e env.Env, hp *heap.Heap, myIdx int, groups []batchGroup) (missed []batchGroup, nblk int, bytes int64) {
	env.LockWith(hp.Lock, e, "batch-free")
	defer hp.Lock.Unlock(e)
	for _, g := range groups {
		if g.sb.OwnerID() != hp.ID {
			missed = append(missed, g)
			continue
		}
		hp.FreeBlocks(e, g.sb, g.ps)
		e.Charge(env.OpFree, int64(len(g.ps)))
		nblk += len(g.ps)
		bytes += int64(len(g.ps)) * int64(g.sb.BlockSize())
		if hp.ID != myIdx {
			h.remote.Add(int64(len(g.ps)))
		}
		if hp.ID == 0 {
			// This batch touched a parked superblock, so refresh the
			// scavenger's cold-age stamp as the per-block path does.
			g.sb.SetParkedAt(h.clock())
		}
	}
	if hp.ID != 0 && nblk > 0 {
		// A batch of B frees can push the heap up to B blocks past the
		// invariant; keep evicting until it holds (or no superblock
		// qualifies — the benign all-full capacity-waste state).
		for hp.InvariantViolated() && h.restoreInvariant(e, hp) {
		}
	}
	return missed, nblk, bytes
}
