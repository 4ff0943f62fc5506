package core

import (
	"fmt"
	"io"
	"sort"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/vm"
)

// MallocAligned returns a block of at least size bytes whose address is a
// multiple of align (a power of two). Small requests are served from the
// smallest size class that both fits and preserves the alignment (class
// sizes divide evenly into the S-aligned superblock, so any class whose
// block size is a multiple of align yields aligned blocks); requests with
// no such class fall through to the page-aligned large-object path, which
// satisfies any align up to the page size. Larger alignments reserve an
// aligned span directly.
func (h *Hoard) MallocAligned(t *alloc.Thread, size, align int) alloc.Ptr {
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("hoard: MallocAligned align %d not a power of two", align))
	}
	if align <= sizeclassQuantumAlign {
		return h.Malloc(t, size)
	}
	if align <= h.classes.MaxSize() {
		// Smallest class that fits and whose block size keeps alignment.
		if class, ok := h.classes.ClassFor(size); ok {
			for c := class; c < h.classes.NumClasses(); c++ {
				if h.classes.Size(c)%align == 0 {
					return h.Malloc(t, h.classes.Size(c))
				}
			}
		}
	}
	if align <= vm.PageSize {
		// The large path is page-aligned.
		if size <= h.classes.MaxSize() {
			size = h.classes.MaxSize() + 1 // force the large path
		}
		return h.Malloc(t, size)
	}
	// Oversized alignment: reserve an aligned span.
	lo := &largeObj{}
	sp := h.space.Reserve(max(size, 1), align, lo)
	lo.size = sp.Len
	t.Env.Charge(env.OpOSAlloc, 1)
	h.osReserves.Add(1)
	h.acct.OnLarge(0)
	h.acct.OnMalloc(0, sp.Len)
	return alloc.Ptr(sp.Base)
}

// sizeclassQuantumAlign is the alignment every block already has.
const sizeclassQuantumAlign = 8

// HeapInfo describes one heap for introspection.
type HeapInfo struct {
	// ID is the heap index (0 = global).
	ID int
	// U and A are the heap's in-use and held bytes.
	U, A int64
	// Superblocks is the number held.
	Superblocks int
}

// Describe writes a human-readable snapshot of the allocator — overall
// counters, per-heap usage, and the busiest size classes — in the spirit of
// malloc_stats(3). It takes every heap lock briefly and may run concurrently
// with allocation (numbers are per-heap consistent, not globally atomic).
func (h *Hoard) Describe(w io.Writer, e env.Env) {
	st := h.Stats()
	fmt.Fprintf(w, "hoard: S=%d f=%v K=%d heaps=%d classes=%d\n",
		h.cfg.SuperblockSize, h.cfg.EmptyFraction, h.cfg.K, h.cfg.Heaps, h.classes.NumClasses())
	fmt.Fprintf(w, "ops: %d mallocs (%d large), %d frees, %d remote frees\n",
		st.Mallocs, st.LargeMallocs, st.Frees, st.RemoteFrees)
	fmt.Fprintf(w, "batches: %d refills, %d flushes, %d blocks moved batched\n",
		st.BatchRefills, st.BatchFlushes, st.BatchedBlocks)
	fmt.Fprintf(w, "superblocks: %d moved to global (%d live blocks carried), %d reused from global, %d from OS\n",
		st.SuperblockMoves, st.MovedLiveBlocks, st.GlobalHeapHits, st.OSReserves)
	fmt.Fprintf(w, "memory: %d B live (peak %d), %d B committed (peak %d)\n",
		st.LiveBytes, st.PeakLiveBytes, h.space.Committed(), h.space.PeakCommitted())
	type row struct {
		info HeapInfo
	}
	var rows []row
	for _, hp := range h.heaps {
		env.LockWith(hp.Lock, e, "describe")
		rows = append(rows, row{HeapInfo{ID: hp.ID, U: hp.U(), A: hp.A(), Superblocks: hp.Superblocks()}})
		hp.Lock.Unlock(e)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].info.ID < rows[j].info.ID })
	for _, r := range rows {
		if r.info.Superblocks == 0 && r.info.ID != 0 {
			continue
		}
		name := fmt.Sprintf("heap %d", r.info.ID)
		if r.info.ID == 0 {
			name = "global"
		}
		util := 0.0
		if r.info.A > 0 {
			util = float64(r.info.U) / float64(r.info.A)
		}
		fmt.Fprintf(w, "  %-8s u=%-10d a=%-10d superblocks=%-5d utilization=%.2f\n",
			name, r.info.U, r.info.A, r.info.Superblocks, util)
	}
}

// Heaps returns a snapshot of every heap's usage, global heap first.
func (h *Hoard) Heaps(e env.Env) []HeapInfo {
	out := make([]HeapInfo, 0, len(h.heaps))
	for _, hp := range h.heaps {
		env.LockWith(hp.Lock, e, "describe")
		out = append(out, HeapInfo{ID: hp.ID, U: hp.U(), A: hp.A(), Superblocks: hp.Superblocks()})
		hp.Lock.Unlock(e)
	}
	return out
}
