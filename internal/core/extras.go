package core

import (
	"fmt"
	"io"

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
//
// The block bypasses the magazines on the way out; its free is an ordinary
// one.
func (h *Hoard) MallocAligned(t *alloc.Thread, size, align int) alloc.Ptr {
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("hoard: MallocAligned align %d not a power of two", align))
	}
	ts := t.State.(*ThreadState)
	if align <= sizeclassQuantumAlign {
		return h.mallocLocked(ts, size)
	}
	if align <= h.classes.MaxSize() {
		// Smallest class that fits and whose block size keeps alignment.
		if class, ok := h.classes.ClassFor(size); ok {
			for c := class; c < h.classes.NumClasses(); c++ {
				if h.classes.Size(c)%align == 0 {
					return h.mallocLocked(ts, h.classes.Size(c))
				}
			}
		}
	}
	if align <= vm.PageSize {
		// The large path is page-aligned.
		if size <= h.classes.MaxSize() {
			size = h.classes.MaxSize() + 1 // force the large path
		}
		return h.mallocLocked(ts, size)
	}
	// Oversized alignment: reserve an aligned span.
	lo := &alloc.LargeObj{}
	sp := h.space.Reserve(max(size, 1), align, lo)
	lo.Size = sp.Len
	t.Env.Charge(env.OpOSAlloc, 1)
	h.osReserves.Add(1)
	h.acct.OnLarge()
	h.acct.OnMalloc(sp.Len)
	if h.caps != nil {
		h.bypass.OnMalloc(sp.Len)
	}
	return alloc.Ptr(sp.Base)
}

// sizeclassQuantumAlign is the alignment every block already has.
const sizeclassQuantumAlign = 8

// Describe writes a human-readable snapshot of the allocator — its
// configuration, transfer and superblock counters, per-heap usage, and a
// last line on the magazines when they are on — in the spirit of
// malloc_stats(3). The application's books (operations, live
// and peak bytes) belong to the layer that serves the application, which
// prints them. Describe takes every heap lock briefly and may run
// concurrently with allocation (numbers are per-heap consistent, not
// globally atomic).
func (h *Hoard) Describe(w io.Writer, e env.Env) {
	st := h.heldStats()
	fmt.Fprintf(w, "hoard: S=%d f=%v K=%d heaps=%d classes=%d\n",
		h.cfg.SuperblockSize, h.cfg.EmptyFraction, h.cfg.K, h.cfg.Heaps, h.classes.NumClasses())
	fmt.Fprintf(w, "batches: %d refills, %d flushes, %d blocks moved batched\n",
		st.BatchRefills, st.BatchFlushes, st.BatchedBlocks)
	fmt.Fprintf(w, "superblocks: %d moved to global (%d live blocks carried), %d reused from global, %d from OS\n",
		st.SuperblockMoves, st.MovedLiveBlocks, st.GlobalHeapHits, st.OSReserves)
	fmt.Fprintf(w, "%d large mallocs, %d remote frees\n", st.LargeMallocs, st.RemoteFrees)
	for id, occ := range h.SampleHeaps(e, false) {
		if occ.Superblocks == 0 && id != 0 {
			continue
		}
		name := fmt.Sprintf("heap %d", id)
		if id == 0 {
			name = "global"
		}
		util := 0.0
		if occ.A > 0 {
			util = float64(occ.U) / float64(occ.A)
		}
		fmt.Fprintf(w, "  %-8s u=%-10d a=%-10d superblocks=%-5d utilization=%.2f\n",
			name, occ.U, occ.A, occ.Superblocks, util)
	}
	if h.caps != nil {
		h.describeMagazines(w)
	}
}
