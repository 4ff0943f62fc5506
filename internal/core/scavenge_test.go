package core

import (
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
)

var te = &env.RealEnv{}

// churnToGlobal allocates count objects of size sz and frees them all, which
// evicts emptied superblocks to the global heap.
func churnToGlobal(h *Hoard, th *alloc.Thread, count, sz int) {
	ps := make([]alloc.Ptr, count)
	for i := range ps {
		ps[i] = h.Malloc(th, sz)
	}
	for _, p := range ps {
		h.Free(th, p)
	}
}

func TestScavengeGlobalRoundTrip(t *testing.T) {
	h := newHoard(Config{Heaps: 1})
	th := thread(h, 0)
	churnToGlobal(h, th, 2000, 64)

	// Nothing is live, so every superblock parked on the global heap is
	// empty.
	empty := h.heaps[0].A()
	if empty == 0 {
		t.Fatal("no empty superblocks parked on the global heap after churn")
	}
	before := h.Space().Committed()

	released := h.ReleaseMemory(te)
	if released != empty {
		t.Fatalf("released %d bytes, want the full empty surplus %d", released, empty)
	}
	st := h.Space().Stats()
	if st.Committed != before-released {
		t.Fatalf("Committed = %d, want %d - %d", st.Committed, before, released)
	}
	if st.DecommittedBytes != released {
		t.Fatalf("DecommittedBytes = %d, want %d", st.DecommittedBytes, released)
	}
	if st.Reserved < st.Committed {
		t.Fatalf("reserved %d < committed %d", st.Reserved, st.Committed)
	}
	if got := h.ReleaseMemory(te); got != 0 {
		t.Fatalf("second ReleaseMemory released %d, want 0", got)
	}
	if s := h.Stats(); s.ScavengePasses != 1 || s.ScavengedBytes != released {
		t.Fatalf("ScavengePasses %d ScavengedBytes %d, want 1 / %d", s.ScavengePasses, s.ScavengedBytes, released)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	// Demand returns: the scavenged superblocks are recommitted
	// transparently and every block is usable (written through).
	ps := make([]alloc.Ptr, 2000)
	for i := range ps {
		ps[i] = h.Malloc(th, 64)
		buf := h.Bytes(ps[i], 64)
		for j := range buf {
			buf[j] = byte(i)
		}
	}
	if got := h.Space().DecommittedBytes(); got != 0 {
		// All scavenged superblocks should be back in service for this
		// same-class refill.
		t.Fatalf("DecommittedBytes after reuse = %d, want 0", got)
	}
	for i, p := range ps {
		buf := h.Bytes(p, 64)
		for j := range buf {
			if buf[j] != byte(i) {
				t.Fatalf("object %d byte %d corrupted", i, j)
			}
		}
		h.Free(th, p)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseMemoryCommittedAccounting: pages a forced scavenge returns to
// the OS must leave the public footprint gauge (Committed) — a release that
// only bumped a counter while the gauge kept ratcheting would make the
// footprint unobservable — while the reservation and the peaks stay put.
func TestReleaseMemoryCommittedAccounting(t *testing.T) {
	h := newHoard(Config{Heaps: 1})
	th := thread(h, 0)
	ps := make([]alloc.Ptr, 2000)
	for i := range ps {
		ps[i] = h.Malloc(th, 64)
	}
	peakLive := h.Stats().LiveBytes
	committedAtPeak := h.Space().Committed()
	for _, p := range ps {
		h.Free(th, p)
	}
	reserved := h.Space().Reserved()
	released := h.ReleaseMemory(te)
	if released == 0 {
		t.Fatal("ReleaseMemory returned nothing to the OS")
	}
	st := h.Space().Stats()
	if st.Committed >= committedAtPeak {
		t.Fatalf("Committed %d did not drop from its loaded value %d", st.Committed, committedAtPeak)
	}
	if st.Reserved != reserved || st.Reserved-st.Committed != st.DecommittedBytes {
		t.Fatalf("reserved %d (was %d), committed %d, decommitted %d: reserved must stay and cover both",
			st.Reserved, reserved, st.Committed, st.DecommittedBytes)
	}
	if st.PeakCommitted < peakLive {
		t.Fatalf("PeakCommitted %d below peak live bytes %d", st.PeakCommitted, peakLive)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestScavengeThenEviction covers scavenging followed by cross-class reuse:
// a decommitted superblock reinitialized through TakeSuper must not
// double-count its bytes.
func TestScavengeThenEviction(t *testing.T) {
	h := newHoard(Config{Heaps: 1})
	th := thread(h, 0)
	churnToGlobal(h, th, 2000, 64)
	h.ReleaseMemory(te)
	// Re-churn a different size class so the decommitted superblocks are
	// reinitialized cross-class through TakeSuper.
	churnToGlobal(h, th, 500, 128)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := h.Space().Stats()
	if st.Reserved < st.Committed {
		t.Fatalf("reserved %d < committed %d", st.Reserved, st.Committed)
	}
}
