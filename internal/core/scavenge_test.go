package core

import (
	"runtime/debug"
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/vm"
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

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// The RSS churn: each round rssWorkers goroutines each allocate rssBlocks
// blocks of rssBlockSize bytes, write every byte, and free them all, parking
// thousands of empty superblocks on the global heap.
const (
	rssWorkers   = 4
	rssBlocks    = 4096
	rssRounds    = 6
	rssBlockSize = 1024
)

// rssArm is one release policy's process-RSS trajectory over the churn.
type rssArm struct {
	// peak is the highest RSS growth over the arm's baseline, read with the
	// working set live and written; final is the growth after the last
	// round's frees and release.
	peak, final int64
	// scavenges and scavenged count the release activity.
	scavenges, scavenged int64
}

// churnRSS runs the RSS churn on a fresh arena-backed Hoard, calling
// ReleaseMemory after every round's frees if release is set. It skips where
// the arena is unavailable.
func churnRSS(t *testing.T, release bool) rssArm {
	// FreeOSMemory, not a bare GC: it returns the Go heap's free pages to
	// the OS before the baseline read, so the runtime's background
	// scavenger cannot shrink RSS during the arm and drive the deltas
	// below zero.
	debug.FreeOSMemory()
	baseline, err := vm.ReadRSS()
	if err != nil {
		t.Fatal(err)
	}
	h := newHoard(Config{Heaps: 2 * rssWorkers, Backend: "arena"})
	if h.Backend() != "arena" {
		t.Skipf("arena backend unavailable: %s", h.BackendFallbackReason())
	}
	defer h.Space().Close()

	ths := make([]*alloc.Thread, rssWorkers)
	ptrs := make([][]alloc.Ptr, rssWorkers)
	for w := range ths {
		ths[w] = thread(h, w)
		ptrs[w] = make([]alloc.Ptr, rssBlocks)
	}
	parallel := func(fn func(th *alloc.Thread, ps []alloc.Ptr)) {
		var wg sync.WaitGroup
		for w := range ths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(ths[w], ptrs[w])
			}()
		}
		wg.Wait()
	}
	var arm rssArm
	for r := 0; r < rssRounds; r++ {
		parallel(func(th *alloc.Thread, ps []alloc.Ptr) {
			for i := range ps {
				ps[i] = h.Malloc(th, rssBlockSize)
				buf := h.Bytes(ps[i], rssBlockSize)
				for j := range buf {
					buf[j] = byte(i)
				}
			}
		})
		if rss, err := vm.ReadRSS(); err == nil {
			arm.peak = max(arm.peak, rss-baseline)
		}
		parallel(func(th *alloc.Thread, ps []alloc.Ptr) {
			for _, p := range ps {
				h.Free(th, p)
			}
		})
		if release {
			h.ReleaseMemory(te)
		}
		rss, err := vm.ReadRSS()
		if err != nil {
			t.Fatal(err)
		}
		arm.final = rss - baseline
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	arm.scavenges, arm.scavenged = st.ScavengePasses, st.ScavengedBytes
	return arm
}

// TestReleaseMemoryReturnsRSS is ReleaseMemory's end-to-end receipt on real
// memory, the allocator-level companion of vm.TestArenaRSSReturn: the
// churn's written pages show up in the process RSS (read from
// /proc/self/statm), retaining everything keeps them, and releasing after
// every round hands most of them back to the OS.
func TestReleaseMemoryReturnsRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	if _, err := vm.ReadRSS(); err != nil {
		t.Skipf("no RSS source: %v", err)
	}
	off, forced := churnRSS(t, false), churnRSS(t, true)
	t.Logf("off: peak %d B, final %d B; forced: peak %d B, final %d B, %d scavenges, %d B released",
		off.peak, off.final, forced.peak, forced.final, forced.scavenges, forced.scavenged)
	if off.scavenges != 0 {
		t.Fatal("the retain arm scavenged")
	}
	if forced.scavenges == 0 || forced.scavenged == 0 {
		t.Fatal("the release arm never scavenged")
	}
	if forced.peak > 0 && forced.final >= forced.peak {
		t.Fatalf("release did not lower RSS: peak %d B, final %d B", forced.peak, forced.final)
	}
	if raceEnabled {
		// The race detector's shadow memory is part of the process RSS,
		// and the detector frees it on its own schedule (about 1 GB
		// once left mid-arm), so the deltas would measure the
		// detector, not the allocator.
		t.Skip("RSS deltas include the race detector's shadow memory")
	}
	written := int64(rssWorkers * rssBlocks * rssBlockSize)
	for mode, arm := range map[string]rssArm{"off": off, "forced": forced} {
		if arm.peak < written {
			t.Errorf("%s: RSS peak delta %d B, want >= the %d B written", mode, arm.peak, written)
		}
	}
	if float64(forced.final) >= 0.8*float64(forced.peak) {
		t.Errorf("release ended at %d B over a %d B peak, want < 0.8x", forced.final, forced.peak)
	}
}
