package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// ClassSample is one size class's occupancy inside one heap. Only classes
// with at least one superblock are sampled.
type ClassSample struct {
	// Class is the size-class index; BlockSize its block size in bytes.
	Class     int `json:"class"`
	BlockSize int `json:"block_size"`
	// Superblocks is the number of superblocks of this class the heap
	// holds; InUseBytes the bytes allocated from them.
	Superblocks int   `json:"superblocks"`
	InUseBytes  int64 `json:"in_use_bytes"`
	// Groups is the fullness-group histogram: Groups[g] superblocks sit
	// in group g (the last entry is the completely-full group).
	Groups []int `json:"groups"`
}

// HeapSample is one heap's occupancy at one instant, the paper's u(i)/a(i)
// made observable.
type HeapSample struct {
	// ID is the heap index (0 = global).
	ID int `json:"id"`
	// U and A are the heap's in-use and held bytes.
	U int64 `json:"u"`
	A int64 `json:"a"`
	// Superblocks is the number of superblocks held.
	Superblocks int `json:"superblocks"`
	// Decommitted is how many of those superblocks ReleaseMemory has
	// returned to the OS (still held, recommitted on reuse).
	Decommitted int `json:"decommitted"`
	// Groups is the fullness-group histogram aggregated over classes.
	Groups []int `json:"groups"`
	// Classes is the per-class breakdown (non-empty classes only); nil in
	// aggregated-only snapshots.
	Classes []ClassSample `json:"classes,omitempty"`
}

// Snapshot is one observation of an allocator: counters, per-heap occupancy,
// magazine fill, and lock counters. Zero-valued sections are omitted from
// export (e.g. Heaps is empty for non-Hoard policies, Locks is empty without
// an instrumented lock factory).
type Snapshot struct {
	// WhenNS is the wall-clock instant of the sample (UnixNano).
	WhenNS int64 `json:"when_ns"`
	// Allocator is the allocator's name.
	Allocator string `json:"allocator"`
	// Counters are flat monotonic counters and gauges, keyed by a
	// Prometheus-safe suffix ("mallocs_total", "live_bytes", ...).
	Counters map[string]int64 `json:"counters"`
	// Heaps is the per-heap occupancy (Hoard policy only).
	Heaps []HeapSample `json:"heaps,omitempty"`
	// MagazineBytes is the bytes parked in thread-cache magazines and
	// remote batches, as sampled under load (core.Hoard.MagazineBytes);
	// -1 when no thread cache is layered.
	MagazineBytes int64 `json:"magazine_bytes"`
	// Locks are the instrumented-lock counters.
	Locks []LockStats `json:"locks,omitempty"`
}

// NewSnapshot returns a Snapshot stamped with the current time and no
// thread cache.
func NewSnapshot(allocator string) Snapshot {
	return Snapshot{
		WhenNS:        time.Now().UnixNano(),
		Allocator:     allocator,
		Counters:      make(map[string]int64),
		MagazineBytes: -1,
	}
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers followed by samples, one metric
// family at a time, deterministically ordered.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder

	// Flat counters. Names ending in _total are counters; the rest are
	// gauges.
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full := "hoard_" + name
		kind := "gauge"
		if strings.HasSuffix(name, "_total") {
			kind = "counter"
		}
		fmt.Fprintf(&b, "# HELP %s Allocator counter %s.\n", full, name)
		fmt.Fprintf(&b, "# TYPE %s %s\n", full, kind)
		fmt.Fprintf(&b, "%s{allocator=%q} %d\n", full, s.Allocator, s.Counters[name])
	}

	if len(s.Locks) > 0 {
		writeLockFamily(&b, "hoard_lock_acquires_total", "counter",
			"Successful lock acquisitions (Lock and successful TryLock).",
			s.Locks, func(l LockStats) int64 { return l.Acquires })
		writeLockFamily(&b, "hoard_lock_contended_total", "counter",
			"Lock calls that found the lock held and waited.",
			s.Locks, func(l LockStats) int64 { return l.Contended })
		writeLockFamily(&b, "hoard_lock_try_misses_total", "counter",
			"TryLock calls that found the lock held and gave up.",
			s.Locks, func(l LockStats) int64 { return l.TryMisses })
		writeLockFamily(&b, "hoard_lock_wait_ns_total", "counter",
			"Total wall nanoseconds spent waiting for the lock.",
			s.Locks, func(l LockStats) int64 { return l.WaitNS })
		writeLockFamily(&b, "hoard_lock_hold_ns_total", "counter",
			"Total wall nanoseconds the lock was held.",
			s.Locks, func(l LockStats) int64 { return l.HoldNS })
	}

	if len(s.Heaps) > 0 {
		writeHeapFamily(&b, "hoard_heap_in_use_bytes",
			"Bytes allocated from the heap's superblocks (the paper's u).",
			s.Heaps, func(h HeapSample) int64 { return h.U })
		writeHeapFamily(&b, "hoard_heap_held_bytes",
			"Bytes held by the heap in superblocks (the paper's a).",
			s.Heaps, func(h HeapSample) int64 { return h.A })
		writeHeapFamily(&b, "hoard_heap_superblocks",
			"Superblocks held by the heap.",
			s.Heaps, func(h HeapSample) int64 { return int64(h.Superblocks) })
		writeHeapFamily(&b, "hoard_heap_decommitted_superblocks",
			"Held superblocks currently decommitted by ReleaseMemory.",
			s.Heaps, func(h HeapSample) int64 { return int64(h.Decommitted) })
		const name = "hoard_heap_group_superblocks"
		fmt.Fprintf(&b, "# HELP %s Superblocks per fullness group (last group is completely full).\n", name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", name)
		for _, h := range s.Heaps {
			for g, n := range h.Groups {
				fmt.Fprintf(&b, "%s{heap=\"%d\",group=\"%d\"} %d\n", name, h.ID, g, n)
			}
		}
	}

	if s.MagazineBytes >= 0 {
		fmt.Fprintf(&b, "# HELP hoard_tcache_magazine_bytes Bytes parked in per-thread magazines and remote batches: bytes handed out by the heaps less sampled live bytes, off by open threads' unpublished hits.\n")
		fmt.Fprintf(&b, "# TYPE hoard_tcache_magazine_bytes gauge\n")
		fmt.Fprintf(&b, "hoard_tcache_magazine_bytes{allocator=%q} %d\n", s.Allocator, s.MagazineBytes)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

func writeLockFamily(b *strings.Builder, name, kind, help string, locks []LockStats, get func(LockStats) int64) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, kind)
	for _, l := range locks {
		fmt.Fprintf(b, "%s{lock=%q} %d\n", name, l.Name, get(l))
	}
}

func writeHeapFamily(b *strings.Builder, name, help string, heaps []HeapSample, get func(HeapSample) int64) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s gauge\n", name)
	for _, h := range heaps {
		fmt.Fprintf(b, "%s{heap=\"%d\"} %d\n", name, h.ID, get(h))
	}
}
