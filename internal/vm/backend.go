package vm

import (
	"errors"
	"sync/atomic"
)

// Backend is the memory substrate an allocator runs on: a Space over the
// simulated memory (New, NewSim), the default and the substrate for every
// deterministic experiment, or over real mmap'd memory (NewArena), whose
// footprint numbers are measurable as process RSS.
type Backend = *Space

// Slots is a Space's superblock slot table: a region of equal,
// SpanSize-aligned slots, each holding at most one span of exactly the slot
// size. Lookup resolves an address in the region with one subtract, one
// shift and one atomic load, and no call.
type Slots struct {
	base      uint64 // start of the slot region
	slotLen   uint64 // byte length of the slot region
	spanShift uint   // log2 of the slot size
	slots     []atomic.Pointer[Span]
}

// Lookup returns the live span in addr's slot, or nil when addr lies outside
// the slot region or its slot is empty. A nil result settles nothing: the
// caller asks the Space's Lookup, which resolves every other span.
func (s *Slots) Lookup(addr uint64) *Span {
	if off := addr - s.base; off < s.slotLen {
		return s.slots[off>>s.spanShift].Load()
	}
	return nil
}

// ErrArenaUnsupported is returned by NewArena on platforms without the
// mmap-based memory (everything but linux/amd64 and linux/arm64).
var ErrArenaUnsupported = errors.New("vm: arena backend requires linux/amd64 or linux/arm64")

// ArenaOptions configures a Space's geometry, on either memory. The zero
// value selects the defaults. The regions are virtual: nothing is committed
// until reserved, so a big region costs its index tables, not memory.
type ArenaOptions struct {
	// SpanSize is the superblock size the slot region is carved into. It
	// must be a power of two and at least one page. Reserves of exactly
	// this size and alignment ≤ SpanSize resolve by pure address
	// arithmetic. Default 8192, the paper's S.
	SpanSize int
	// SlotRegionBytes is the virtual size of the superblock slot region.
	// Default 1 GiB; rounded up to a SpanSize multiple.
	SlotRegionBytes int64
	// LargeRegionBytes is the virtual size of the first large region,
	// which serves every other span. Default 512 MiB; rounded up to a
	// SpanSize multiple.
	LargeRegionBytes int64
	// GrowBytes is the virtual size of each large region added when the
	// existing ones are exhausted (exhaustion grows the space rather than
	// panicking; see Stats.Grows). A single over-sized Reserve gets a
	// region sized to fit it. Default 64 MiB; rounded up to a SpanSize
	// multiple.
	GrowBytes int64
}

// withDefaults fills the zero fields of o with the default geometry.
func (o ArenaOptions) withDefaults() ArenaOptions {
	if o.SpanSize == 0 {
		o.SpanSize = 8192
	}
	if o.SlotRegionBytes == 0 {
		o.SlotRegionBytes = 1 << 30
	}
	if o.LargeRegionBytes == 0 {
		o.LargeRegionBytes = 512 << 20
	}
	if o.GrowBytes == 0 {
		o.GrowBytes = 64 << 20
	}
	return o
}

// memory is what a Space's addresses are backed by. The Space calls every
// method but name with its mutex held, or during construction.
type memory interface {
	// name identifies the memory: "sim" or "arena".
	name() string
	// mapRegion reserves n bytes of address space whose base is a multiple
	// of align, returning the base and, for real memory, the mapping.
	mapRegion(n int64, align int) (base uint64, mem []byte, err error)
	// commit backs the n bytes at base, inside r, and returns them.
	commit(r *region, base uint64, n int) []byte
	// drop returns b's pages; they read back as zeros.
	drop(b []byte)
	// close releases every mapping.
	close() error
}

// simBase is the first simulated address. Zero is never handed out, so
// that 0 can serve as the allocator's nil.
const simBase = 1 << 20

// simMemory is the simulated memory: synthetic addresses from a cursor, and
// a Go byte slice behind each span.
type simMemory struct{ next uint64 }

func (m *simMemory) name() string { return "sim" }

func (m *simMemory) mapRegion(n int64, align int) (uint64, []byte, error) {
	base := (m.next + uint64(align) - 1) &^ (uint64(align) - 1)
	m.next = base + uint64(n)
	return base, nil, nil
}

func (m *simMemory) commit(_ *region, _ uint64, n int) []byte { return make([]byte, n) }

func (m *simMemory) drop(b []byte) { clear(b) }

func (m *simMemory) close() error { return nil }

// counters is a Space's reserved/committed accounting. Embedding it
// provides the Stats and gauge accessor methods.
type counters struct {
	reserved     atomic.Int64
	peakReserved atomic.Int64
	committed    atomic.Int64
	peak         atomic.Int64
	decommitted  atomic.Int64
	reserves     atomic.Int64
	releases     atomic.Int64
	recycled     atomic.Int64
	decommits    atomic.Int64
	recommits    atomic.Int64
	grows        atomic.Int64
}

// addCommitted adds delta committed bytes and maintains the high-water mark.
func (c *counters) addCommitted(delta int64) {
	v := c.committed.Add(delta)
	for {
		p := c.peak.Load()
		if v <= p || c.peak.CompareAndSwap(p, v) {
			break
		}
	}
}

// addReserved adds delta reserved bytes and maintains the high-water mark.
func (c *counters) addReserved(delta int64) {
	v := c.reserved.Add(delta)
	for {
		p := c.peakReserved.Load()
		if v <= p || c.peakReserved.CompareAndSwap(p, v) {
			break
		}
	}
}

// Stats returns a snapshot of the accounting.
func (c *counters) Stats() Stats {
	return Stats{
		Reserved:         c.reserved.Load(),
		PeakReserved:     c.peakReserved.Load(),
		Committed:        c.committed.Load(),
		PeakCommitted:    c.peak.Load(),
		DecommittedBytes: c.decommitted.Load(),
		Reserves:         c.reserves.Load(),
		Releases:         c.releases.Load(),
		Recycled:         c.recycled.Load(),
		Decommits:        c.decommits.Load(),
		Recommits:        c.recommits.Load(),
		Grows:            c.grows.Load(),
	}
}

// Reserved returns the number of address-space bytes currently reserved.
func (c *counters) Reserved() int64 { return c.reserved.Load() }

// Committed returns the number of bytes currently committed.
func (c *counters) Committed() int64 { return c.committed.Load() }

// DecommittedBytes returns the reserved-but-unbacked byte total.
func (c *counters) DecommittedBytes() int64 { return c.decommitted.Load() }
