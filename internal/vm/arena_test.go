package vm

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// testSpace builds a small Space with newSpace, skipping the test on a
// platform without that memory. Cleanup closes it.
func testSpace(t *testing.T, newSpace func(ArenaOptions) (Backend, error), opts ArenaOptions) Backend {
	t.Helper()
	if opts.SlotRegionBytes == 0 {
		opts.SlotRegionBytes = 64 << 20
	}
	if opts.LargeRegionBytes == 0 {
		opts.LargeRegionBytes = 64 << 20
	}
	s, err := newSpace(opts)
	if errors.Is(err, ErrArenaUnsupported) {
		t.Skipf("backend unavailable: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

// forEachBackend runs fn as a subtest on a small simulated Space and, where
// the platform has one, on an arena of the same geometry.
func forEachBackend(t *testing.T, opts ArenaOptions, fn func(t *testing.T, b Backend)) {
	t.Run("sim", func(t *testing.T) { fn(t, testSpace(t, NewSim, opts)) })
	t.Run("arena", func(t *testing.T) { fn(t, testSpace(t, NewArena, opts)) })
}

// TestArenaZeroFillAfterRecommit: on real memory the OS guarantees that a
// decommitted-then-recommitted span reads back as zeros, even though
// Recommit itself writes nothing. The madvise covers exactly the span: the
// neighbouring spans on either side keep their contents.
func TestArenaZeroFillAfterRecommit(t *testing.T) {
	const slot = 8192
	a := testSpace(t, NewArena, ArenaOptions{SpanSize: slot})

	var spans [3]*Span // consecutive slots: before, decommitted, after
	for i := range spans {
		spans[i] = a.Reserve(slot, slot, i)
		data := spans[i].Data()
		for j := range data {
			data[j] = 0xAB
		}
	}
	before, sp, after := spans[0], spans[1], spans[2]
	if before.End() != sp.Base || sp.End() != after.Base {
		t.Fatalf("slot spans not adjacent: %#x %#x %#x", before.Base, sp.Base, after.Base)
	}
	sp.Decommit()
	sp.Recommit()

	for _, off := range []int{0, 1, PageSize - 1, PageSize, sp.Len - 1} {
		if got := sp.Bytes(off, 1)[0]; got != 0 {
			t.Fatalf("recommitted byte %d = %#x, want 0 (OS zero-fill)", off, got)
		}
	}
	if got := before.Bytes(before.Len-1, 1)[0]; got != 0xAB {
		t.Fatalf("last byte of the span before = %#x, want 0xAB", got)
	}
	if got := after.Bytes(0, 1)[0]; got != 0xAB {
		t.Fatalf("first byte of the span after = %#x, want 0xAB", got)
	}
}

// TestArenaArithmeticResolution exercises the slot region's address
// arithmetic: every byte of a superblock-sized span resolves to its span
// through the slot table, neighbors stay nil, and releases are immediate.
func TestArenaArithmeticResolution(t *testing.T) {
	forEachBackend(t, ArenaOptions{SpanSize: 8192}, func(t *testing.T, a Backend) {
		sp1 := a.Reserve(8192, 8192, "sb1")
		sp2 := a.Reserve(8192, 8192, "sb2")
		if sp1.Base%8192 != 0 || sp2.Base%8192 != 0 {
			t.Fatalf("slot spans misaligned: %#x %#x", sp1.Base, sp2.Base)
		}
		for off := uint64(0); off < 8192; off += 512 {
			if got := a.Slots.Lookup(sp1.Base + off); got != sp1 {
				t.Fatalf("Slots.Lookup(%#x) = %v, want sp1", sp1.Base+off, got)
			}
			if got := a.Lookup(sp1.Base + off); got != sp1 {
				t.Fatalf("Lookup(%#x) = %v, want sp1", sp1.Base+off, got)
			}
		}
		if got := a.Lookup(sp1.Base + 8191); got != sp1 {
			t.Fatalf("last byte resolved to %v", got)
		}
		if got := a.Lookup(sp1.Base - 1); got != nil && got != sp2 {
			t.Fatalf("byte before sp1 resolved to unrelated span %v", got)
		}
		a.Release(sp1)
		if got := a.Lookup(sp1.Base); got != nil {
			t.Fatalf("released slot still resolves to %v", got)
		}
		// The freed slot is reused by the next superblock-sized reserve.
		sp3 := a.Reserve(8192, 8192, "sb3")
		if sp3.Base != sp1.Base {
			t.Fatalf("slot not recycled: got %#x, want %#x", sp3.Base, sp1.Base)
		}
		if a.Stats().Recycled != 1 {
			t.Fatalf("Recycled = %d, want 1", a.Stats().Recycled)
		}
		a.Release(sp2)
		a.Release(sp3)
		if got := a.Reserved(); got != 0 {
			t.Fatalf("Reserved = %d after releasing everything", got)
		}
	})
}

// TestArenaLargeSpans exercises the large region: non-slot sizes,
// alignment beyond the slot size, interior-pointer resolution.
func TestArenaLargeSpans(t *testing.T) {
	forEachBackend(t, ArenaOptions{SpanSize: 8192}, func(t *testing.T, a Backend) {
		big := a.Reserve(5*PageSize, 0, "big")
		if big.Len != 5*PageSize {
			t.Fatalf("Len = %d", big.Len)
		}
		for off := 0; off < big.Len; off += PageSize {
			if got := a.Lookup(big.Base + uint64(off)); got != big {
				t.Fatalf("interior page %d resolved to %v", off/PageSize, got)
			}
		}
		if got := a.Lookup(big.End()); got == big {
			t.Fatal("one-past-end resolved to the span")
		}
		if got := a.Slots.Lookup(big.Base); got != nil {
			t.Fatalf("large span in the slot table: %v", got)
		}

		// Superblock size but over-aligned: must still work, via the large
		// region.
		wide := a.Reserve(8192, 32768, "wide")
		if wide.Base%32768 != 0 {
			t.Fatalf("aligned reserve at %#x", wide.Base)
		}
		if got := a.Lookup(wide.Base + 100); got != wide {
			t.Fatalf("aligned span did not resolve: %v", got)
		}
		a.Release(big)
		a.Release(wide)
	})
}

// TestArenaSlotExhaustionDegrades drains a four-slot slot region and keeps
// reserving superblock-sized spans: the overflow spans must come from the
// large path (no panic), resolve through Lookup, hold data, and recycle.
func TestArenaSlotExhaustionDegrades(t *testing.T) {
	opts := ArenaOptions{SpanSize: 8192, SlotRegionBytes: 4 * 8192, LargeRegionBytes: 16 * 8192}
	forEachBackend(t, opts, func(t *testing.T, a Backend) {
		var spans []*Span
		for i := 0; i < 12; i++ {
			sp := a.Reserve(8192, 8192, i)
			sp.Data()[0] = byte(i)
			sp.Data()[8191] = byte(i)
			spans = append(spans, sp)
		}
		for i, sp := range spans {
			if got := a.Lookup(sp.Base + 4096); got != sp {
				t.Fatalf("span %d interior lookup = %v, want %v", i, got, sp)
			}
			if inSlots := a.Slots.Lookup(sp.Base) == sp; inSlots != (i < 4) {
				t.Fatalf("span %d in the slot table: %v, want %v", i, inSlots, i < 4)
			}
			if sp.Data()[0] != byte(i) || sp.Data()[8191] != byte(i) {
				t.Fatalf("span %d lost its contents", i)
			}
		}
		// Overflow spans sit outside the slot region but are first-class:
		// they release cleanly and are recycled by the next same-size
		// reserve.
		last := spans[len(spans)-1]
		a.Release(last)
		if got := a.Lookup(last.Base); got != nil {
			t.Fatalf("released overflow span still resolves to %v", got)
		}
		re := a.Reserve(8192, 8192, "re")
		if re.Base != last.Base {
			t.Fatalf("overflow span not recycled: got %#x, want %#x", re.Base, last.Base)
		}
		a.Release(re)
		for _, sp := range spans[:len(spans)-1] {
			a.Release(sp)
		}
		if got := a.Reserved(); got != 0 {
			t.Fatalf("Reserved = %d after releasing everything", got)
		}
	})
}

// TestArenaLargeRegionGrows exhausts a tiny large region and verifies the
// space adds large regions instead of panicking: spans in added regions
// resolve via Lookup, support decommit/recommit, count in Stats.Grows, and
// are released by Close (the cleanup checks its error).
func TestArenaLargeRegionGrows(t *testing.T) {
	opts := ArenaOptions{
		SpanSize:         8192,
		SlotRegionBytes:  4 * 8192,
		LargeRegionBytes: 8 * 8192,
		GrowBytes:        32 * 8192,
	}
	forEachBackend(t, opts, func(t *testing.T, a Backend) {
		// Each span is a quarter of the first large region; the loop runs
		// far past it and into several added ones.
		const spanLen = 2 * 8192
		var spans []*Span
		for i := 0; i < 40; i++ {
			sp := a.Reserve(spanLen, 0, i)
			data := sp.Data()
			for j := range data {
				data[j] = byte(i)
			}
			spans = append(spans, sp)
		}
		if st := a.Stats(); st.Grows < 2 {
			t.Fatalf("Grows = %d, want at least 2 added regions", st.Grows)
		}
		for i, sp := range spans {
			if got := a.Lookup(sp.Base + spanLen - 1); got != sp {
				t.Fatalf("span %d last-byte lookup = %v, want %v", i, got, sp)
			}
			if sp.Data()[0] != byte(i) {
				t.Fatalf("span %d lost its contents", i)
			}
		}

		// Decommit/recommit inside an added region zero-fills the span,
		// and the neighbouring span keeps its contents.
		prev, ext := spans[len(spans)-2], spans[len(spans)-1]
		if prev.End() != ext.Base {
			t.Fatalf("spans in an added region not adjacent: %#x then %#x", prev.Base, ext.Base)
		}
		ext.Decommit()
		ext.Recommit()
		if got := ext.Bytes(0, 1)[0]; got != 0 {
			t.Fatalf("recommitted byte = %#x, want 0", got)
		}
		if got := ext.Bytes(ext.Len-1, 1)[0]; got != 0 {
			t.Fatalf("recommitted last byte = %#x, want 0", got)
		}
		if got := prev.Bytes(prev.Len-1, 1)[0]; got != byte(len(spans)-2) {
			t.Fatal("neighbouring span lost its contents")
		}

		// An over-sized request gets a region grown to fit it.
		huge := a.Reserve(64*8192, 0, "huge")
		if got := a.Lookup(huge.Base + uint64(huge.Len) - 1); got != huge {
			t.Fatalf("over-sized span lookup = %v, want %v", got, huge)
		}
		a.Release(huge)

		for _, sp := range spans {
			a.Release(sp)
		}
		if got := a.Reserved(); got != 0 {
			t.Fatalf("Reserved = %d after releasing everything", got)
		}
	})
}

// TestArenaRSSReturn is the backend-level ground truth for page release:
// touching committed pages raises the process RSS, Decommit's madvise
// genuinely gives the pages back to the OS, and the freed range reads zero
// afterwards. Measured via /proc/self/statm, not simulated accounting. The
// large case decommits one 64 MiB span; the slots case decommits 4 MiB of
// 8 KiB superblock slots one by one, each madvise splitting the huge page
// that holds it.
func TestArenaRSSReturn(t *testing.T) {
	if _, err := ReadRSS(); err != nil {
		t.Skipf("no RSS source: %v", err)
	}
	t.Run("large", func(t *testing.T) {
		const size = 64 << 20
		a := testSpace(t, NewArena, ArenaOptions{LargeRegionBytes: size})
		checkRSSReturn(t, a, []*Span{a.Reserve(size, 0, "rss")})
	})
	t.Run("slots", func(t *testing.T) {
		const slot, size = 8192, 4 << 20
		a := testSpace(t, NewArena, ArenaOptions{SpanSize: slot})
		spans := make([]*Span, size/slot)
		for i := range spans {
			spans[i] = a.Reserve(slot, slot, i)
		}
		checkRSSReturn(t, a, spans)
	})
}

// checkRSSReturn writes every page of spans, decommits them all, and checks
// that the process RSS rose and then fell by at least half their bytes and
// that a recommitted span reads zero. It releases the spans to a.
func checkRSSReturn(t *testing.T, a Backend, spans []*Span) {
	t.Helper()
	size := 0
	for _, sp := range spans {
		size += sp.Len
	}
	before := mustReadRSS(t)
	for _, sp := range spans {
		data := sp.Data()
		for i := 0; i < len(data); i += PageSize {
			data[i] = 1
		}
	}
	touched := mustReadRSS(t)
	if grew := touched - before; grew < int64(size/2) {
		t.Fatalf("RSS grew only %d bytes after touching %d", grew, size)
	}
	for _, sp := range spans {
		sp.Decommit()
	}
	if dropped := touched - mustReadRSS(t); dropped < int64(size/2) {
		t.Fatalf("RSS dropped only %d bytes after decommitting %d", dropped, size)
	}
	sp := spans[len(spans)-1]
	sp.Recommit()
	if got := sp.Bytes(0, 8); got[0] != 0 {
		t.Fatalf("page content survived decommit: %#x", got[0])
	}
	for _, sp := range spans {
		a.Release(sp)
	}
}

func mustReadRSS(t *testing.T) int64 {
	t.Helper()
	rss, err := ReadRSS()
	if err != nil {
		t.Fatal(err)
	}
	return rss
}

// TestArenaHugePageCommit pins how the arena asks for transparent huge
// pages: a touched slot span starts on a 2 MiB boundary and lies in a
// read-write mapping that covers the whole 2 MiB chunk and is advised
// MADV_HUGEPAGE (VmFlags "hg"), while the accounting counts only the span.
// Whether the kernel found a free huge page for it is only logged.
func TestArenaHugePageCommit(t *testing.T) {
	const slot, chunk = 8192, 2 << 20
	a := testSpace(t, NewArena, ArenaOptions{SpanSize: slot})
	sp := a.Reserve(slot, slot, "sb")
	sp.Data()[0] = 1

	vma, err := readSmaps(sp.Base)
	if err != nil {
		t.Skipf("no /proc/self/smaps: %v", err)
	}
	t.Logf("%#x-%#x %s AnonHugePages: %s VmFlags: %s", vma.start, vma.end, vma.perms,
		vma.fields["AnonHugePages"], vma.fields["VmFlags"])
	// The first slot is the region's base. The kernel may merge the
	// read-write mapping with a neighbour, so check that it covers the
	// whole chunk, not that it starts there.
	if sp.Base%chunk != 0 || vma.start > sp.Base || vma.end < sp.Base+chunk {
		t.Errorf("span %#x lies in [%#x, %#x), want a mapping over the whole 2 MiB chunk it starts",
			sp.Base, vma.start, vma.end)
	}
	if !strings.HasPrefix(vma.perms, "rw") {
		t.Errorf("span's mapping is %s, want rw", vma.perms)
	}
	if _, err := os.Stat("/sys/kernel/mm/transparent_hugepage"); err != nil {
		t.Logf("kernel without transparent huge pages: %v", err)
	} else if !slices.Contains(strings.Fields(vma.fields["VmFlags"]), "hg") {
		t.Errorf("VmFlags %q lack hg (MADV_HUGEPAGE)", vma.fields["VmFlags"])
	}
	if st := a.Stats(); st.Committed != slot || st.PeakCommitted != slot {
		t.Errorf("Committed %d, PeakCommitted %d, want the span's %d", st.Committed, st.PeakCommitted, slot)
	}
}

// smapsEntry is one mapping of /proc/self/smaps: its range, permissions
// and "Key: value" fields.
type smapsEntry struct {
	start, end uint64
	perms      string
	fields     map[string]string
}

// readSmaps returns the mapping of /proc/self/smaps that contains addr.
func readSmaps(addr uint64) (smapsEntry, error) {
	data, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		return smapsEntry{}, err
	}
	var cur *smapsEntry
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if lo, hi, ok := strings.Cut(f[0], "-"); ok && len(f) > 1 {
			start, err1 := strconv.ParseUint(lo, 16, 64)
			end, err2 := strconv.ParseUint(hi, 16, 64)
			if err1 == nil && err2 == nil {
				if cur != nil {
					break
				}
				if start <= addr && addr < end {
					cur = &smapsEntry{start: start, end: end, perms: f[1], fields: map[string]string{}}
				}
				continue
			}
		}
		if cur != nil {
			key, val, _ := strings.Cut(line, ":")
			cur.fields[key] = strings.TrimSpace(val)
		}
	}
	if cur == nil {
		return smapsEntry{}, fmt.Errorf("no mapping holds %#x", addr)
	}
	return *cur, nil
}

// TestArenaReserveAfterClose verifies Close is idempotent and that a
// closed space refuses to hand out spans, on both memories.
func TestArenaReserveAfterClose(t *testing.T) {
	for _, mk := range []func(ArenaOptions) (Backend, error){NewSim, NewArena} {
		a, err := mk(ArenaOptions{SlotRegionBytes: 16 << 20, LargeRegionBytes: 16 << 20})
		if errors.Is(err, ErrArenaUnsupported) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("%s: second close: %v", a.Name(), err)
		}
		mustPanic(t, a.Name()+": Reserve after Close", func() { a.Reserve(PageSize, 0, nil) })
	}
}

// TestArenaBadOptions verifies option validation errors instead of
// panicking, so callers can fall back.
func TestArenaBadOptions(t *testing.T) {
	for _, mk := range []func(ArenaOptions) (Backend, error){NewSim, NewArena} {
		if _, err := mk(ArenaOptions{SpanSize: 3000}); err == nil {
			t.Fatal("non-power-of-two span size accepted")
		}
		if _, err := mk(ArenaOptions{SpanSize: 512}); err == nil {
			t.Fatal("sub-page span size accepted")
		}
	}
}
