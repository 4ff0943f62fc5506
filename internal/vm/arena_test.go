package vm

import "testing"

// testArena builds a small arena, skipping on platforms without one.
func testArena(t *testing.T, opts ArenaOptions) Backend {
	t.Helper()
	if opts.SlotRegionBytes == 0 {
		opts.SlotRegionBytes = 64 << 20
	}
	if opts.LargeRegionBytes == 0 {
		opts.LargeRegionBytes = 64 << 20
	}
	a, err := NewArena(opts)
	if err != nil {
		t.Skipf("arena backend unavailable: %v", err)
	}
	t.Cleanup(func() {
		if err := a.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return a
}

// TestArenaZeroFillAfterRecommit: on real memory the OS guarantees that a
// decommitted-then-recommitted span reads back as zeros, even though
// Recommit itself writes nothing. The madvise covers exactly the span: the
// neighbouring spans on either side keep their contents.
func TestArenaZeroFillAfterRecommit(t *testing.T) {
	const slot = 8192
	a := testArena(t, ArenaOptions{SpanSize: slot})

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
// with no page table, neighbors stay nil, and releases are immediate.
func TestArenaArithmeticResolution(t *testing.T) {
	a := testArena(t, ArenaOptions{SpanSize: 8192})

	sp1 := a.Reserve(8192, 8192, "sb1")
	sp2 := a.Reserve(8192, 8192, "sb2")
	if sp1.Base%8192 != 0 || sp2.Base%8192 != 0 {
		t.Fatalf("slot spans misaligned: %#x %#x", sp1.Base, sp2.Base)
	}
	for off := uint64(0); off < 8192; off += 512 {
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
}

// TestArenaLargeSpans exercises the variable-size region: non-slot sizes,
// alignment beyond the slot size, interior-pointer resolution.
func TestArenaLargeSpans(t *testing.T) {
	a := testArena(t, ArenaOptions{SpanSize: 8192})

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
}

// TestArenaRSSReturn is the backend-level ground truth for page release:
// touching committed pages raises the process RSS, Decommit's madvise
// genuinely gives the pages back to the OS, and the freed range reads zero
// afterwards. Measured via /proc/self/statm, not simulated accounting.
func TestArenaRSSReturn(t *testing.T) {
	const size = 64 << 20
	a := testArena(t, ArenaOptions{LargeRegionBytes: size})

	before, err := ReadRSS()
	if err != nil {
		t.Skipf("no RSS source: %v", err)
	}
	sp := a.Reserve(size, 0, "rss")
	data := sp.Data()
	for i := 0; i < len(data); i += PageSize {
		data[i] = 1
	}
	touched, err := ReadRSS()
	if err != nil {
		t.Fatal(err)
	}
	if grew := touched - before; grew < size/2 {
		t.Fatalf("RSS grew only %d bytes after touching %d", grew, size)
	}
	sp.Decommit()
	after, err := ReadRSS()
	if err != nil {
		t.Fatal(err)
	}
	if dropped := touched - after; dropped < size/2 {
		t.Fatalf("RSS dropped only %d bytes after decommitting %d", dropped, size)
	}
	sp.Recommit()
	if got := sp.Bytes(0, 8); got[0] != 0 {
		t.Fatalf("page content survived decommit: %#x", got[0])
	}
	a.Release(sp)
}

// TestArenaReserveAfterClose verifies Close is idempotent and that the
// arena refuses to hand out spans afterwards.
func TestArenaReserveAfterClose(t *testing.T) {
	a, err := NewArena(ArenaOptions{SlotRegionBytes: 16 << 20, LargeRegionBytes: 16 << 20})
	if err != nil {
		t.Skipf("arena backend unavailable: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve on closed arena did not panic")
		}
	}()
	a.Reserve(PageSize, 0, nil)
}

// TestArenaBadOptions verifies option validation errors instead of
// panicking, so callers can fall back.
func TestArenaBadOptions(t *testing.T) {
	if _, err := NewArena(ArenaOptions{SpanSize: 3000}); err == nil {
		t.Fatal("non-power-of-two span size accepted")
	}
	if _, err := NewArena(ArenaOptions{SpanSize: 512}); err == nil {
		t.Fatal("sub-page span size accepted")
	}
}
