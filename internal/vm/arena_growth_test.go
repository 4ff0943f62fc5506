//go:build linux && (amd64 || arm64)

package vm

import "testing"

// TestArenaSlotExhaustionDegrades drains a four-slot slot region and keeps
// reserving superblock-sized spans: the overflow spans must come from the
// large path (no panic), resolve through Lookup, hold data, and recycle.
func TestArenaSlotExhaustionDegrades(t *testing.T) {
	a := testArena(t, ArenaOptions{
		SpanSize:         8192,
		SlotRegionBytes:  4 * 8192,
		LargeRegionBytes: 16 * 8192,
	})

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
		if sp.Data()[0] != byte(i) || sp.Data()[8191] != byte(i) {
			t.Fatalf("span %d lost its contents", i)
		}
	}
	// Overflow spans sit outside the slot region but are first-class: they
	// release cleanly and are recycled by the next same-size reserve.
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
}

// TestArenaLargeRegionGrows exhausts a tiny large region and verifies the
// arena maps extension regions instead of panicking: spans in extensions
// resolve via Lookup, support decommit/recommit (the madvise path must find
// the right mapping), count in Stats.Grows, and unmap on Close.
func TestArenaLargeRegionGrows(t *testing.T) {
	a := testArena(t, ArenaOptions{
		SpanSize:         8192,
		SlotRegionBytes:  4 * 8192,
		LargeRegionBytes: 8 * 8192,
		GrowBytes:        32 * 8192,
	})

	// Each span is a quarter of the primary large region; the loop runs far
	// past it and into multiple extensions.
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
	st := a.Stats()
	if st.Grows < 2 {
		t.Fatalf("Grows = %d, want at least 2 extension mappings", st.Grows)
	}
	for i, sp := range spans {
		if got := a.Lookup(sp.Base + spanLen - 1); got != sp {
			t.Fatalf("span %d last-byte lookup = %v, want %v", i, got, sp)
		}
		if sp.Data()[0] != byte(i) {
			t.Fatalf("span %d lost its contents", i)
		}
	}

	// Decommit/recommit inside an extension region: the physical-page hook
	// must resolve the extension mapping, the OS zero-fills on return, and
	// the neighbouring span keeps its contents.
	prev, ext := spans[len(spans)-2], spans[len(spans)-1]
	if prev.End() != ext.Base {
		t.Fatalf("extension spans not adjacent: %#x then %#x", prev.Base, ext.Base)
	}
	ext.Decommit()
	ext.Recommit()
	if got := ext.Bytes(0, 1)[0]; got != 0 {
		t.Fatalf("recommitted extension byte = %#x, want 0", got)
	}
	if got := ext.Bytes(ext.Len-1, 1)[0]; got != 0 {
		t.Fatalf("recommitted extension last byte = %#x, want 0", got)
	}
	if got := prev.Bytes(prev.Len-1, 1)[0]; got != byte(len(spans)-2) {
		t.Fatal("neighbouring extension span lost its contents")
	}

	// An over-sized request gets an extension grown to fit it.
	huge := a.Reserve(int(64*8192), 0, "huge")
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
	// testArena's cleanup closes the arena; Close must unmap the extensions
	// without error, which the t.Cleanup assertion checks.
}
