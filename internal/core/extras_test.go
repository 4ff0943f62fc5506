package core

import (
	"strings"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
)

func TestMallocAligned(t *testing.T) {
	h := newHoard(Config{})
	th := thread(h, 0)
	var ps []alloc.Ptr
	for _, tc := range []struct{ size, align int }{
		{1, 1}, {10, 8}, {100, 16}, {100, 64}, {100, 256},
		{1000, 512}, {3000, 1024}, {100, 4096}, {10000, 4096},
		{100, 65536}, {200000, 16384},
	} {
		p := h.MallocAligned(th, tc.size, tc.align)
		if uint64(p)%uint64(tc.align) != 0 {
			t.Fatalf("MallocAligned(%d, %d) = %#x: misaligned", tc.size, tc.align, uint64(p))
		}
		if us := h.UsableSize(p); us < tc.size {
			t.Fatalf("MallocAligned(%d, %d): usable %d", tc.size, tc.align, us)
		}
		buf := h.Bytes(p, tc.size)
		for i := range buf {
			buf[i] = byte(tc.align)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		h.Free(th, p)
	}
	if got := h.Stats().LiveBytes; got != 0 {
		t.Fatalf("LiveBytes = %d", got)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestMallocAlignedBadAlign(t *testing.T) {
	h := newHoard(Config{})
	th := thread(h, 0)
	for _, align := range []int{0, -8, 3, 48} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("align %d accepted", align)
				}
			}()
			h.MallocAligned(th, 64, align)
		}()
	}
}

func TestDescribeAndHeaps(t *testing.T) {
	h := newHoard(Config{Heaps: 3})
	th := thread(h, 0)
	var ps []alloc.Ptr
	for i := 0; i < 500; i++ {
		ps = append(ps, h.Malloc(th, 64))
	}
	e := &env.RealEnv{}
	var sb strings.Builder
	h.Describe(&sb, e)
	out := sb.String()
	for _, want := range []string{"hoard: S=8192", "mallocs", "heap 1", "utilization"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Describe output missing %q:\n%s", want, out)
		}
	}
	occs := h.SampleHeaps(e, false)
	if len(occs) != 4 {
		t.Fatalf("SampleHeaps returned %d entries, want 4", len(occs))
	}
	if occs[0].Superblocks != 0 {
		t.Fatalf("global heap holds %d superblocks, want 0", occs[0].Superblocks)
	}
	var totalU int64
	for _, occ := range occs {
		totalU += occ.U
	}
	if want := h.Stats().LiveBytes; totalU != want {
		t.Fatalf("sum of heap u = %d, live = %d", totalU, want)
	}
	for _, p := range ps {
		h.Free(th, p)
	}
}
