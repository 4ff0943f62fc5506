package heap

import (
	"testing"

	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
	"hoardgo/internal/vm/vmtest"
)

// parkEmpty inserts n empty superblocks of the given class.
func parkEmpty(h *Heap, space vm.Backend, class, n int) []*superblock.Superblock {
	sbs := make([]*superblock.Superblock, n)
	for i := range sbs {
		sbs[i] = newSuper(space, class)
		h.Insert(sbs[i])
	}
	return sbs
}

// TestScavengeEmptiesReleasesAll: one pass decommits every empty committed
// superblock, a second finds nothing left, and the superblocks stay held —
// a and the superblock count are untouched.
func TestScavengeEmptiesReleasesAll(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(0)
	sbs := append(parkEmpty(h, space, 2, 3), parkEmpty(h, space, 4, 1)...)
	if released := h.ScavengeEmpties(e); released != 4*testS {
		t.Fatalf("released %d bytes, want %d", released, 4*testS)
	}
	for _, sb := range sbs {
		if !sb.Decommitted() {
			t.Fatalf("superblock %#x still committed", sb.Base())
		}
	}
	if got := space.Committed(); got != 0 {
		t.Fatalf("Committed = %d, want 0", got)
	}
	if h.A() != 4*testS || h.Superblocks() != 4 {
		t.Fatalf("a=%d n=%d changed by scavenge", h.A(), h.Superblocks())
	}
	if occ := h.SampleOccupancy(false); occ.Decommitted != 4 {
		t.Fatalf("occupancy Decommitted = %d, want 4", occ.Decommitted)
	}
	// Already decommitted superblocks are not released twice.
	if rel := h.ScavengeEmpties(e); rel != 0 {
		t.Fatalf("second pass released %d bytes, want 0", rel)
	}
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestScavengeSkipsNonEmpty(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(0)
	sb := newSuper(space, 2)
	h.Insert(sb)
	if _, ok := allocBlock(h, 2); !ok {
		t.Fatal("allocBlock failed")
	}
	if rel := h.ScavengeEmpties(e); rel != 0 {
		t.Fatalf("scavenged a non-empty superblock (%d bytes)", rel)
	}
	if sb.Decommitted() || space.Committed() != testS {
		t.Fatalf("non-empty superblock decommitted: committed %d", space.Committed())
	}
}

func TestTakeSuperRecommitsSameClass(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(0)
	parkEmpty(h, space, 2, 1)
	h.ScavengeEmpties(e)
	if got := space.Committed(); got != 0 {
		t.Fatalf("Committed = %d, want 0", got)
	}
	sb := h.TakeSuper(e, 2, blockSizeFor(2))
	if sb == nil {
		t.Fatal("TakeSuper found nothing")
	}
	if sb.Decommitted() {
		t.Fatal("TakeSuper returned a decommitted superblock")
	}
	if got := space.Committed(); got != testS {
		t.Fatalf("Committed = %d, want %d after transparent recommit", got, testS)
	}
	// The superblock is immediately usable.
	if _, ok := sb.AllocBlock(e); !ok {
		t.Fatal("AllocBlock failed on recommitted superblock")
	}
}

func TestTakeSuperRecommitsCrossClass(t *testing.T) {
	space := vmtest.NewSized(t, testS)
	h := newHeap(0)
	parkEmpty(h, space, 5, 1)
	h.ScavengeEmpties(e)
	// Different class: TakeSuper must recommit before Reinit.
	sb := h.TakeSuper(e, 1, blockSizeFor(1))
	if sb == nil {
		t.Fatal("TakeSuper found nothing cross-class")
	}
	if sb.Class() != 1 || sb.Decommitted() {
		t.Fatalf("class %d decommitted %v", sb.Class(), sb.Decommitted())
	}
	if _, ok := sb.AllocBlock(e); !ok {
		t.Fatal("AllocBlock failed on reinitialized recommitted superblock")
	}
}
