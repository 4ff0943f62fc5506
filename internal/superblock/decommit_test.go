package superblock

import (
	"testing"

	"hoardgo/internal/alloc"
)

// TestDecommitRecommitWriteEveryBlock pins recommit-on-reuse correctness:
// a superblock that was used, emptied, decommitted, and recommitted must
// hand out every block again, and each block must be fully writable and
// hold its data (the decommit really dropped the pages; the recommit really
// restored them).
func TestDecommitRecommitWriteEveryBlock(t *testing.T) {
	space, sb := newSB(t, 64)

	// First life: allocate everything, scribble, free everything.
	ptrs := make([]alloc.Ptr, 0, sb.NBlocks())
	for {
		p, ok := sb.AllocBlock(e)
		if !ok {
			break
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		buf := space.Bytes(uint64(p), 64)
		for i := range buf {
			buf[i] = 0xAB
		}
	}
	for _, p := range ptrs {
		freeBlock(sb, p)
	}

	sb.Decommit(e)
	if !sb.Decommitted() {
		t.Fatal("not Decommitted after Decommit")
	}
	if got := space.Committed(); got != 0 {
		t.Fatalf("Committed = %d, want 0 after decommit", got)
	}
	if got := space.Reserved(); got != DefaultSize {
		t.Fatalf("Reserved = %d, want %d (addresses stay reserved)", got, DefaultSize)
	}
	// The address range still resolves to this superblock...
	if got, ok := FromPtr(space, ptrs[0]); !ok || got != sb {
		t.Fatal("FromPtr no longer resolves decommitted superblock")
	}
	// ...but the dropped memory is unreachable.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("reading a decommitted block did not panic")
			}
		}()
		space.Bytes(uint64(ptrs[0]), 4)
	}()
	if err := sb.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	// Second life: recommit, then allocate and write through EVERY block.
	sb.Recommit(e)
	if sb.Decommitted() {
		t.Fatal("still Decommitted after Recommit")
	}
	if got := space.Committed(); got != DefaultSize {
		t.Fatalf("Committed = %d, want %d after recommit", got, DefaultSize)
	}
	got := make([]alloc.Ptr, 0, sb.NBlocks())
	for i := 0; i < sb.NBlocks(); i++ {
		p, ok := sb.AllocBlock(e)
		if !ok {
			t.Fatalf("AllocBlock %d failed after recommit", i)
		}
		buf := space.Bytes(uint64(p), 64)
		for j := range buf {
			buf[j] = byte(i)
		}
		got = append(got, p)
	}
	if !sb.Full() {
		t.Fatal("superblock not full after reallocating every block")
	}
	for i, p := range got {
		buf := space.Bytes(uint64(p), 64)
		for j := range buf {
			if buf[j] != byte(i) {
				t.Fatalf("block %d byte %d = %#x, want %#x", i, j, buf[j], byte(i))
			}
		}
	}
	if err := sb.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	for _, p := range got {
		freeBlock(sb, p)
	}
	space.Release(sb.span)
	if space.Committed() != 0 || space.Reserved() != 0 {
		t.Fatalf("space not empty after release: committed %d reserved %d",
			space.Committed(), space.Reserved())
	}
}

func TestDecommitGuards(t *testing.T) {
	_, sb := newSB(t, 64)
	p, _ := sb.AllocBlock(e)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Decommit of non-empty superblock did not panic")
			}
		}()
		sb.Decommit(e)
	}()
	freeBlock(sb, p)
	sb.Decommit(e)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Decommit did not panic")
			}
		}()
		sb.Decommit(e)
	}()
	// Reinit without Recommit must panic: the formatter would describe
	// memory that is not there.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reinit of decommitted superblock did not panic")
			}
		}()
		sb.Reinit(2, 128)
	}()
	// Recommit is idempotent on a committed superblock.
	sb.Recommit(e)
	sb.Recommit(e)
	if _, ok := sb.AllocBlock(e); !ok {
		t.Fatal("AllocBlock failed after recommit")
	}
}

func TestDecommittedReleaseAccounting(t *testing.T) {
	// Releasing a decommitted superblock must not double-subtract its
	// bytes.
	space, sb := newSB(t, 64)
	sb.Decommit(e)
	space.Release(sb.span)
	st := space.Stats()
	if st.Committed != 0 || st.Reserved != 0 || st.DecommittedBytes != 0 {
		t.Fatalf("accounting after releasing decommitted superblock: %+v", st)
	}
	// A recycled span from that pool must come back fully usable.
	sb2 := New(space, DefaultSize, 1, 64)
	if _, ok := sb2.AllocBlock(e); !ok {
		t.Fatal("AllocBlock on recycled span failed")
	}
}
