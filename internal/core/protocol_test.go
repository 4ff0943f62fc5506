package core

import (
	"fmt"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/metrics"
	"hoardgo/internal/superblock"
)

// TestMisuseFailsBeforeAnyLock: on the bare core a block comes back marked
// free before its owner's lock is taken, so a double free and an
// interior-pointer free panic with their messages and take no lock at all.
func TestMisuseFailsBeforeAnyLock(t *testing.T) {
	reg := metrics.NewRegistry()
	h := New(Config{Heaps: 2}, reg.WrapFactory(lf))
	th := thread(h, 0)
	keep := h.Malloc(th, 64)
	p, q := h.Malloc(th, 64), h.Malloc(th, 64)
	h.Free(th, p)
	sb, ok := superblock.FromPtr(h.Space(), p)
	if !ok {
		t.Fatalf("block %#x on no superblock", uint64(p))
	}
	base := sb.Base()
	for _, c := range []struct {
		name string
		p    alloc.Ptr
		want string
	}{
		{"double free", p, fmt.Sprintf("superblock %#x: double free of block %d (%#x)", base, (uint64(p)-base)/64, uint64(p))},
		{"interior pointer", q + 8, fmt.Sprintf("superblock %#x: bad block pointer %#x", base, uint64(q+8))},
	} {
		before := reg.TotalLockStats().Acquires
		r := func() (r any) {
			defer func() { r = recover() }()
			h.Free(th, c.p)
			return nil
		}()
		if got := fmt.Sprint(r); got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
		if got := reg.TotalLockStats().Acquires - before; got != 0 {
			t.Errorf("%s: took %d locks before panicking, want 0", c.name, got)
		}
	}
	h.Free(th, q)
	h.Free(th, keep)
	if err := h.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestOneEvictionPerFreedBlock: each freed block pays for at most one
// eviction, on a single free and on a flush alike. A malloc that takes a
// superblock raises a(i) by S but u(i) by only its blocks, so one block of
// each of eight classes leaves heap 1 far below the emptiness invariant
// with no free yet to restore it. One freed block then moves exactly one
// superblock, which leaves the heap still below the invariant, with a
// victim left for the next free.
func TestOneEvictionPerFreedBlock(t *testing.T) {
	const classes = 8
	for _, c := range []struct {
		name      string
		magazines int
	}{{"bare core free", 0}, {"one-block remote flush", DefaultCapacity}} {
		t.Run(c.name, func(t *testing.T) {
			h := New(Config{Heaps: 2, Magazines: c.magazines}, lf)
			owner, freer := thread(h, 0), thread(h, 1) // heaps 1 and 2
			var ps []alloc.Ptr
			for class := 0; class < classes; class++ {
				ps = append(ps, h.Malloc(owner, h.classes.Size(class)))
			}
			if moves := h.Stats().SuperblockMoves; moves != 0 {
				t.Fatalf("the mallocs moved %d superblocks", moves)
			}
			if !h.heaps[1].InvariantViolated() {
				u, a, _ := h.HeapSnapshot(1)
				t.Fatalf("heap 1 within the invariant before any free: u=%d a=%d", u, a)
			}
			if c.magazines == 0 {
				h.Free(owner, ps[0])
			} else {
				h.Free(freer, ps[0]) // into freer's remote batch
				h.FlushThread(freer)
				if st := h.Stats(); st.BatchFlushes != 1 || st.RemoteFrees != 1 {
					t.Fatalf("%d flushes, %d remote frees; want one flush of one block", st.BatchFlushes, st.RemoteFrees)
				}
			}
			if moves := h.Stats().SuperblockMoves; moves != 1 {
				t.Fatalf("one freed block moved %d superblocks, want 1", moves)
			}
			if !h.heaps[1].InvariantViolated() {
				u, a, _ := h.HeapSnapshot(1)
				t.Fatalf("one eviction restored the invariant (u=%d a=%d); the test needs a heap it cannot", u, a)
			}
			// CheckEmptiness asks only that a victim exist.
			if err := h.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			for _, p := range ps[1:] {
				h.Free(owner, p)
			}
			h.FlushThread(owner)
			if err := h.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
