package vm

import (
	"math/rand"
	"sync"
	"testing"
)

func TestDecommitRecommitAccounting(t *testing.T) {
	forEachBackend(t, ArenaOptions{}, func(t *testing.T, b Backend) {
		sp := b.Reserve(2*PageSize, 0, nil)
		other := b.Reserve(2*PageSize, 0, nil)
		if got := b.Reserved(); got != 4*PageSize {
			t.Fatalf("Reserved = %d, want %d", got, 4*PageSize)
		}
		if got := b.Committed(); got != 4*PageSize {
			t.Fatalf("Committed = %d, want %d", got, 4*PageSize)
		}

		sp.Decommit()
		st := b.Stats()
		if st.Reserved != 4*PageSize {
			t.Fatalf("Reserved after decommit = %d, want unchanged %d", st.Reserved, 4*PageSize)
		}
		if st.Committed != 2*PageSize {
			t.Fatalf("Committed after decommit = %d, want %d", st.Committed, 2*PageSize)
		}
		if st.DecommittedBytes != 2*PageSize {
			t.Fatalf("DecommittedBytes = %d, want %d", st.DecommittedBytes, 2*PageSize)
		}
		if st.PeakCommitted != 4*PageSize || st.PeakReserved != 4*PageSize {
			t.Fatalf("PeakCommitted %d PeakReserved %d, want both %d", st.PeakCommitted, st.PeakReserved, 4*PageSize)
		}
		if st.Decommits != 1 || st.Recommits != 0 {
			t.Fatalf("Decommits %d Recommits %d, want 1 and 0", st.Decommits, st.Recommits)
		}
		if !sp.Decommitted() || other.Decommitted() {
			t.Fatalf("Decommitted: span %v, other span %v; want true, false", sp.Decommitted(), other.Decommitted())
		}

		sp.Recommit()
		st = b.Stats()
		if st.Committed != 4*PageSize || st.DecommittedBytes != 0 {
			t.Fatalf("after recommit: Committed %d DecommittedBytes %d", st.Committed, st.DecommittedBytes)
		}
		if st.Decommits != 1 || st.Recommits != 1 {
			t.Fatalf("Decommits %d Recommits %d, want 1 and 1", st.Decommits, st.Recommits)
		}
		if sp.Decommitted() {
			t.Fatal("span still Decommitted after Recommit")
		}
		b.Release(sp)
		b.Release(other)
		st = b.Stats()
		if st.Reserved != 0 || st.Committed != 0 || st.DecommittedBytes != 0 {
			t.Fatalf("after release: Reserved %d Committed %d DecommittedBytes %d, want all 0",
				st.Reserved, st.Committed, st.DecommittedBytes)
		}
	})
}

// TestDecommitRecommitIdempotent: decommitting a decommitted span and
// recommitting a committed one change no byte count, and every call is
// still counted.
func TestDecommitRecommitIdempotent(t *testing.T) {
	forEachBackend(t, ArenaOptions{}, func(t *testing.T, b Backend) {
		sp := b.Reserve(2*PageSize, 0, nil)
		sp.Recommit() // committed already
		if st := b.Stats(); st.Committed != 2*PageSize || st.DecommittedBytes != 0 || st.Recommits != 1 {
			t.Fatalf("recommit of a committed span: %+v", st)
		}
		sp.Decommit()
		sp.Decommit()
		if st := b.Stats(); st.Committed != 0 || st.DecommittedBytes != 2*PageSize || st.Decommits != 2 {
			t.Fatalf("after two decommits: %+v", st)
		}
		sp.Recommit()
		sp.Recommit()
		if st := b.Stats(); st.Committed != 2*PageSize || st.DecommittedBytes != 0 || st.Recommits != 3 {
			t.Fatalf("after two more recommits: %+v", st)
		}
		if sp.Decommitted() {
			t.Fatal("span Decommitted after Recommit")
		}
	})
}

func TestDecommitDropsContentsAndGuardsAccess(t *testing.T) {
	forEachBackend(t, ArenaOptions{}, func(t *testing.T, b Backend) {
		sp := b.Reserve(2*PageSize, 0, nil)
		other := b.Reserve(PageSize, 0, nil)
		for _, s := range []*Span{sp, other} {
			data := s.Data()
			for i := range data {
				data[i] = 0xAA
			}
		}
		sp.Decommit()

		// Addresses stay reserved: Lookup still resolves into the span.
		if b.Lookup(sp.Base) != sp || b.Lookup(sp.End()-1) != sp {
			t.Fatal("Lookup of decommitted span failed — addresses should stay reserved")
		}

		// Touching the decommitted span panics, span- and backend-level,
		// at its first and at its last byte.
		mustPanic(t, "span Bytes at first byte", func() { sp.Bytes(0, 1) })
		mustPanic(t, "span Bytes at last byte", func() { sp.Bytes(sp.Len-1, 1) })
		mustPanic(t, "backend Bytes at first byte", func() { b.Bytes(sp.Base, 1) })
		mustPanic(t, "backend Bytes at last byte", func() { b.Bytes(sp.End()-1, 1) })
		mustPanic(t, "Data of decommitted span", func() { sp.Data() })

		// Another span is untouched and accessible.
		if got := other.Bytes(0, 1)[0]; got != 0xAA {
			t.Fatalf("other span's byte = %#x, want 0xAA", got)
		}

		// Recommit restores zero pages (the old contents are gone).
		sp.Recommit()
		for i, v := range sp.Data() {
			if v != 0 {
				t.Fatalf("recommitted byte %d = %#x, want 0", i, v)
			}
		}
	})
}

// TestReleaseDecommitted: releasing a decommitted span un-commits nothing
// twice, and the span comes back committed from the space's reuse pool.
func TestReleaseDecommitted(t *testing.T) {
	forEachBackend(t, ArenaOptions{}, func(t *testing.T, b Backend) {
		const size = 2 * PageSize // the default slot size
		sp := b.Reserve(size, size, nil)
		sp.Decommit()
		b.Release(sp)

		st := b.Stats()
		if st.Reserved != 0 || st.Committed != 0 || st.DecommittedBytes != 0 {
			t.Fatalf("after release: Reserved %d Committed %d DecommittedBytes %d, want all 0",
				st.Reserved, st.Committed, st.DecommittedBytes)
		}

		sp2 := b.Reserve(size, size, nil)
		if b.Stats().Recycled != 1 || sp2 != sp {
			t.Fatalf("Recycled = %d, same span %v; want the released span back", b.Stats().Recycled, sp2 == sp)
		}
		if sp2.Decommitted() {
			t.Fatal("recycled span is still decommitted")
		}
		data := sp2.Bytes(0, size) // must not panic
		data[0], data[size-1] = 1, 1
		if st := b.Stats(); st.Committed != size || st.DecommittedBytes != 0 {
			t.Fatalf("Committed %d DecommittedBytes %d, want %d and 0", st.Committed, st.DecommittedBytes, size)
		}
	})
}

// TestConcurrentDecommitRecommit churns reserve/decommit/recommit/release
// across workers (each on its own spans, as the allocator does: only memory
// with no live readers is decommitted) and checks the global invariants
// reserved >= committed >= 0 throughout. Run under -race via make check.
func TestConcurrentDecommitRecommit(t *testing.T) {
	forEachBackend(t, ArenaOptions{}, func(t *testing.T, s Backend) {
		var wg sync.WaitGroup
		const workers = 8
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				var mine []*Span
				for i := 0; i < 300; i++ {
					switch {
					case len(mine) == 0 || rng.Intn(4) == 0:
						mine = append(mine, s.Reserve((1+rng.Intn(4))*PageSize, 0, w))
					case rng.Intn(3) == 0:
						i := rng.Intn(len(mine))
						s.Release(mine[i])
						mine[i] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					default:
						sp := mine[rng.Intn(len(mine))]
						if rng.Intn(2) == 0 {
							sp.Decommit()
						} else {
							sp.Recommit()
							sp.Data() // recommitted memory must be accessible
						}
					}
					// reserved >= committed is checked exactly in the
					// single-threaded fuzz test; across threads the two
					// atomics cannot be read as one snapshot, so here only
					// the sign invariants hold at every instant.
					if c, r := s.Committed(), s.Reserved(); c < 0 || r < 0 {
						t.Errorf("negative accounting: reserved %d committed %d", r, c)
						return
					}
				}
				for _, sp := range mine {
					s.Release(sp)
				}
			}(w)
		}
		wg.Wait()
		st := s.Stats()
		if st.Reserved != 0 || st.Committed != 0 || st.DecommittedBytes != 0 {
			t.Fatalf("after teardown: Reserved %d Committed %d DecommittedBytes %d",
				st.Reserved, st.Committed, st.DecommittedBytes)
		}
	})
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: did not panic", name)
		}
	}()
	fn()
}
