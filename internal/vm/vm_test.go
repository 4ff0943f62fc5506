package vm

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestReserveBasics(t *testing.T) {
	s := New()
	sp := s.Reserve(100, 0, "tag")
	if sp.Len != PageSize {
		t.Fatalf("Len = %d, want page-rounded %d", sp.Len, PageSize)
	}
	if sp.Base%PageSize != 0 {
		t.Fatalf("Base %#x not page aligned", sp.Base)
	}
	if sp.Owner != "tag" {
		t.Fatalf("Owner = %v", sp.Owner)
	}
	if got := s.Lookup(sp.Base); got != sp {
		t.Fatalf("Lookup(base) = %v, want span", got)
	}
	if got := s.Lookup(sp.Base + uint64(sp.Len) - 1); got != sp {
		t.Fatalf("Lookup(last byte) = %v, want span", got)
	}
	if got := s.Lookup(sp.End()); got == sp {
		t.Fatalf("Lookup(end) returned span, want other/nil")
	}
}

func TestReserveAlignment(t *testing.T) {
	s := New()
	for _, align := range []int{0, PageSize, 8192, 1 << 16, 1 << 20} {
		sp := s.Reserve(PageSize, align, nil)
		a := align
		if a == 0 {
			a = PageSize
		}
		if sp.Base%uint64(a) != 0 {
			t.Errorf("align %d: base %#x misaligned", align, sp.Base)
		}
	}
}

func TestReserveInvalid(t *testing.T) {
	s := New()
	for _, tc := range []struct {
		size, align int
	}{{0, 0}, {-1, 0}, {16, 3}, {16, 100}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reserve(%d, %d) did not panic", tc.size, tc.align)
				}
			}()
			s.Reserve(tc.size, tc.align, nil)
		}()
	}
}

func TestReleaseInvalidatesLookup(t *testing.T) {
	s := New()
	sp := s.Reserve(2*PageSize, 0, nil)
	base := sp.Base
	s.Release(sp)
	if got := s.Lookup(base); got != nil {
		t.Fatalf("Lookup after Release = %v, want nil", got)
	}
	if got := s.Lookup(base + PageSize); got != nil {
		t.Fatalf("Lookup after Release (2nd page) = %v, want nil", got)
	}
}

func TestRecycleReusesBacking(t *testing.T) {
	s := New()
	sp := s.Reserve(8192, 8192, nil)
	d := &sp.Data()[0]
	s.Release(sp)
	sp2 := s.Reserve(8192, 8192, nil)
	if &sp2.Data()[0] != d {
		t.Fatalf("recycled span did not reuse backing memory")
	}
	if s.Stats().Recycled != 1 {
		t.Fatalf("Recycled = %d, want 1", s.Stats().Recycled)
	}
}

func TestRecycleRespectsAlignment(t *testing.T) {
	s := New()
	// Force a span whose base is page- but not 64K-aligned.
	s.Reserve(PageSize, 0, nil)
	sp := s.Reserve(PageSize, 0, nil)
	if sp.Base%(1<<16) == 0 {
		sp = s.Reserve(PageSize, 0, nil) // skip accidental alignment
	}
	s.Release(sp)
	sp2 := s.Reserve(PageSize, 1<<16, nil)
	if sp2.Base%(1<<16) != 0 {
		t.Fatalf("aligned Reserve got misaligned recycled span %#x", sp2.Base)
	}
}

func TestCommittedAccounting(t *testing.T) {
	s := New()
	a := s.Reserve(PageSize, 0, nil)
	b := s.Reserve(3*PageSize, 0, nil)
	if got := s.Committed(); got != 4*PageSize {
		t.Fatalf("Committed = %d, want %d", got, 4*PageSize)
	}
	s.Release(a)
	if got := s.Committed(); got != 3*PageSize {
		t.Fatalf("Committed after release = %d, want %d", got, 3*PageSize)
	}
	if got := s.Stats().PeakCommitted; got != 4*PageSize {
		t.Fatalf("Peak = %d, want %d", got, 4*PageSize)
	}
	s.Release(b)
	if got := s.Committed(); got != 0 {
		t.Fatalf("Committed after all released = %d, want 0", got)
	}
}

func TestBytesViews(t *testing.T) {
	s := New()
	sp := s.Reserve(PageSize, 0, nil)
	buf := s.Bytes(sp.Base+8, 16)
	for i := range buf {
		buf[i] = byte(i + 1)
	}
	again := sp.Bytes(8, 16)
	for i := range again {
		if again[i] != byte(i+1) {
			t.Fatalf("byte %d = %d, want %d", i, again[i], i+1)
		}
	}
}

func TestBytesOutOfRangePanics(t *testing.T) {
	s := New()
	sp := s.Reserve(PageSize, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Bytes escaping span did not panic")
		}
	}()
	s.Bytes(sp.Base+PageSize-4, 8)
}

func TestLookupUnmappedRegions(t *testing.T) {
	s := New()
	if s.Lookup(0) != nil {
		t.Fatal("Lookup(0) != nil")
	}
	if s.Lookup(baseAddr) != nil {
		t.Fatal("Lookup of never-reserved address != nil")
	}
	if s.Lookup(maxAddr) != nil || s.Lookup(1<<62) != nil {
		t.Fatal("Lookup past address space != nil")
	}
}

// TestPropertyLookupMatchesReservation drives random reserve/release
// sequences and checks that Lookup agrees with the live-span set at every
// interior and exterior probe.
func TestPropertyLookupMatchesReservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type rec struct{ sp *Span }
		var live []rec
		for op := 0; op < 200; op++ {
			if len(live) == 0 || rng.Intn(3) != 0 {
				size := (1 + rng.Intn(8)) * PageSize
				live = append(live, rec{s.Reserve(size, 0, op)})
			} else {
				i := rng.Intn(len(live))
				s.Release(live[i].sp)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		for _, r := range live {
			mid := r.sp.Base + uint64(rng.Intn(r.sp.Len))
			if s.Lookup(mid) != r.sp {
				return false
			}
		}
		var total int64
		for _, r := range live {
			total += int64(r.sp.Len)
		}
		return total == s.Committed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReserveRelease(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []*Span
			for i := 0; i < 500; i++ {
				if len(mine) == 0 || rng.Intn(2) == 0 {
					sp := s.Reserve((1+rng.Intn(4))*PageSize, 0, w)
					if s.Lookup(sp.Base) != sp {
						t.Errorf("own span not visible")
						return
					}
					mine = append(mine, sp)
				} else {
					i := rng.Intn(len(mine))
					s.Release(mine[i])
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				}
			}
			for _, sp := range mine {
				s.Release(sp)
			}
		}(w)
	}
	wg.Wait()
	if got := s.Committed(); got != 0 {
		t.Fatalf("Committed after teardown = %d, want 0", got)
	}
}

func BenchmarkReserveRelease(b *testing.B) {
	s := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Release(s.Reserve(8192, 8192, nil))
	}
}
