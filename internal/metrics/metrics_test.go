package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"

	"hoardgo/internal/env"
)

func TestRegistryCountsAcquisitions(t *testing.T) {
	r := NewRegistry()
	lf := r.WrapFactory(env.RealLockFactory{})
	l := lf.NewLock("test.lock")
	e := &env.RealEnv{}

	for i := 0; i < 5; i++ {
		l.Lock(e)
		l.Unlock(e)
	}
	if !l.TryLock(e) {
		t.Fatal("TryLock on free lock failed")
	}
	l.Unlock(e)

	stats := r.LockStats()
	if len(stats) != 1 {
		t.Fatalf("%d locks, want 1", len(stats))
	}
	st := stats[0]
	if st.Name != "test.lock" {
		t.Fatalf("name %q", st.Name)
	}
	if st.Acquires != 6 {
		t.Fatalf("acquires %d, want 6", st.Acquires)
	}
	if st.Contended != 0 {
		t.Fatalf("contended %d, want 0 single-threaded", st.Contended)
	}
	if st.HoldNS < 0 {
		t.Fatalf("negative hold time %d", st.HoldNS)
	}
}

func TestRegistryCountsContention(t *testing.T) {
	r := NewRegistry()
	l := r.WrapFactory(env.RealLockFactory{}).NewLock("contended")
	e1, e2 := &env.RealEnv{ID: 1}, &env.RealEnv{ID: 2}

	l.Lock(e1)
	if l.TryLock(e2) {
		t.Fatal("TryLock succeeded on held lock")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	acquired := make(chan struct{})
	go func() {
		defer wg.Done()
		l.Lock(e2) // must wait: contended
		close(acquired)
		l.Unlock(e2)
	}()
	time.Sleep(20 * time.Millisecond)
	l.Unlock(e1)
	<-acquired
	wg.Wait()

	st := r.TotalLockStats()
	if st.Acquires != 2 {
		t.Fatalf("acquires %d, want 2", st.Acquires)
	}
	if st.Contended != 1 {
		t.Fatalf("contended %d, want 1", st.Contended)
	}
	if st.TryMisses != 1 {
		t.Fatalf("try misses %d, want 1", st.TryMisses)
	}
	if st.WaitNS <= 0 {
		t.Fatalf("wait time %d, want > 0 after a blocked Lock", st.WaitNS)
	}
	if st.HoldNS <= 0 {
		t.Fatalf("hold time %d, want > 0", st.HoldNS)
	}
}

func TestSnapshotPrometheusLints(t *testing.T) {
	s := NewSnapshot("hoard")
	s.Counters["mallocs_total"] = 100
	s.Counters["live_bytes"] = 4096
	s.Heaps = []HeapSample{
		{ID: 0, U: 10, A: 8192, Superblocks: 1, Groups: []int{1, 0, 0, 0, 0}},
		{ID: 1, U: 512, A: 16384, Superblocks: 2, Groups: []int{1, 1, 0, 0, 0}},
	}
	s.MagazineBytes = 2048
	s.Locks = []LockStats{{Name: "hoard.heap1", Acquires: 7, Contended: 2, WaitNS: 1500, HoldNS: 9000}}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := LintPrometheus(out); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		`hoard_mallocs_total{allocator="hoard"} 100`,
		`hoard_lock_acquires_total{lock="hoard.heap1"} 7`,
		`hoard_lock_contended_total{lock="hoard.heap1"} 2`,
		`hoard_heap_in_use_bytes{heap="1"} 512`,
		`hoard_heap_group_superblocks{heap="1",group="1"} 1`,
		`hoard_tcache_magazine_bytes{allocator="hoard"} 2048`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"empty", ""},
		{"no type header", "foo 1\n"},
		{"bad value", "# TYPE foo gauge\nfoo bar\n"},
		{"bad name", "# TYPE 1foo gauge\n1foo 2\n"},
		{"interleaved", "# TYPE a gauge\n# TYPE b gauge\na 1\nb 2\na 3\n"},
		{"bad label", "# TYPE foo gauge\nfoo{1x=\"y\"} 1\n"},
	}
	for _, tc := range cases {
		if err := LintPrometheus(tc.text); err == nil {
			t.Errorf("%s: lint accepted %q", tc.name, tc.text)
		}
	}
	good := "# HELP foo Help text.\n# TYPE foo counter\nfoo{l=\"v\"} 1\nfoo{l=\"w\"} 2\n"
	if err := LintPrometheus(good); err != nil {
		t.Errorf("lint rejected valid text: %v", err)
	}
}
