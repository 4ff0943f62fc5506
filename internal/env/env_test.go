package env

import (
	"sync"
	"testing"
	"time"
)

func TestRealEnvIsInert(t *testing.T) {
	e := &RealEnv{ID: 7}
	e.Charge(OpMallocFast, 100)
	e.Touch(0x1234, 64, true)
	if e.ThreadID() != 7 {
		t.Fatalf("ThreadID = %d", e.ThreadID())
	}
}

func TestRealLockMutualExclusion(t *testing.T) {
	l := RealLockFactory{}.NewLock("t")
	e := &RealEnv{}
	var counter, race int
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Lock(e)
				counter++
				race = counter
				l.Unlock(e)
			}
		}()
	}
	wg.Wait()
	if counter != 8000 || race == 0 {
		t.Fatalf("counter = %d", counter)
	}
}

func TestRealLockTryLock(t *testing.T) {
	l := RealLockFactory{}.NewLock("t")
	e := &RealEnv{}
	if !l.TryLock(e) {
		t.Fatal("TryLock on free lock failed")
	}
	if l.TryLock(e) {
		t.Fatal("TryLock on held lock succeeded")
	}
	l.Unlock(e)
	if !l.TryLock(e) {
		t.Fatal("TryLock after unlock failed")
	}
	l.Unlock(e)
}

func TestCostKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for k := CostKind(0); k < NumCostKinds; k++ {
		s := k.String()
		if s == "" || s == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate name %q", s)
		}
		seen[s] = true
	}
	if CostKind(99).String() != "unknown" {
		t.Fatal("out-of-range kind should be unknown")
	}
}

func TestCountingLockFactory(t *testing.T) {
	f := &CountingLockFactory{Inner: RealLockFactory{}}
	e := &RealEnv{}
	a := f.NewLock("a")
	b := f.NewLock("b")
	a.Lock(e)
	b.Lock(e)
	if b.TryLock(e) {
		t.Fatal("TryLock on held lock succeeded")
	}
	if got := f.Acquires(); got != 2 {
		t.Fatalf("Acquires = %d after 2 locks and a failed TryLock, want 2", got)
	}
	a.Unlock(e)
	b.Unlock(e)
	if !a.TryLock(e) {
		t.Fatal("TryLock on free lock failed")
	}
	a.Unlock(e)
	if got := f.Acquires(); got != 3 {
		t.Fatalf("Acquires = %d, want 3", got)
	}
}

func TestCountingLockSiteAttribution(t *testing.T) {
	f := &CountingLockFactory{Inner: RealLockFactory{}}
	e := &RealEnv{}
	a := f.NewLock("heap-1")
	b := f.NewLock("heap-2")

	// Two labeled sites on one lock, one on the other, plus unlabeled
	// acquisitions and a try-miss, which land on the "" site.
	LockWith(a, e, "malloc-refill")
	a.Unlock(e)
	LockWith(a, e, "malloc-refill")
	a.Unlock(e)
	LockWith(a, e, "free-locked")
	if a.TryLock(e) {
		t.Fatal("TryLock succeeded on a held lock")
	}
	a.Unlock(e)
	b.Lock(e) // unlabeled: attributed to the "" site
	b.Unlock(e)
	if !b.TryLock(e) {
		t.Fatal("TryLock failed on a free lock")
	}
	b.Unlock(e)

	got := map[[2]string]SiteStat{}
	for _, s := range f.SiteStats() {
		got[[2]string{s.Lock, s.Label}] = s
	}
	checks := []struct {
		lock, label         string
		acquires, tryMisses int64
	}{
		{"heap-1", "malloc-refill", 2, 0},
		{"heap-1", "free-locked", 1, 0},
		{"heap-1", "", 0, 1},
		{"heap-2", "", 2, 0},
	}
	for _, c := range checks {
		s, ok := got[[2]string{c.lock, c.label}]
		if !ok {
			t.Fatalf("no site stat for (%s, %q); have %v", c.lock, c.label, f.SiteStats())
		}
		if s.Acquires != c.acquires || s.TryMisses != c.tryMisses {
			t.Errorf("(%s, %q): acquires=%d tryMisses=%d, want %d/%d",
				c.lock, c.label, s.Acquires, s.TryMisses, c.acquires, c.tryMisses)
		}
	}
	// The aggregate counter matches the per-site sum of acquisitions.
	var sum int64
	for _, s := range f.SiteStats() {
		sum += s.Acquires
	}
	if sum != f.Acquires() {
		t.Fatalf("site acquires sum to %d, factory total is %d", sum, f.Acquires())
	}
	// Sorted busiest-first.
	ss := f.SiteStats()
	for i := 1; i < len(ss); i++ {
		if ss[i].Acquires > ss[i-1].Acquires {
			t.Fatalf("SiteStats not sorted by acquires: %v", ss)
		}
	}
}

func TestCountingLockContendedAttribution(t *testing.T) {
	f := &CountingLockFactory{Inner: RealLockFactory{}}
	l := f.NewLock("contended")
	e := &RealEnv{}
	l.Lock(e)
	release := make(chan struct{})
	acquired := make(chan struct{})
	go func() {
		e2 := &RealEnv{ID: 1}
		LockWith(l, e2, "waiter") // blocks until the holder releases
		close(acquired)
		<-release
		l.Unlock(e2)
	}()
	// Give the waiter time to hit the try-probe and block.
	for i := 0; i < 1000; i++ {
		if hasContended(f, "contended", "waiter") {
			break
		}
		timeSleep()
	}
	l.Unlock(e)
	<-acquired
	close(release)
	if !hasContended(f, "contended", "waiter") {
		t.Fatal("contended acquisition was not attributed to its site")
	}
}

func timeSleep() { time.Sleep(100 * time.Microsecond) }

func hasContended(f *CountingLockFactory, lock, label string) bool {
	for _, s := range f.SiteStats() {
		if s.Lock == lock && s.Label == label && s.Contended > 0 {
			return true
		}
	}
	return false
}
