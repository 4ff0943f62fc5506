package env

import (
	"sync"
	"testing"
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
