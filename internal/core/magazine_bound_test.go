package core

import (
	"strings"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
)

// magazineBound is Σ cap[c] · size(c) over every class at the default
// capacity: 64 blocks of each class up to 512 B, fewer above.
const magazineBound = 547800

// TestClassCaps pins the capacity table: cap[c] = clamp(32768/size(c), 2,
// Capacity) for every class.
func TestClassCaps(t *testing.T) {
	for _, capacity := range []int{2, 16, 64} {
		a := newOverHoard(capacity)
		for c := range a.caps {
			size := a.classes.Size(c)
			want := min(max(32768/size, 2), capacity)
			if got := a.caps[c]; got != want {
				t.Errorf("capacity %d: class %d (%d B) cap %d, want %d", capacity, c, size, got, want)
			}
		}
	}
	a := newOverHoard(64)
	for size, want := range map[int]int{16: 64, 464: 64, 560: 58, 2048: 16, 4096: 8} {
		c, _ := a.classFor(size)
		if got := a.classes.Size(c); got != size {
			t.Fatalf("no %d B class (got %d B)", size, got)
		}
		if got := a.caps[c]; got != want {
			t.Errorf("%d B class holds %d blocks, want %d", size, got, want)
		}
	}
	if got, want := a.ThreadBound(), int64(magazineBound+32768); got != want {
		t.Errorf("ThreadBound = %d, want %d", got, want)
	}
}

// TestRemoteBatchFlushesAtByteBudget: a remote batch of 4 KiB blocks flushes
// on reaching 32 KiB, at 8 blocks, long before its 64-block capacity.
func TestRemoteBatchFlushesAtByteBudget(t *testing.T) {
	a := newOverHoard(DefaultCapacity)
	ta := a.NewThread(&env.RealEnv{ID: 0}) // heap 1
	tb := a.NewThread(&env.RealEnv{ID: 1}) // heap 2
	var ps []alloc.Ptr
	for range 64 {
		ps = append(ps, a.Malloc(ta, 4096))
	}
	before := a.Stats()
	tbs := tb.State.(*ThreadState)
	for i, p := range ps {
		a.Free(tb, p)
		if want := (i + 1) % 8; len(tbs.remote) != want {
			t.Fatalf("after %d remote frees the batch holds %d blocks, want %d", i+1, len(tbs.remote), want)
		}
	}
	st := a.Stats()
	if got := st.BatchFlushes - before.BatchFlushes; got != 8 {
		t.Fatalf("BatchFlushes rose by %d, want 8 flushes of 32 KiB", got)
	}
	if got := st.RemoteFrees - before.RemoteFrees; got != 64 {
		t.Fatalf("RemoteFrees rose by %d, want 64", got)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrityCatchesOverfullRemoteBatch: a remote batch at its byte budget
// must have flushed, so integrity rejects one that holds it.
func TestIntegrityCatchesOverfullRemoteBatch(t *testing.T) {
	a := newOverHoard(DefaultCapacity)
	ta := a.NewThread(&env.RealEnv{ID: 0})
	tb := a.NewThread(&env.RealEnv{ID: 1})
	for range 7 {
		a.Free(tb, a.Malloc(ta, 4096))
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	tbs := tb.State.(*ThreadState)
	tbs.remoteBytes = classBudget // corrupt deliberately
	if err := a.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "remote batch") {
		t.Fatalf("integrity accepted a remote batch at its byte budget: %v", err)
	}
}
