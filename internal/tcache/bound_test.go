package tcache

import (
	"math/rand"
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

// TestCachedBytesWithinByteBound: a thread that mallocs and then frees 64
// blocks of every class caches at most Σ cap[c] · size(c). Without the byte
// caps it would hold all 64 blocks of every class, 1,595,392 B.
func TestCachedBytesWithinByteBound(t *testing.T) {
	a := newOverHoard(DefaultCapacity)
	th := a.NewThread(&env.RealEnv{})
	for c := range a.classes.NumClasses() {
		var ps []alloc.Ptr
		for range 64 {
			ps = append(ps, a.Malloc(th, a.classes.Size(c)))
		}
		for _, p := range ps {
			a.Free(th, p)
		}
	}
	if got := a.CachedBytes(); got > magazineBound {
		t.Fatalf("CachedBytes = %d after freeing 64 blocks of every class, want <= %d", got, magazineBound)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
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
	tbs := tb.State.(*threadState)
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

// TestByteCapChurn churns every class on three threads, a third of the frees
// remote, and checks integrity — which enforces each class's cap and the
// remote batch's block and byte limits — after every phase.
func TestByteCapChurn(t *testing.T) {
	for _, capacity := range []int{2, 16, 64} {
		a := newOverHoard(capacity)
		var ths []*alloc.Thread
		for id := range 3 {
			ths = append(ths, a.NewThread(&env.RealEnv{ID: id}))
		}
		rng := rand.New(rand.NewSource(int64(capacity)))
		held := make([][]alloc.Ptr, len(ths))
		for phase := range 6 {
			for range 3000 {
				w := rng.Intn(len(ths))
				if len(held[w]) == 0 || rng.Intn(2) == 0 {
					size := a.classes.Size(rng.Intn(a.classes.NumClasses()))
					held[w] = append(held[w], a.Malloc(ths[w], size))
					continue
				}
				j := rng.Intn(len(held[w]))
				p := held[w][j]
				held[w][j] = held[w][len(held[w])-1]
				held[w] = held[w][:len(held[w])-1]
				if rng.Intn(3) == 0 {
					w = (w + 1) % len(ths)
				}
				a.Free(ths[w], p)
			}
			if err := a.CheckIntegrity(); err != nil {
				t.Fatalf("capacity %d, phase %d: %v", capacity, phase, err)
			}
		}
		for w, ps := range held {
			for _, p := range ps {
				a.Free(ths[(w+1)%len(ths)], p)
			}
			a.FlushThread(ths[w])
		}
		if st := a.Stats(); st.LiveBytes != 0 || a.CachedBytes() != 0 {
			t.Fatalf("capacity %d: live %d, cached %d after draining", capacity, st.LiveBytes, a.CachedBytes())
		}
		if err := a.CheckIntegrity(); err != nil {
			t.Fatalf("capacity %d, drained: %v", capacity, err)
		}
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
	tbs := tb.State.(*threadState)
	tbs.remoteBytes = classBudget // corrupt deliberately
	if err := a.CheckIntegrity(); err == nil || !strings.Contains(err.Error(), "remote batch") {
		t.Fatalf("integrity accepted a remote batch at its byte budget: %v", err)
	}
}

func TestDescribeMagazines(t *testing.T) {
	a := newOverHoard(DefaultCapacity)
	var b strings.Builder
	a.Describe(&b)
	for _, want := range []string{"64 blocks per class", "560 B:58", "2048 B:16", "4096 B:8", "per-thread bound 580568 B", "cached 0 B"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Describe = %q, missing %q", b.String(), want)
		}
	}
	if strings.Contains(b.String(), " 464 B:") {
		t.Errorf("Describe = %q lists a class at the full capacity", b.String())
	}
}
