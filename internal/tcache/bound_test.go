package tcache_test

import (
	"math/rand"
	"strings"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
)

// magazineBound is Σ cap[c] · size(c) over every class at the default
// capacity: 64 blocks of each class up to 512 B, fewer above.
const magazineBound = 547800

// TestCachedBytesWithinByteBound: a thread that mallocs and then frees 64
// blocks of every class caches at most Σ cap[c] · size(c). Without the byte
// caps it would hold all 64 blocks of every class, 1,595,392 B.
func TestCachedBytesWithinByteBound(t *testing.T) {
	a := newOverHoard(core.DefaultCapacity)
	th := a.NewThread(&env.RealEnv{})
	for c := range a.Classes().NumClasses() {
		var ps []alloc.Ptr
		for range 64 {
			ps = append(ps, a.Malloc(th, a.Classes().Size(c)))
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
					size := a.Classes().Size(rng.Intn(a.Classes().NumClasses()))
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

func TestDescribeMagazines(t *testing.T) {
	a := newOverHoard(core.DefaultCapacity)
	var b strings.Builder
	a.Describe(&b, &env.RealEnv{})
	for _, want := range []string{"64 blocks per class", "560 B:58", "2048 B:16", "4096 B:8", "per-thread bound 580568 B", "cached 0 B"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("Describe = %q, missing %q", b.String(), want)
		}
	}
	if strings.Contains(b.String(), " 464 B:") {
		t.Errorf("Describe = %q lists a class at the full capacity", b.String())
	}
}
