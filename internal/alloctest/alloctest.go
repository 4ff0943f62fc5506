// Package alloctest provides a conformance suite run against every
// allocator in the repository. Each allocator package's tests call Run with
// a factory; the suite checks the alloc.Allocator contract: round-trips,
// pointer distinctness, data integrity under random mixes, cross-thread
// frees, the large-object path, frees of pointers no Malloc returned, and
// concurrent stress with full teardown.
package alloctest

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
)

// Factory creates a fresh allocator for one subtest.
type Factory func() alloc.Allocator

// Run executes the conformance suite against allocators from f.
func Run(t *testing.T, f Factory) {
	t.Run("RoundTrip", func(t *testing.T) { roundTrip(t, f()) })
	t.Run("MallocZero", func(t *testing.T) { mallocZero(t, f()) })
	t.Run("DistinctPointers", func(t *testing.T) { distinct(t, f()) })
	t.Run("DataIntegrityRandomMix", func(t *testing.T) { dataIntegrity(t, f()) })
	t.Run("LargeObjects", func(t *testing.T) { large(t, f()) })
	t.Run("CrossThreadFree", func(t *testing.T) { crossThread(t, f()) })
	t.Run("FreeNil", func(t *testing.T) { freeNil(t, f()) })
	t.Run("BadPointers", func(t *testing.T) { badPointers(t, f()) })
	t.Run("UsableSizeCoversRequest", func(t *testing.T) { usable(t, f()) })
	t.Run("Alignment", func(t *testing.T) { alignment(t, f()) })
	t.Run("LiveBlocksDisjoint", func(t *testing.T) { disjoint(t, f()) })
	t.Run("ConcurrentStress", func(t *testing.T) { stress(t, f()) })
}

func newThread(a alloc.Allocator, id int) *alloc.Thread {
	return a.NewThread(&env.RealEnv{ID: id})
}

func roundTrip(t *testing.T, a alloc.Allocator) {
	th := newThread(a, 0)
	sizes := []int{1, 8, 13, 64, 100, 1000, 4000, 4096, 5000, 65536}
	var ps []alloc.Ptr
	for _, sz := range sizes {
		p := a.Malloc(th, sz)
		if p.IsNil() {
			t.Fatalf("%s: Malloc(%d) = nil", a.Name(), sz)
		}
		buf := a.Bytes(p, sz)
		for i := range buf {
			buf[i] = byte(sz)
		}
		ps = append(ps, p)
	}
	for i, p := range ps {
		buf := a.Bytes(p, sizes[i])
		for j := range buf {
			if buf[j] != byte(sizes[i]) {
				t.Fatalf("%s: size %d corrupted at %d", a.Name(), sizes[i], j)
			}
		}
		a.Free(th, p)
	}
	if live := a.Stats().LiveBytes; live != 0 {
		t.Fatalf("%s: LiveBytes = %d after freeing everything", a.Name(), live)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
}

func mallocZero(t *testing.T, a alloc.Allocator) {
	th := newThread(a, 0)
	p := a.Malloc(th, 0)
	if p.IsNil() {
		t.Fatalf("%s: Malloc(0) = nil", a.Name())
	}
	a.Free(th, p)
}

func distinct(t *testing.T, a alloc.Allocator) {
	th := newThread(a, 0)
	seen := make(map[alloc.Ptr]bool)
	var ps []alloc.Ptr
	for i := 0; i < 5000; i++ {
		p := a.Malloc(th, 1+i%300)
		if seen[p] {
			t.Fatalf("%s: duplicate pointer %#x", a.Name(), uint64(p))
		}
		seen[p] = true
		ps = append(ps, p)
	}
	for _, p := range ps {
		a.Free(th, p)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
}

func dataIntegrity(t *testing.T, a alloc.Allocator) {
	th := newThread(a, 0)
	rng := rand.New(rand.NewSource(3))
	type obj struct {
		p   alloc.Ptr
		sz  int
		tag byte
	}
	var live []obj
	for op := 0; op < 4000; op++ {
		if len(live) == 0 || rng.Intn(5) < 2 {
			sz := 1 + rng.Intn(3000)
			if rng.Intn(25) == 0 {
				sz = 5000 + rng.Intn(30000)
			}
			p := a.Malloc(th, sz)
			tag := byte(op)
			buf := a.Bytes(p, sz)
			for i := range buf {
				buf[i] = tag
			}
			live = append(live, obj{p, sz, tag})
		} else {
			i := rng.Intn(len(live))
			o := live[i]
			buf := a.Bytes(o.p, o.sz)
			for j := range buf {
				if buf[j] != o.tag {
					t.Fatalf("%s: block %#x (%d bytes) corrupted at %d", a.Name(), uint64(o.p), o.sz, j)
				}
			}
			a.Free(th, o.p)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, o := range live {
		a.Free(th, o.p)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
}

func large(t *testing.T, a alloc.Allocator) {
	th := newThread(a, 0)
	p := a.Malloc(th, 1<<20)
	if got := a.UsableSize(p); got < 1<<20 {
		t.Fatalf("%s: large UsableSize = %d", a.Name(), got)
	}
	buf := a.Bytes(p, 1<<20)
	buf[0], buf[(1<<20)-1] = 0xAA, 0xBB
	before := a.Space().Committed()
	a.Free(th, p)
	if after := a.Space().Committed(); after >= before {
		t.Fatalf("%s: large free kept memory committed (%d -> %d)", a.Name(), before, after)
	}
}

func crossThread(t *testing.T, a alloc.Allocator) {
	producer := newThread(a, 0)
	consumer := newThread(a, 1)
	for round := 0; round < 30; round++ {
		var ps []alloc.Ptr
		for i := 0; i < 100; i++ {
			p := a.Malloc(producer, 40)
			a.Bytes(p, 40)[0] = byte(i)
			ps = append(ps, p)
		}
		for i, p := range ps {
			if a.Bytes(p, 40)[0] != byte(i) {
				t.Fatalf("%s: handed-off block corrupted", a.Name())
			}
			a.Free(consumer, p)
		}
	}
	if live := a.Stats().LiveBytes; live != 0 {
		t.Fatalf("%s: LiveBytes = %d after producer-consumer rounds", a.Name(), live)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
}

func freeNil(t *testing.T, a alloc.Allocator) {
	th := newThread(a, 0)
	a.Free(th, 0)
}

// badPointers: a free of a pointer no Malloc returned panics. The span
// tail is the aligned pointer just past the last whole 48-B block of the
// S-aligned span holding a 48-B block: 48 does not divide S, so the pointer
// names no block even though it lies on the span's block grid.
func badPointers(t *testing.T, a alloc.Allocator) {
	th := newThread(a, 0)
	small := a.Malloc(th, 48)
	large := a.Malloc(th, 64<<10)
	const s = superblock.DefaultSize
	tail := uint64(small)&^(s-1) + s - s%48
	for what, p := range map[string]alloc.Ptr{
		"unknown pointer":        8,
		"small interior pointer": small + 8,
		"large interior pointer": large + 16,
		"span tail":              alloc.Ptr(tail),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Free of %s %#x did not panic", a.Name(), what, uint64(p))
				}
			}()
			a.Free(th, p)
		}()
	}
}

func usable(t *testing.T, a alloc.Allocator) {
	th := newThread(a, 0)
	for sz := 1; sz <= 8192; sz += 7 {
		p := a.Malloc(th, sz)
		if got := a.UsableSize(p); got < sz {
			t.Fatalf("%s: UsableSize(%d) = %d", a.Name(), sz, got)
		}
		a.Free(th, p)
	}
}

// alignment: every block is at least 8-byte aligned (malloc's contract for
// the platforms of the era; all implementations here use 8-byte quanta).
func alignment(t *testing.T, a alloc.Allocator) {
	th := newThread(a, 0)
	for _, sz := range []int{0, 1, 3, 7, 9, 100, 4097, 70000} {
		p := a.Malloc(th, sz)
		if uint64(p)%8 != 0 {
			t.Fatalf("%s: Malloc(%d) = %#x not 8-aligned", a.Name(), sz, uint64(p))
		}
		a.Free(th, p)
	}
}

// disjoint: no two live blocks may overlap, checked via sorted usable
// ranges across a random mix of sizes, threads, and frees.
func disjoint(t *testing.T, a alloc.Allocator) {
	rng := rand.New(rand.NewSource(11))
	t0, t1 := newThread(a, 0), newThread(a, 1)
	type span struct{ lo, hi uint64 }
	live := map[alloc.Ptr]span{}
	var ptrs []alloc.Ptr
	for op := 0; op < 3000; op++ {
		th := t0
		if op%2 == 1 {
			th = t1
		}
		if len(ptrs) == 0 || rng.Intn(3) != 0 {
			sz := 1 + rng.Intn(6000)
			p := a.Malloc(th, sz)
			us := a.UsableSize(p)
			live[p] = span{uint64(p), uint64(p) + uint64(us)}
			ptrs = append(ptrs, p)
		} else {
			i := rng.Intn(len(ptrs))
			p := ptrs[i]
			a.Free(th, p)
			delete(live, p)
			ptrs[i] = ptrs[len(ptrs)-1]
			ptrs = ptrs[:len(ptrs)-1]
		}
	}
	spans := make([]span, 0, len(live))
	for _, s := range live {
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("%s: live blocks overlap: [%#x,%#x) and [%#x,%#x)",
				a.Name(), spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	for _, p := range ptrs {
		a.Free(t0, p)
	}
}

func stress(t *testing.T, a alloc.Allocator) {
	const workers = 6
	const opsPer = 2000
	ch := make(chan alloc.Ptr, 512)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := newThread(a, w)
			rng := rand.New(rand.NewSource(int64(w * 977)))
			var mine []alloc.Ptr
			for i := 0; i < opsPer; i++ {
				switch rng.Intn(4) {
				case 0, 1:
					p := a.Malloc(th, 1+rng.Intn(1500))
					a.Bytes(p, 4)[0] = byte(w)
					mine = append(mine, p)
				case 2:
					if len(mine) > 0 {
						j := rng.Intn(len(mine))
						select {
						case ch <- mine[j]:
						default:
							a.Free(th, mine[j])
						}
						mine[j] = mine[len(mine)-1]
						mine = mine[:len(mine)-1]
					}
				case 3:
					select {
					case p := <-ch:
						a.Free(th, p)
					default:
					}
				}
			}
			for _, p := range mine {
				a.Free(th, p)
			}
		}(w)
	}
	wg.Wait()
	close(ch)
	th := newThread(a, 999)
	for p := range ch {
		a.Free(th, p)
	}
	if live := a.Stats().LiveBytes; live != 0 {
		t.Fatalf("%s: LiveBytes = %d after stress teardown", a.Name(), live)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
}
