package heap

import (
	"math/rand"
	"strings"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/sizeclass"
	"hoardgo/internal/superblock"
	"hoardgo/internal/vm"
	"hoardgo/internal/vm/vmtest"
)

// The ref* functions are the list-by-list scans the class masks replace:
// each reads every class's list head in class order, charging one
// OpListScan per head consulted and one per superblock visited. They return
// the superblock the scan picks and the charge it makes.

func refFirstEmpty(h *Heap, skip int) (*superblock.Superblock, int64) {
	var scans int64
	for c := range h.classes {
		if c == skip {
			continue
		}
		scans++
		if sb := h.classes[c].groups[emptyGroup].head; sb != nil {
			return sb, scans
		}
	}
	return nil, scans
}

func refFindEvictable(h *Heap) (*superblock.Superblock, int64) {
	sb, scans := refFirstEmpty(h, -1)
	if sb != nil {
		return sb, scans
	}
	for g := 0; g < NumGroups; g++ {
		for c := range h.classes {
			scans++
			for sb := h.classes[c].groups[g].head; sb != nil; sb = sb.Next {
				scans++
				if sb.AtLeastEmpty(h.fEmpty) {
					return sb, scans
				}
			}
		}
	}
	return nil, scans
}

func refTakeSuper(h *Heap, class int) (*superblock.Superblock, int64) {
	var scans int64
	for _, g := range []int{emptyGroup, 0, 1, 2, 3} {
		scans++
		if sb := h.classes[class].groups[g].head; sb != nil {
			return sb, scans
		}
	}
	sb, n := refFirstEmpty(h, -1)
	return sb, scans + n
}

// maskHeap builds heaps of superblocks over one size-class table.
type maskHeap struct {
	t     *testing.T
	rng   *rand.Rand
	space vm.Backend
	table *sizeclass.Table
	h     *Heap
	// live holds the blocks allocated from each superblock the heap
	// holds.
	live map[*superblock.Superblock][]alloc.Ptr
}

func newMaskHeap(t *testing.T, rng *rand.Rand, table *sizeclass.Table) *maskHeap {
	return &maskHeap{
		t:     t,
		rng:   rng,
		space: vmtest.NewSized(t, testS),
		table: table,
		h:     New(1, testS, 0.25, 0, table.NumClasses(), lf.NewLock("h")),
		live:  make(map[*superblock.Superblock][]alloc.Ptr),
	}
}

// insert adds a superblock of class c with a random fill: empty with
// probability pEmpty, else full or partly used, and returns it.
func (m *maskHeap) insert(c int, pEmpty float64) *superblock.Superblock {
	sb := superblock.New(m.space, testS, c, m.table.Size(c))
	if m.rng.Float64() >= pEmpty {
		for range 1 + m.rng.Intn(sb.NBlocks()) {
			p, _ := sb.AllocBlock(e)
			m.live[sb] = append(m.live[sb], p)
		}
	}
	m.h.Insert(sb)
	return sb
}

// free returns a random number of sb's live blocks to the heap.
func (m *maskHeap) free(sb *superblock.Superblock) {
	ps := m.live[sb]
	for n := m.rng.Intn(len(ps) + 1); n > 0; n-- {
		i := m.rng.Intn(len(ps))
		freeBlock(m.h, sb, ps[i])
		ps[i] = ps[len(ps)-1]
		ps = ps[:len(ps)-1]
	}
	m.live[sb] = ps
}

// taken drops the blocks of a superblock that left the heap.
func (m *maskHeap) taken(sb *superblock.Superblock) {
	if sb != nil {
		delete(m.live, sb)
	}
}

func (m *maskHeap) check(step string) {
	m.t.Helper()
	if err := m.h.CheckIntegrity(); err != nil {
		m.t.Fatalf("%s: %v", step, err)
	}
}

// TestMaskSearchMatchesLinearScan drives random heaps through inserts,
// allocations, frees, takes, reuses and evictions, and checks every search
// against the linear scan: the same superblock, and on a simulated env the
// same OpListScan charge. It runs on the default table (29 classes, one
// mask word) and on the size-class base b = 1.05 (more than 64 classes,
// two words).
func TestMaskSearchMatchesLinearScan(t *testing.T) {
	tables := []struct {
		name string
		base float64
	}{
		{"default", sizeclass.DefaultBase},
		{"base1.05", 1.05},
	}
	for _, tc := range tables {
		t.Run(tc.name, func(t *testing.T) {
			table := sizeclass.New(tc.base, sizeclass.Quantum, testS/2)
			nc := table.NumClasses()
			if tc.base == 1.05 && nc <= 64 {
				t.Fatalf("base 1.05 gives %d classes, want more than 64", nc)
			}
			rng := rand.New(rand.NewSource(11))
			for trial := range 40 {
				// Sparse trials use a few classes, so the searches
				// cross runs of empty lists and mask words.
				classes := rng.Perm(nc)[:1+rng.Intn(nc)]
				if trial%2 == 0 {
					classes = classes[:min(len(classes), 3)]
				}
				pEmpty := []float64{0, 0.05, 0.3}[trial%3]
				m := newMaskHeap(t, rng, table)
				for range 1 + rng.Intn(24) {
					m.insert(classes[rng.Intn(len(classes))], pEmpty)
				}
				m.check("build")
				for step := range 60 {
					m.step(classes, pEmpty, step)
				}
			}
		})
	}
}

// step makes one random operation, checking each search against its
// reference first.
func (m *maskHeap) step(classes []int, pEmpty float64, step int) {
	t, h := m.t, m.h
	t.Helper()
	se := &scanEnv{}
	class := m.rng.Intn(len(h.classes))
	if m.rng.Intn(2) == 0 {
		class = classes[m.rng.Intn(len(classes))]
	}
	switch op := m.rng.Intn(7); op {
	case 0:
		m.insert(classes[m.rng.Intn(len(classes))], pEmpty)
	case 1:
		skip := m.rng.Intn(len(h.classes)+1) - 1
		want, wantScans := refFirstEmpty(h, skip)
		if got := h.firstEmpty(se, skip); got != want || se.scans != wantScans {
			t.Fatalf("step %d: firstEmpty(skip %d) = %p charging %d, linear scan %p charging %d",
				step, skip, got, se.scans, want, wantScans)
		}
	case 2:
		want, wantScans := refFindEvictable(h)
		got := h.FindEvictable(se)
		if got != want || se.scans != wantScans {
			t.Fatalf("step %d: FindEvictable = %p charging %d, linear scan %p charging %d",
				step, got, se.scans, want, wantScans)
		}
		if got != nil {
			h.Remove(got)
			m.taken(got)
		}
	case 3:
		want, wantScans := refTakeSuper(h, class)
		got := h.TakeSuper(se, class, m.table.Size(class))
		if got != want || se.scans != wantScans {
			t.Fatalf("step %d: TakeSuper(%d) = %p charging %d, linear scan %p charging %d",
				step, class, got, se.scans, want, wantScans)
		}
		m.taken(got)
	case 4:
		want, wantScans := refFirstEmpty(h, class)
		if got := h.ReuseEmpty(se, class, m.table.Size(class)); got != want || se.scans != wantScans {
			t.Fatalf("step %d: ReuseEmpty(%d) = %p charging %d, linear scan %p charging %d",
				step, class, got, se.scans, want, wantScans)
		}
	case 5:
		for range 1 + m.rng.Intn(64) {
			p, ok := allocBlock(h, class)
			if !ok {
				break
			}
			sb, _ := superblock.FromPtr(m.space, p)
			m.live[sb] = append(m.live[sb], p)
		}
	case 6:
		var held []*superblock.Superblock
		h.forEach(func(sb *superblock.Superblock) error {
			if len(m.live[sb]) > 0 {
				held = append(held, sb)
			}
			return nil
		})
		if len(held) > 0 {
			m.free(held[m.rng.Intn(len(held))])
		}
	}
	m.check("after step")
}

// TestCheckIntegrityCatchesStaleMask: flipping any one mask bit — clearing
// it for a non-empty list or setting it for an empty one, in either mask
// word — fails CheckIntegrity.
func TestCheckIntegrityCatchesStaleMask(t *testing.T) {
	table := sizeclass.New(1.05, sizeclass.Quantum, testS/2)
	rng := rand.New(rand.NewSource(3))
	m := newMaskHeap(t, rng, table)
	m.insert(2, 1)
	used := m.insert(70, 0)
	m.check("build")
	for _, flip := range []struct{ g, c int }{
		{emptyGroup, 2},  // non-empty, first word
		{emptyGroup, 3},  // empty, first word
		{used.Group, 70}, // non-empty, second word
		{emptyGroup, 65}, // empty, second word
		{NumGroups - 1, 0},
	} {
		word := &m.h.masks[flip.g][flip.c>>6]
		*word ^= 1 << (flip.c & 63)
		err := m.h.CheckIntegrity()
		*word ^= 1 << (flip.c & 63)
		if err == nil || !strings.Contains(err.Error(), "mask") {
			t.Errorf("list %d class %d flipped: CheckIntegrity = %v, want a mask error", flip.g, flip.c, err)
		}
	}
	m.check("restored")
}
