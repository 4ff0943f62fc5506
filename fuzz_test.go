package hoard

import (
	"fmt"
	"sort"
	"testing"
)

// The operation kinds FuzzPublicOps decodes, one per input byte's low three
// bits.
const (
	fuzzMalloc = iota
	fuzzCalloc
	fuzzRealloc
	fuzzMallocAligned
	fuzzStamp
	fuzzFree
	fuzzClose
	fuzzDoubleFree
)

const (
	fuzzThreads = 4
	fuzzSlots   = 64
	// fuzzMaxSize reaches well past the 4,096/4,097 large-object threshold.
	fuzzMaxSize = 20000
)

// fuzzOp builds one encoded operation: kind, thread, slot and a 16-bit
// argument, the size. fuzzMallocAligned also takes its alignment from the
// argument's low four bits: 8 << (arg&15 % 10), so 8 to 4,096.
func fuzzOp(kind, thread, slot, arg int) []byte {
	return []byte{byte(kind | thread<<3), byte(slot), byte(arg >> 8), byte(arg)}
}

// FuzzPublicOps decodes its input into operations over fuzzThreads Threads
// and fuzzSlots slots and runs them through the public API on every policy
// over the simulated memory, and on Hoard over the arena when the arena is
// available. Each operation is four bytes: the kind and the thread, the
// slot, and a 16-bit size or alignment. After each input it checks that no
// two live blocks overlap, that every stamp written through Bytes is
// intact, that Stats().LiveBytes is the sum of the live blocks'
// UsableSize, and that CheckIntegrity passes; after freeing everything and
// closing every Thread, LiveBytes and CachedBytes must be 0. A double free
// of the last freed small block must panic and leave CheckIntegrity
// passing, except on PolicyPrivate and PolicyThreshold, whose Free
// documents that it does not detect one.
func FuzzPublicOps(f *testing.F) {
	for kind := fuzzMalloc; kind <= fuzzDoubleFree; kind++ {
		var in []byte
		in = append(in, fuzzOp(fuzzMalloc, 0, 1, 4096)...)
		in = append(in, fuzzOp(fuzzMalloc, 1, 2, 4097)...)
		in = append(in, fuzzOp(fuzzFree, 2, 1, 0)...)
		switch kind {
		case fuzzMalloc, fuzzFree:
			in = append(in, fuzzOp(kind, 3, 3, 100)...)
		case fuzzCalloc, fuzzRealloc:
			in = append(in, fuzzOp(kind, 1, 2, 9000)...)
		case fuzzMallocAligned:
			in = append(in, fuzzOp(kind, 0, 4, 9)...) // align 4096
		case fuzzStamp:
			in = append(in, fuzzOp(kind, 3, 2, 0)...)
		case fuzzClose:
			in = append(in, fuzzOp(kind, 0, 0, 0)...)
			in = append(in, fuzzOp(fuzzMalloc, 0, 5, 64)...)
		case fuzzDoubleFree:
			in = append(in, fuzzOp(kind, 3, 0, 0)...)
		}
		in = append(in, fuzzOp(fuzzStamp, 0, 2, 0)...)
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, pol := range []Policy{PolicyHoard, PolicySerial, PolicyConcurrent, PolicyDLHeap, PolicyPrivate, PolicyOwnership, PolicyThreshold} {
			runFuzzOps(t, MustNew(Config{Policy: pol}), data)
		}
		if a := MustNew(Config{Backend: "arena"}); a.Backend() == "arena" {
			runFuzzOps(t, a, data)
		} else {
			a.Close()
		}
	})
}

// fuzzBlock is one slot's live block: its size and the bytes known to hold
// fill (a stamp, or Calloc's zeros).
type fuzzBlock struct {
	p     Ptr
	size  int
	fill  byte
	known int
}

func runFuzzOps(t *testing.T, a *Allocator, data []byte) {
	defer a.Close()
	name := fmt.Sprintf("%s/%s", a.Policy(), a.Backend())
	threads := make([]*Thread, fuzzThreads)
	for i := range threads {
		threads[i] = a.NewThread()
	}
	var slots [fuzzSlots]*fuzzBlock
	var lastFreed Ptr // the last small block Free released, if not reissued
	var stamp byte
	detectsDoubleFree := a.Policy() != PolicyPrivate && a.Policy() != PolicyThreshold

	// allocated records b in slot i. A block reissued over lastFreed's
	// address makes freeing that address again an interior or live free,
	// not a double free, so lastFreed is forgotten.
	allocated := func(i int, b *fuzzBlock) {
		if b.p.IsNil() {
			t.Fatalf("%s: slot %d: allocation of %d B returned nil", name, i, b.size)
		}
		n := threads[0].UsableSize(b.p)
		if n < b.size {
			t.Fatalf("%s: slot %d: UsableSize %d below the %d B asked for", name, i, n, b.size)
		}
		if lastFreed >= b.p && lastFreed < b.p+Ptr(n) {
			lastFreed = 0
		}
		slots[i] = b
	}
	free := func(th *Thread, i int) {
		b := slots[i]
		small := th.UsableSize(b.p) <= 4096
		th.Free(b.p)
		slots[i] = nil
		if small {
			lastFreed = b.p
		}
	}
	check := func(i int, b *fuzzBlock) {
		for j, c := range threads[0].Bytes(b.p, b.known) {
			if c != b.fill {
				t.Fatalf("%s: slot %d: byte %d of %#x is %#x, want %#x", name, i, j, b.p, c, b.fill)
			}
		}
	}

	for ; len(data) >= 4; data = data[4:] {
		kind, th := int(data[0]&7), threads[int(data[0]>>3)%fuzzThreads]
		i, arg := int(data[1])%fuzzSlots, int(data[2])<<8|int(data[3])
		size := arg % (fuzzMaxSize + 1)
		switch kind {
		case fuzzMalloc, fuzzCalloc, fuzzMallocAligned:
			if slots[i] != nil {
				free(th, i)
			}
			switch kind {
			case fuzzMalloc:
				allocated(i, &fuzzBlock{p: th.Malloc(size), size: size})
			case fuzzCalloc:
				allocated(i, &fuzzBlock{p: th.Calloc(size), size: size, known: size})
				check(i, slots[i])
			default:
				align := 8 << ((arg & 15) % 10)
				allocated(i, &fuzzBlock{p: th.MallocAligned(size, align), size: size})
				if uint64(slots[i].p)%uint64(align) != 0 {
					t.Fatalf("%s: MallocAligned(%d, %d) = %#x", name, size, align, slots[i].p)
				}
			}
		case fuzzRealloc:
			b := slots[i]
			if b == nil {
				allocated(i, &fuzzBlock{p: th.Realloc(0, size), size: size})
				break
			}
			slots[i] = nil
			nb := &fuzzBlock{p: th.Realloc(b.p, size), size: size, fill: b.fill, known: min(b.known, size)}
			allocated(i, nb)
			check(i, nb)
		case fuzzStamp:
			if b := slots[i]; b != nil {
				stamp++
				bs := th.Bytes(b.p, b.size)
				for j := range bs {
					bs[j] = stamp
				}
				b.fill, b.known = stamp, b.size
			}
		case fuzzFree:
			if slots[i] != nil {
				free(th, i)
			}
		case fuzzClose:
			th.Close()
		case fuzzDoubleFree:
			if lastFreed.IsNil() || !detectsDoubleFree {
				break
			}
			p := lastFreed
			lastFreed = 0
			if r := panicIn(func() { th.Free(p) }); r == nil {
				t.Fatalf("%s: double free of %#x did not panic", name, p)
			}
			if err := a.CheckIntegrity(); err != nil {
				t.Fatalf("%s: after a double free: %v", name, err)
			}
		}
	}

	type span struct{ lo, hi uint64 }
	var live []span
	var usable int64
	for i, b := range slots {
		if b == nil {
			continue
		}
		check(i, b)
		n := threads[0].UsableSize(b.p)
		usable += int64(n)
		live = append(live, span{uint64(b.p), uint64(b.p) + uint64(n)})
	}
	sort.Slice(live, func(i, j int) bool { return live[i].lo < live[j].lo })
	for i := 1; i < len(live); i++ {
		if live[i].lo < live[i-1].hi {
			t.Fatalf("%s: live blocks [%#x, %#x) and [%#x, %#x) overlap", name, live[i-1].lo, live[i-1].hi, live[i].lo, live[i].hi)
		}
	}
	if got := a.Stats().LiveBytes; got != usable {
		t.Fatalf("%s: LiveBytes %d, live blocks' UsableSize sums to %d", name, got, usable)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}

	for i, b := range slots {
		if b != nil {
			threads[i%fuzzThreads].Free(b.p)
		}
	}
	for _, th := range threads {
		th.Close()
	}
	if st := a.Stats(); st.LiveBytes != 0 || a.CachedBytes() != 0 {
		t.Fatalf("%s: after freeing everything and closing every Thread, LiveBytes %d and CachedBytes %d, want 0 and 0", name, st.LiveBytes, a.CachedBytes())
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatalf("%s: at teardown: %v", name, err)
	}
}
