package hoard

import (
	"sort"
	"testing"

	"hoardgo/internal/core"
)

// The operation kinds FuzzPublicOps decodes from an op's first byte: its
// low three bits, and above them its top three bits (bits 5 to 7; bits 3
// and 4 pick the thread), taken modulo fuzzKinds.
const (
	fuzzMalloc = iota
	fuzzCalloc
	fuzzRealloc
	fuzzMallocAligned
	fuzzStamp
	fuzzFree
	fuzzClose
	fuzzDoubleFree
	fuzzForeignFree  // a free of a pointer no allocator handed out
	fuzzInteriorFree // a free of a pointer inside a live block
	fuzzKinds
)

const (
	fuzzThreads = 4
	fuzzSlots   = 64
	// fuzzMaxSize reaches well past the 4,096/4,097 large-object threshold.
	fuzzMaxSize = 20000
	// fuzzForeign is the base of the foreign pointers fuzzForeignFree
	// frees, far from every span a fuzz input reserves.
	fuzzForeign Ptr = 0xdead0000
)

// fuzzOp builds one encoded operation: kind, thread, slot and a 16-bit
// argument, the size. fuzzMallocAligned also takes its alignment from the
// argument's low four bits: 8 << (arg&15 % 10), so 8 to 4,096.
// fuzzForeignFree frees fuzzForeign + 8*arg, and fuzzInteriorFree the
// slot's block plus 1 + arg modulo its usable size less one.
func fuzzOp(kind, thread, slot, arg int) []byte {
	return []byte{byte(kind&7 | thread<<3 | kind>>3<<5), byte(slot), byte(arg >> 8), byte(arg)}
}

// FuzzPublicOps decodes its input into operations over fuzzThreads Threads
// and fuzzSlots slots and runs them through the public API on every policy
// over the simulated memory, on Hoard under Config.Debug, whose canaries and
// quarantine live in block memory, on Hoard at the minimum magazine
// capacity, where a refill moves one block and so most mallocs refill (a
// refill's warm that strayed into a live block would break a stamp), and on
// Hoard over the arena when the arena is available. Each operation is four
// bytes: the kind and the thread, the slot, and a 16-bit size or alignment.
// After each input it checks that no two live blocks overlap, that every
// stamp written through Bytes is intact, that Stats().LiveBytes is the sum
// of the live blocks' UsableSize, and that CheckIntegrity passes; after
// freeing everything and closing every Thread, LiveBytes and CachedBytes
// must be 0. A double free of the last freed small block must panic and
// leave CheckIntegrity passing, except on PolicyPrivate and PolicyThreshold,
// whose Free documents that it does not detect one. A free of a foreign or
// an interior pointer must panic on every policy, leave Stats unchanged and
// CheckIntegrity passing.
func FuzzPublicOps(f *testing.F) {
	for kind := fuzzMalloc; kind < fuzzKinds; kind++ {
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
		case fuzzDoubleFree, fuzzForeignFree:
			in = append(in, fuzzOp(kind, 3, 0, 0)...)
		case fuzzInteriorFree:
			in = append(in, fuzzOp(kind, 3, 2, 4096)...)
		}
		in = append(in, fuzzOp(fuzzStamp, 0, 2, 0)...)
		f.Add(in)
	}
	// Refills of a warmed class beside live stamped blocks: at the minimum
	// capacity the third free flushes two blocks, and the second malloc
	// after it refills one of them.
	var in []byte
	for i := range 4 {
		in = append(in, fuzzOp(fuzzMalloc, 0, i, 16)...)
		in = append(in, fuzzOp(fuzzStamp, 0, i, 0)...)
	}
	for i := range 3 {
		in = append(in, fuzzOp(fuzzFree, 0, i, 0)...)
	}
	in = append(in, fuzzOp(fuzzMalloc, 0, 0, 16)...)
	in = append(in, fuzzOp(fuzzMalloc, 0, 1, 16)...)
	f.Add(in)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, pol := range []Policy{PolicyHoard, PolicySerial, PolicyConcurrent, PolicyDLHeap, PolicyPrivate, PolicyOwnership, PolicyThreshold} {
			runFuzzOps(t, string(pol), MustNew(Config{Policy: pol}), data)
		}
		runFuzzOps(t, "hoard+debug", MustNew(Config{Debug: true}), data)
		runFuzzOps(t, "hoard+mincap", MustNew(Config{ThreadCacheCapacity: core.MinCapacity}), data)
		if a := MustNew(Config{Backend: "arena"}); a.Backend() == "arena" {
			runFuzzOps(t, "hoard", a, data)
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

// runFuzzOps runs data's operations on a, which failures name as arm.
func runFuzzOps(t *testing.T, arm string, a *Allocator, data []byte) {
	defer a.Close()
	name := arm + "/" + a.Backend()
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
		kind, th := int(data[0]&7|data[0]>>5<<3)%fuzzKinds, threads[int(data[0]>>3)%fuzzThreads]
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
		case fuzzForeignFree, fuzzInteriorFree:
			what, p := "foreign", fuzzForeign+Ptr(arg)*8
			if kind == fuzzInteriorFree {
				b := slots[i]
				if b == nil {
					break
				}
				// Debug's usable size is the size asked for, so a block of
				// 0 or 1 B has no interior.
				n := th.UsableSize(b.p)
				if n < 2 {
					break
				}
				what, p = "interior", b.p+Ptr(1+arg%(n-1))
			}
			before := a.Stats()
			if r := panicIn(func() { th.Free(p) }); r == nil {
				t.Fatalf("%s: free of %s pointer %#x did not panic", name, what, p)
			}
			if after := a.Stats(); after != before {
				t.Fatalf("%s: free of %s pointer %#x changed Stats from %+v to %+v", name, what, p, before, after)
			}
			if err := a.CheckIntegrity(); err != nil {
				t.Fatalf("%s: after a free of %s pointer %#x: %v", name, what, p, err)
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
