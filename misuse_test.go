package hoard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
)

// misuseArms runs a misuse case on both memory backends, each on two
// protocols: "lockfree" is the default configuration — the paper's locked
// heaps under owner-aware magazines, whose hits take no lock — and "locked"
// is the paper's locked heaps alone, a core with its magazines off, so
// every malloc and free takes a heap lock.
func misuseArms(t *testing.T, run func(t *testing.T, a *Allocator)) {
	for _, backend := range []string{"sim", "arena"} {
		for _, locked := range []bool{false, true} {
			name := backend + "/lockfree"
			if locked {
				name = backend + "/locked"
			}
			t.Run(name, func(t *testing.T) {
				a := MustNew(Config{Backend: backend})
				if a.Backend() != backend {
					t.Skipf("backend %s unavailable: %s", backend, a.BackendFallbackReason())
				}
				if locked {
					a.Close()
					a = &Allocator{name: a.name}
					a.hoard = core.New(core.Config{Heaps: 16, Backend: backend}, env.RealLockFactory{})
					a.impl = a.hoard
				}
				defer a.Close()
				run(t, a)
			})
		}
	}
}

// magazineArms runs a case on the default configuration, magazines on, on
// both memory backends.
func magazineArms(t *testing.T, run func(t *testing.T, a *Allocator)) {
	for _, backend := range []string{"sim", "arena"} {
		t.Run(backend, func(t *testing.T) {
			a := MustNew(Config{Backend: backend})
			if a.Backend() != backend {
				t.Skipf("backend %s unavailable: %s", backend, a.BackendFallbackReason())
			}
			defer a.Close()
			run(t, a)
		})
	}
}

// panicIn runs fn on a goroutine of its own — a thread distinct from the
// caller's — and returns what it panicked with (nil if it returned).
func panicIn(fn func()) (r any) {
	done := make(chan any)
	go func() {
		defer func() { done <- recover() }()
		fn()
	}()
	return <-done
}

// wantPanic fails unless fn panics with a message containing one of names.
func wantPanic(t *testing.T, what string, fn func(), names ...string) {
	t.Helper()
	r := panicIn(fn)
	if r == nil {
		t.Fatalf("%s: no panic", what)
	}
	msg := fmt.Sprint(r)
	for _, n := range names {
		if strings.Contains(msg, n) {
			return
		}
	}
	t.Fatalf("%s: panic %q names none of %q", what, msg, names)
}

func TestMisuseSameThreadDoubleFree(t *testing.T) {
	misuseArms(t, func(t *testing.T, a *Allocator) {
		th := a.NewThread()
		p := th.Malloc(64)
		th.Free(p)
		wantPanic(t, "second Free", func() { th.Free(p) }, "double free")
	})
}

func TestMisuseCrossThreadDoubleFree(t *testing.T) {
	misuseArms(t, func(t *testing.T, a *Allocator) {
		producer, consumer := a.NewThread(), a.NewThread()
		p := producer.Malloc(64)
		keep := producer.Malloc(64)
		if r := panicIn(func() { consumer.Free(p) }); r != nil {
			t.Fatalf("first cross-thread Free panicked: %v", r)
		}
		wantPanic(t, "second cross-thread Free", func() { consumer.Free(p) }, "double free")
		wantPanic(t, "owner's Free after a cross-thread Free", func() { producer.Free(p) }, "double free")
		producer.Free(keep)
	})
}

// TestMisuseDoubleFreeAfterMigration frees blocks until their superblocks
// move to the global heap, then frees one of them again.
func TestMisuseDoubleFreeAfterMigration(t *testing.T) {
	misuseArms(t, func(t *testing.T, a *Allocator) {
		th := a.NewThread()
		ps := make([]Ptr, 1024)
		for i := range ps {
			ps[i] = th.Malloc(64)
		}
		for _, p := range ps {
			th.Free(p)
		}
		h := a.unwrap()
		var moved Ptr
		for _, p := range ps {
			if sb, ok := superblock.FromPtr(h.Space(), p); ok && sb.OwnerID() == 0 {
				moved = p
				break
			}
		}
		if moved.IsNil() {
			t.Fatal("freeing everything moved no superblock to the global heap")
		}
		other := a.NewThread()
		wantPanic(t, "Free after migration", func() { other.Free(moved) }, "double free")
	})
}

// TestMisuseDoubleFreeOfBlockInAnotherMagazine frees a block, flushes it
// back to its heap, lets another thread's refill take it into that
// thread's magazine, and frees it again through the stale pointer: the
// second free must panic, and the block must still be handed out once.
func TestMisuseDoubleFreeOfBlockInAnotherMagazine(t *testing.T) {
	magazineArms(t, func(t *testing.T, a *Allocator) {
		first := a.NewThread()
		p := first.Malloc(64)
		first.Free(p) // into first's magazine
		first.Close() // flushed: p is back on its superblock's free list
		heaps := a.unwrap().NumHeaps() - 1
		var other *Thread // a thread on first's heap
		for other == nil || other.ID()%heaps != first.ID()%heaps {
			other = a.NewThread()
		}
		q := other.Malloc(64) // refills other's magazine, p included
		if q == p {
			t.Fatal("the refill handed the flushed block straight out; the case needs it cached")
		}
		wantPanic(t, "Free of a block in another thread's magazine", func() { first.Free(p) }, "double free")
		third := a.NewThread()
		wantPanic(t, "cross-thread Free of a block in another thread's magazine",
			func() { third.Free(p) }, "double free")
		seen := map[Ptr]bool{q: true}
		for i := 0; i < 64; i++ {
			r := other.Malloc(64)
			if seen[r] {
				t.Fatalf("block %#x handed out twice", uint64(r))
			}
			seen[r] = true
		}
		if !seen[p] {
			t.Fatal("the cached block never came out of the magazine")
		}
		for r := range seen {
			other.Free(r)
		}
		other.Close()
		if err := a.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMisuseDuplicateInFreeBatch: a duplicate inside one FreeBatch panics
// at the call, and the blocks freed before it are accounted and regrouped
// before the panic propagates, so the allocator stays intact.
func TestMisuseDuplicateInFreeBatch(t *testing.T) {
	misuseArms(t, func(t *testing.T, a *Allocator) {
		th := a.NewThread()
		p, q := th.Malloc(64), th.Malloc(64)
		wantPanic(t, "FreeBatch with a duplicate", func() { th.FreeBatch([]Ptr{p, q, p}) }, "double free")
		if err := a.CheckIntegrity(); err != nil {
			t.Fatalf("after the FreeBatch panic: %v", err)
		}
		other := a.NewThread()
		r := other.Malloc(64)
		wantPanic(t, "cross-thread FreeBatch with a duplicate",
			func() { other.FreeBatch([]Ptr{r, r}) }, "double free")
		if err := a.CheckIntegrity(); err != nil {
			t.Fatalf("after the cross-thread FreeBatch panic: %v", err)
		}
	})
}

// TestMisuseDuplicateInFreeBatchLocked: on each baseline whose malloc and
// free take a heap lock, a FreeBatch or Free that panics on a double free
// releases that lock, so the next Malloc returns, and leaves the books
// intact.
func TestMisuseDuplicateInFreeBatchLocked(t *testing.T) {
	for _, pol := range []Policy{PolicySerial, PolicyConcurrent, PolicyOwnership, PolicyDLHeap} {
		t.Run(string(pol), func(t *testing.T) {
			a := MustNew(Config{Policy: pol})
			defer a.Close()
			th := a.NewThread()
			p, q := th.Malloc(64), th.Malloc(64)
			wantPanic(t, "FreeBatch with a duplicate", func() { th.FreeBatch([]Ptr{p, q, p}) }, "double free")
			done := make(chan Ptr)
			go func() { done <- th.Malloc(64) }()
			select {
			case r := <-done:
				th.Free(r)
			case <-time.After(10 * time.Second):
				t.Fatal("Malloc after the panicking FreeBatch did not return: the heap lock is still held")
			}
			wantPanic(t, "Free of a freed block", func() { th.Free(p) }, "double free")
			r := th.Malloc(64) // the lock is free again after a panicking Free too
			th.Free(r)
			if err := a.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			if st := a.Stats(); st.LiveBytes != 0 || st.Mallocs != st.Frees {
				t.Fatalf("after freeing everything: %d live bytes, %d mallocs, %d frees", st.LiveBytes, st.Mallocs, st.Frees)
			}
		})
	}
}

func TestMisuseForeignPointer(t *testing.T) {
	misuseArms(t, func(t *testing.T, a *Allocator) {
		th := a.NewThread()
		th.Free(th.Malloc(64))
		wantPanic(t, "Free of a pointer never handed out", func() { th.Free(Ptr(0xdead0000)) },
			"unknown pointer", "foreign pointer")
	})
}

func TestMisuseInteriorPointer(t *testing.T) {
	misuseArms(t, func(t *testing.T, a *Allocator) {
		th := a.NewThread()
		small := th.Malloc(64)
		wantPanic(t, "Free inside a small block", func() { th.Free(small + 8) },
			fmt.Sprintf("bad block pointer %#x", uint64(small+8)))
		large := th.Malloc(64 << 10)
		wantPanic(t, "Free inside a large object", func() { th.Free(large + 16) }, "interior")
		th.Free(small)
		th.Free(large)
	})
}

func TestMisuseAfterClose(t *testing.T) {
	misuseArms(t, func(t *testing.T, a *Allocator) {
		th := a.NewThread()
		p := th.Malloc(64)
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		wantPanic(t, "Malloc after Close", func() { th.Malloc(64) }, "Malloc after Close")
		wantPanic(t, "Free after Close", func() { th.Free(p) }, "Free after Close")
		wantPanic(t, "Bytes after Close", func() { th.Bytes(p, 8) }, "Bytes after Close")
		wantPanic(t, "UsableSize after Close", func() { th.UsableSize(p) }, "UsableSize after Close")
		wantPanic(t, "MallocBatch after Close",
			func() { th.MallocBatch(64, 4, make([]Ptr, 4)) }, "MallocBatch after Close")
		wantPanic(t, "FreeBatch after Close", func() { th.FreeBatch([]Ptr{p}) }, "FreeBatch after Close")
		wantPanic(t, "Calloc after Close", func() { th.Calloc(64) }, "Calloc after Close")
		wantPanic(t, "Realloc after Close", func() { th.Realloc(p, 128) }, "Realloc after Close")
		wantPanic(t, "MallocAligned after Close",
			func() { th.MallocAligned(64, 8192) }, "MallocAligned after Close")
		wantPanic(t, "NewThread after Close", func() { a.NewThread() }, "NewThread after Close")
		wantPanic(t, "ReleaseMemory after Close", func() { a.ReleaseMemory() }, "ReleaseMemory after Close")
		wantPanic(t, "CheckIntegrity after Close", func() { a.CheckIntegrity() }, "CheckIntegrity after Close")
		if st := a.Stats(); st.Mallocs != 1 {
			t.Fatalf("Stats after Close: %d mallocs, want 1", st.Mallocs)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	})
}

// TestMisuseNegativeSize: a negative size panics at the public call with
// one message naming it, on every policy with and without Debug, and
// leaves the allocator intact.
func TestMisuseNegativeSize(t *testing.T) {
	for _, pol := range []Policy{PolicyHoard, PolicySerial, PolicyConcurrent, PolicyDLHeap, PolicyPrivate, PolicyOwnership, PolicyThreshold} {
		for _, debug := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/debug=%v", pol, debug), func(t *testing.T) {
				a := MustNew(Config{Policy: pol, Debug: debug})
				defer a.Close()
				th := a.NewThread()
				p := th.Malloc(64)
				for _, c := range []struct {
					op string
					fn func()
				}{
					{"Malloc", func() { th.Malloc(-1) }},
					{"Calloc", func() { th.Calloc(-1) }},
					{"Realloc", func() { th.Realloc(p, -1) }},
					{"Realloc", func() { th.Realloc(0, -1) }},
					{"MallocAligned", func() { th.MallocAligned(-1, 64) }},
					{"MallocBatch", func() { th.MallocBatch(-1, 2, make([]Ptr, 2)) }},
					{"Bytes", func() { th.Bytes(p, -1) }},
				} {
					wantPanic(t, c.op+" of size -1", c.fn, "hoard: "+c.op+" of negative size -1")
				}
				th.Free(p)
				th.Close()
				if err := a.CheckIntegrity(); err != nil {
					t.Fatal(err)
				}
				if st := a.Stats(); st.Mallocs != 1 || st.Frees != 1 {
					t.Fatalf("%d mallocs and %d frees, want 1 and 1", st.Mallocs, st.Frees)
				}
			})
		}
	}
}

// TestLockedCrossThreadFreeStress is the handoff pattern on the default
// configuration, on both backends: a producer mallocs batches, a consumer on
// another heap frees them — per block and by FreeBatch. Every such free is
// remote, so it goes to the consumer's remote batch and from there to the
// owner heap under that heap's lock, never into the consumer's magazines.
// Run under -race; at quiescence the books must balance exactly and every
// structure must check out.
func TestLockedCrossThreadFreeStress(t *testing.T) {
	for _, backend := range []string{"sim", "arena"} {
		t.Run(backend, func(t *testing.T) {
			a := MustNew(Config{Backend: backend})
			if a.Backend() != backend {
				t.Skipf("backend %s unavailable: %s", backend, a.BackendFallbackReason())
			}
			defer a.Close()
			const rounds, batch = 300, 64
			ch := make(chan []Ptr, 8)
			done := make(chan struct{})
			go func() {
				defer close(done)
				th := a.NewThread()
				defer th.Close()
				for ps := range ch {
					for i, p := range ps {
						if b := th.Bytes(p, 8); b[0] != byte(i) {
							t.Errorf("block %d corrupted in flight", i)
						}
					}
					th.Free(ps[0])
					th.FreeBatch(ps[1 : len(ps)/2])
					for _, p := range ps[len(ps)/2:] {
						th.Free(p)
					}
				}
			}()
			th := a.NewThread()
			for r := 0; r < rounds; r++ {
				ps := make([]Ptr, batch)
				n := th.MallocBatch(16+r%200, batch/2, ps)
				for i := n; i < batch; i++ {
					ps[i] = th.Malloc(16 + (r*7+i)%500)
				}
				for i, p := range ps {
					th.Bytes(p, 8)[0] = byte(i)
				}
				ch <- ps
			}
			close(ch)
			<-done
			th.Close()
			st := a.Stats()
			if st.LiveBytes != 0 || st.Mallocs != st.Frees {
				t.Fatalf("books after the run: live %d B, %d mallocs, %d frees", st.LiveBytes, st.Mallocs, st.Frees)
			}
			if st.RemoteFrees < rounds*batch {
				t.Fatalf("%d remote frees reached the owner heaps, want at least %d", st.RemoteFrees, rounds*batch)
			}
			if err := a.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
