package core

import (
	"fmt"
	"slices"
	"testing"

	"hoardgo/internal/env"
	"hoardgo/internal/superblock"
)

// hookLocks is an env.LockFactory of real locks that records every Lock and
// Unlock the thread whose env is by makes, by lock name, and runs hook once,
// just before by's first Lock of the lock named name.
type hookLocks struct {
	name string
	by   env.Env
	hook func()
	ops  []string
}

func (f *hookLocks) NewLock(name string) env.Lock {
	return &hookLock{f: f, name: name, inner: env.RealLockFactory{}.NewLock(name)}
}

// arm makes hook run before by's first Lock of the lock named name, and
// starts a new record of by's lock operations.
func (f *hookLocks) arm(name string, by env.Env, hook func()) {
	f.name, f.by, f.hook, f.ops = name, by, hook, nil
}

type hookLock struct {
	f     *hookLocks
	name  string
	inner env.Lock
}

func (l *hookLock) Lock(e env.Env) {
	if f := l.f; e == f.by {
		f.ops = append(f.ops, "lock "+l.name)
		if hook := f.hook; hook != nil && l.name == f.name {
			f.hook = nil
			hook()
		}
	}
	l.inner.Lock(e)
}

func (l *hookLock) Unlock(e env.Env) {
	if e == l.f.by {
		l.f.ops = append(l.f.ops, "unlock "+l.name)
	}
	l.inner.Unlock(e)
}

func (l *hookLock) TryLock(e env.Env) bool { return l.inner.TryLock(e) }

// TestFreeRechecksMovedOwner forces the free protocol's one race: the
// superblock of a block being freed moves to the global heap while the
// freeing thread waits for the old owner's lock. Just before the freeing
// thread takes heap 1's lock, the owner frees the superblock's other block,
// which evicts it. The free must re-check the owner, let heap 1's lock go,
// and free the block into heap 0, which now owns the superblock. On the
// bare core that free is a single free; under the magazines it is the flush
// of a one-block remote batch.
func TestFreeRechecksMovedOwner(t *testing.T) {
	for _, magazines := range []int{0, 8} {
		t.Run(fmt.Sprintf("magazines=%d", magazines), func(t *testing.T) {
			locks := &hookLocks{}
			h := New(Config{Heaps: 2, K: KNone, Magazines: magazines}, locks)
			owner, freer := thread(h, 0), thread(h, 1) // heaps 1 and 2
			p, q := h.Malloc(owner, 64), h.Malloc(owner, 64)
			sb, ok := superblock.FromPtr(h.Space(), p)
			if !ok || sb.OwnerID() != 1 {
				t.Fatalf("block not on a heap-1 superblock (ok=%v)", ok)
			}
			free := func() { h.Free(freer, p) }
			evict := func() { h.Free(owner, q) }
			if magazines != 0 {
				h.Free(freer, p) // into the remote batch, under no lock
				free = func() { h.FlushThread(freer) }
				evict = func() {
					h.Free(owner, q)
					h.FlushThread(owner)
				}
			}
			locks.arm("hoard.heap1", freer.Env, func() {
				evict()
				if sb.OwnerID() != 0 {
					t.Fatalf("the owner's free left the superblock on heap %d, want it evicted to 0", sb.OwnerID())
				}
			})
			free()
			// The pass on heap 1 frees nothing and evicts nothing, so it
			// takes no other lock before it lets heap 1 go.
			want := []string{"lock hoard.heap1", "unlock hoard.heap1", "lock hoard.heap0", "unlock hoard.heap0"}
			if !slices.Equal(locks.ops, want) {
				t.Fatalf("the free's lock operations were %q, want %q", locks.ops, want)
			}
			if sb.OwnerID() != 0 || !sb.IsFreeBlock(p) {
				t.Fatalf("superblock on heap %d, block free %v; want heap 0 and free", sb.OwnerID(), sb.IsFreeBlock(p))
			}
			if got := h.Stats().RemoteFrees; got != 1 {
				t.Fatalf("RemoteFrees = %d, want 1", got)
			}
			if err := h.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
