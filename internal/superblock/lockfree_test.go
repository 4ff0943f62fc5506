package superblock

import (
	"math/rand"
	"sync"
	"testing"

	"hoardgo/internal/alloc"
	"hoardgo/internal/env"
	"hoardgo/internal/vm/vmtest"
)

// freeBitPop counts the set bits of the free bitmap. The bitmap marks every
// block not currently allocated — carved blocks on the free list and
// never-carved blocks alike — so a consistent superblock always satisfies
// freeBitPop == nBlocks - used.
func freeBitPop(sb *Superblock) int {
	n := 0
	for i := 0; i < sb.nBlocks; i++ {
		if sb.isFree(i) {
			n++
		}
	}
	return n
}

// TestPropertyFullnessWordConsistency drives one superblock through random
// interleavings of every mutation the allocator performs — locked
// alloc/free, lock-free pops (single and run), and lock-free frees (single
// and run) — checking after every step that the packed fullness word's used
// count agrees with the model's live set, and that the free bitmap
// complements it exactly. Sequential, so the checks can be exact at every step; the
// concurrent variant below checks the same algebra at quiescence.
func TestPropertyFullnessWordConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10; iter++ {
		space := vmtest.NewSized(t, DefaultSize)
		sb := New(space, DefaultSize, 2, 256) // 32 blocks: dense churn
		sb.Unseal()
		ref := sb.SelfRef()
		var live []alloc.Ptr
		takeLive := func() alloc.Ptr {
			i := rng.Intn(len(live))
			p := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			return p
		}
		for op := 0; op < 3000; op++ {
			switch rng.Intn(7) {
			case 0, 1:
				if p, ok := sb.AllocBlock(e); ok {
					live = append(live, p)
				}
			case 2:
				if p, ok, _ := ref.TryPop(e); ok {
					live = append(live, p)
				}
			case 3:
				out := make([]alloc.Ptr, rng.Intn(6)+1)
				n, _ := ref.TryPopRun(e, out)
				live = append(live, out[:n]...)
			case 4:
				if len(live) > 0 {
					sb.FreeBlock(e, takeLive())
				}
			case 5:
				if len(live) > 0 {
					if ok, _, _ := sb.FastFree(e, takeLive()); !ok {
						t.Fatal("FastFree refused on an unsealed superblock")
					}
				}
			case 6:
				k := rng.Intn(4) + 1
				if k > len(live) {
					k = len(live)
				}
				if k > 0 {
					ps := make([]alloc.Ptr, 0, k)
					for i := 0; i < k; i++ {
						ps = append(ps, takeLive())
					}
					if ok, _, _ := sb.FastFreeRun(e, ps); !ok {
						t.Fatal("FastFreeRun refused on an unsealed superblock")
					}
				}
			}
			_, used, _, sealed := unpackWord(sb.state.Load())
			if sealed {
				t.Fatal("superblock became sealed mid-run")
			}
			if used != len(live) {
				t.Fatalf("op %d: used = %d, want %d live", op, used, len(live))
			}
			if pop := freeBitPop(sb); pop != sb.nBlocks-used {
				t.Fatalf("op %d: free bitmap population %d, want nBlocks-used = %d",
					op, pop, sb.nBlocks-used)
			}
		}
		for _, p := range live {
			sb.FreeBlock(e, p)
		}
		if !sb.Empty() {
			t.Fatalf("iter %d: %d blocks in use after freeing everything", iter, sb.InUse())
		}
		if err := sb.CheckIntegrity(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// TestLockFreeConcurrentWordConsistency hammers one superblock's lock-free
// paths from several goroutines — single and run pops, single and run CAS
// frees — then checks at quiescence that the word, the free list, and
// the bitmap agree. Run under -race this doubles as the memory-model check
// for the CAS protocol.
func TestLockFreeConcurrentWordConsistency(t *testing.T) {
	space := vmtest.NewSized(t, DefaultSize)
	sb := New(space, DefaultSize, 2, 64)
	sb.Unseal()
	ref := sb.SelfRef()
	// Pre-carve the whole superblock so the free list (which lock-free
	// pops serve from) covers every block.
	ps := make([]alloc.Ptr, 0, sb.NBlocks())
	for {
		p, ok := sb.AllocBlock(e)
		if !ok {
			break
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		sb.FreeBlock(e, p)
	}

	const goroutines = 4
	const opsEach = 30000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id)))
			myEnv := &env.RealEnv{ID: id}
			var mine []alloc.Ptr
			scratch := make([]alloc.Ptr, 4)
			for i := 0; i < opsEach; i++ {
				switch rng.Intn(5) {
				case 0, 1:
					if p, ok, _ := ref.TryPop(myEnv); ok {
						mine = append(mine, p)
					}
				case 2:
					n, _ := ref.TryPopRun(myEnv, scratch)
					mine = append(mine, scratch[:n]...)
				case 3:
					if len(mine) > 0 {
						p := mine[len(mine)-1]
						mine = mine[:len(mine)-1]
						if ok, _, _ := sb.FastFree(myEnv, p); !ok {
							t.Errorf("FastFree refused while unsealed")
							return
						}
					}
				case 4:
					if k := min(len(mine), 1+rng.Intn(4)); k > 0 {
						run := append([]alloc.Ptr(nil), mine[len(mine)-k:]...)
						mine = mine[:len(mine)-k]
						if ok, _, _ := sb.FastFreeRun(myEnv, run); !ok {
							t.Errorf("FastFreeRun refused while unsealed")
							return
						}
					}
				}
			}
			for _, p := range mine {
				if ok, _, _ := sb.FastFree(myEnv, p); !ok {
					t.Errorf("FastFree refused during teardown")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if !sb.Empty() {
		t.Fatalf("%d blocks in use after all goroutines freed everything", sb.InUse())
	}
	if pop := freeBitPop(sb); pop != sb.nBlocks {
		t.Fatalf("free bitmap population %d after quiescence, want %d", pop, sb.nBlocks)
	}
	if err := sb.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathsRespectSeal pins the fencing contract: a sealed superblock
// rejects every lock-free operation (pop, run pop, fast free, run free)
// while the locked paths still work — exactly what eviction and decommit
// rely on.
func TestFastPathsRespectSeal(t *testing.T) {
	space := vmtest.NewSized(t, DefaultSize)
	sb := New(space, DefaultSize, 2, 128)
	sb.Unseal()
	ref := sb.SelfRef()
	a, _ := sb.AllocBlock(e)
	b, _ := sb.AllocBlock(e)
	sb.FreeBlock(e, b) // one block on the free list

	sb.Seal()
	if _, ok, _ := ref.TryPop(e); ok {
		t.Fatal("TryPop succeeded on a sealed superblock")
	}
	if n, _ := ref.TryPopRun(e, make([]alloc.Ptr, 2)); n != 0 {
		t.Fatal("TryPopRun claimed blocks from a sealed superblock")
	}
	if ok, _, _ := sb.FastFree(e, a); ok {
		t.Fatal("FastFree succeeded on a sealed superblock")
	}
	if ok, _, _ := sb.FastFreeRun(e, []alloc.Ptr{a}); ok {
		t.Fatal("FastFreeRun succeeded on a sealed superblock")
	}
	// Locked paths ignore the seal.
	if _, ok := sb.AllocBlock(e); !ok {
		t.Fatal("locked AllocBlock failed on a sealed superblock")
	}
	sb.FreeBlock(e, a)
	sb.Unseal()
	if _, ok, _ := ref.TryPop(e); !ok {
		t.Fatal("TryPop failed after unsealing")
	}
}
