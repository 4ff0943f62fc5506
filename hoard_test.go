package hoard

import (
	"strings"
	"sync"
	"testing"

	"hoardgo/internal/core"
)

func TestQuickstartFlow(t *testing.T) {
	a := MustNew(Config{})
	th := a.NewThread()
	p := th.Malloc(100)
	copy(th.Bytes(p, 100), []byte("hello"))
	if string(th.Bytes(p, 5)) != "hello" {
		t.Fatal("bytes round trip failed")
	}
	if th.UsableSize(p) < 100 {
		t.Fatalf("UsableSize = %d", th.UsableSize(p))
	}
	th.Free(p)
	if st := a.Stats(); st.LiveBytes != 0 || st.Mallocs != 1 || st.Frees != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestAllPoliciesBasicUse(t *testing.T) {
	for _, pol := range []Policy{PolicyHoard, PolicySerial, PolicyConcurrent, PolicyDLHeap, PolicyPrivate, PolicyOwnership, PolicyThreshold} {
		t.Run(string(pol), func(t *testing.T) {
			a := MustNew(Config{Policy: pol, Procs: 4})
			if a.Policy() != pol {
				t.Fatalf("Policy() = %q", a.Policy())
			}
			th := a.NewThread()
			var ps []Ptr
			for i := 0; i < 500; i++ {
				p := th.Malloc(1 + i%700)
				th.Bytes(p, 1)[0] = byte(i)
				ps = append(ps, p)
			}
			for _, p := range ps {
				th.Free(p)
			}
			if st := a.Stats(); st.LiveBytes != 0 {
				t.Fatalf("LiveBytes = %d", st.LiveBytes)
			}
			if err := a.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCalloc(t *testing.T) {
	a := MustNew(Config{})
	th := a.NewThread()
	p := th.Malloc(256)
	buf := th.Bytes(p, 256)
	for i := range buf {
		buf[i] = 0xFF
	}
	th.Free(p)
	q := th.Calloc(256) // likely reuses p's block
	for i, b := range th.Bytes(q, 256) {
		if b != 0 {
			t.Fatalf("Calloc byte %d = %#x, want 0", i, b)
		}
	}
	th.Free(q)
}

func TestReallocAllPolicies(t *testing.T) {
	for _, pol := range []Policy{PolicyHoard, PolicySerial, PolicyConcurrent, PolicyDLHeap, PolicyPrivate, PolicyOwnership, PolicyThreshold} {
		t.Run(string(pol), func(t *testing.T) {
			a := MustNew(Config{Policy: pol})
			th := a.NewThread()
			p := th.Malloc(32)
			copy(th.Bytes(p, 4), "abcd")
			p = th.Realloc(p, 3000)
			if string(th.Bytes(p, 4)) != "abcd" {
				t.Fatal("realloc lost contents")
			}
			p = th.Realloc(p, 8)
			if string(th.Bytes(p, 4)) != "abcd" {
				t.Fatal("shrinking realloc lost contents")
			}
			th.Free(p)
			var nilP Ptr
			p = th.Realloc(nilP, 16)
			th.Free(p)
		})
	}
}

func TestConcurrentPublicAPI(t *testing.T) {
	a := MustNew(Config{Procs: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			th := a.NewThread()
			var ps []Ptr
			for i := 0; i < 2000; i++ {
				p := th.Malloc(1 + i%300)
				th.Bytes(p, 1)[0] = 1
				ps = append(ps, p)
			}
			for _, p := range ps {
				th.Free(p)
			}
		}()
	}
	wg.Wait()
	if st := a.Stats(); st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d", st.LiveBytes)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestThreadIDsUnique(t *testing.T) {
	a := MustNew(Config{})
	seen := map[int]bool{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := a.NewThread().ID()
			mu.Lock()
			if seen[id] {
				t.Errorf("duplicate thread id %d", id)
			}
			seen[id] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// TestBadConfig pins that New reports every invalid configuration as an
// error — never a panic from a lower layer — and names the offending field.
func TestBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown policy", Config{Policy: "bogus"}, "policy"},
		{"negative procs", Config{Procs: -1}, "Procs"},
		{"empty fraction above 1", Config{Hoard: core.Config{EmptyFraction: 1.5}}, "empty fraction"},
		{"negative empty fraction", Config{Hoard: core.Config{EmptyFraction: -0.5}}, "empty fraction"},
		{"superblock size not a power of two", Config{Hoard: core.Config{SuperblockSize: 3000}}, "superblock size"},
		{"baseline superblock size not a power of two", Config{Policy: PolicySerial, Hoard: core.Config{SuperblockSize: 3000}}, "superblock size"},
		{"negative heaps", Config{Hoard: core.Config{Heaps: -1}}, "heap"},
		{"negative K", Config{Hoard: core.Config{K: -2}}, "K"},
		{"shrinking size classes", Config{Hoard: core.Config{SizeClassBase: 0.9}}, "size classes"},
		{"thread cache of one", Config{ThreadCacheCapacity: 1}, "ThreadCacheCapacity"},
		{"negative thread cache", Config{ThreadCacheCapacity: -3}, "ThreadCacheCapacity"},
	} {
		var err error
		if r := panicIn(func() { _, err = New(tc.cfg) }); r != nil {
			t.Errorf("%s: New panicked: %v", tc.name, r)
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

func TestFootprintTracksFragmentation(t *testing.T) {
	a := MustNew(Config{})
	th := a.NewThread()
	var ps []Ptr
	for i := 0; i < 4000; i++ {
		ps = append(ps, th.Malloc(64))
	}
	st := a.Stats()
	if st.FootprintBytes < st.LiveBytes {
		t.Fatalf("footprint %d < live %d", st.FootprintBytes, st.LiveBytes)
	}
	// Paper-style fragmentation: footprint within a small factor of live.
	if float64(st.FootprintBytes) > 1.5*float64(st.LiveBytes) {
		t.Fatalf("footprint %d vs live %d: excessive fragmentation", st.FootprintBytes, st.LiveBytes)
	}
	for _, p := range ps {
		th.Free(p)
	}
}

func TestMallocAlignedPublic(t *testing.T) {
	for _, pol := range []Policy{PolicyHoard, PolicySerial} {
		a := MustNew(Config{Policy: pol})
		th := a.NewThread()
		for _, align := range []int{8, 64, 1024, 4096} {
			p := th.MallocAligned(100, align)
			if uint64(p)%uint64(align) != 0 {
				t.Fatalf("%s: MallocAligned(100, %d) misaligned: %#x", pol, align, uint64(p))
			}
			th.Free(p)
		}
	}
	// Hoard handles oversized alignment natively.
	a := MustNew(Config{})
	th := a.NewThread()
	p := th.MallocAligned(100, 1<<16)
	if uint64(p)%(1<<16) != 0 {
		t.Fatalf("64K alignment failed: %#x", uint64(p))
	}
	th.Free(p)
}

func TestDescribePublic(t *testing.T) {
	for _, pol := range []Policy{PolicyHoard, PolicyPrivate} {
		a := MustNew(Config{Policy: pol})
		th := a.NewThread()
		p := th.Malloc(64)
		var sb strings.Builder
		a.Describe(&sb)
		if sb.Len() == 0 {
			t.Fatalf("%s: empty Describe output", pol)
		}
		th.Free(p)
	}
}

func TestThreadCachePublic(t *testing.T) {
	a := MustNew(Config{ThreadCacheCapacity: 16})
	th := a.NewThread()
	p := th.Malloc(64)
	th.Free(p)
	q := th.Malloc(64)
	if q != p {
		t.Fatalf("thread cache did not serve the freed block: %#x vs %#x", uint64(q), uint64(p))
	}
	th.Free(q)
	th.Free(th.Malloc(64))
	if st := a.Stats(); st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d", st.LiveBytes)
	}
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestDebugPublic(t *testing.T) {
	a := MustNew(Config{Debug: true, DebugQuarantine: -1})
	th := a.NewThread()
	p := th.Malloc(64)
	th.Bytes(p, 64)[63] = 1 // in bounds: fine
	th.Free(p)
	if st := a.Stats(); st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d", st.LiveBytes)
	}
	// Overflow detection end to end.
	q := th.Malloc(16)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("overflowing Bytes() did not panic")
			}
		}()
		th.Bytes(q, 17)
	}()
	th.Free(q)
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
