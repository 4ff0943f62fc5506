package hoard

import (
	"strings"
	"sync"
	"testing"
)

// churn allocates count objects of size bytes and frees them all, pushing
// emptied superblocks to the global heap.
func churn(th *Thread, count, size int) {
	ps := make([]Ptr, count)
	for i := range ps {
		ps[i] = th.Malloc(size)
	}
	for _, p := range ps {
		th.Free(p)
	}
}

func TestReleaseMemoryPublic(t *testing.T) {
	a := MustNew(Config{Procs: 2})
	th := a.NewThread()
	churn(th, 2000, 64)

	before := a.Stats()
	released := a.ReleaseMemory()
	if released == 0 {
		t.Fatal("ReleaseMemory found nothing after a 2000-object churn")
	}
	st := a.Stats()
	if st.FootprintBytes != before.FootprintBytes-released {
		t.Fatalf("FootprintBytes = %d, want %d - %d", st.FootprintBytes, before.FootprintBytes, released)
	}
	if st.DecommittedBytes != released {
		t.Fatalf("DecommittedBytes = %d, want %d", st.DecommittedBytes, released)
	}
	if st.ReservedBytes != before.FootprintBytes {
		t.Fatalf("ReservedBytes = %d changed across a scavenge, want %d", st.ReservedBytes, before.FootprintBytes)
	}
	if st.ScavengeOps == 0 || st.ScavengedBytes != released {
		t.Fatalf("ScavengeOps %d ScavengedBytes %d, want >0 / %d", st.ScavengeOps, st.ScavengedBytes, released)
	}
	// Demand returns: decommitted superblocks come back transparently.
	churn(th, 2000, 64)
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}

	// Metrics export carries the new families.
	var b strings.Builder
	if err := a.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if err := LintMetrics(b.String()); err != nil {
		t.Fatalf("lint: %v\n%s", err, b.String())
	}
	for _, want := range []string{
		"hoard_reserved_bytes",
		"hoard_decommitted_bytes",
		"hoard_scavenge_passes_total",
		"hoard_scavenged_bytes_total",
		"hoard_decommits_total",
		"hoard_recommits_total",
		"hoard_heap_decommitted_superblocks",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("missing family %q in:\n%s", want, b.String())
		}
	}
}

func TestReleaseMemoryNonHoard(t *testing.T) {
	a := MustNew(Config{Policy: PolicySerial})
	th := a.NewThread()
	churn(th, 100, 64)
	if got := a.ReleaseMemory(); got != 0 {
		t.Fatalf("serial ReleaseMemory = %d", got)
	}
}

// TestReleaseMemoryUnderProdConsChurn is the race-suite stress test: a
// producer-consumer churn (the workload that parks the most superblocks on
// the global heap) runs against one goroutine calling ReleaseMemory in a
// loop and another calling Audit back to back, which stops at the first
// audit error. Every block is written through
// after allocation, so a superblock handed out while decommitted would
// fault the vm guard.
func TestReleaseMemoryUnderProdConsChurn(t *testing.T) {
	// batch is large enough to overflow the magazines, so superblocks
	// empty out and move to the global heap each round.
	const workers, batch = 4, 1000
	a := MustNew(Config{Procs: workers})
	stop := make(chan struct{})
	released := make(chan int64)
	audited := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				audited <- nil
				return
			default:
				if err := a.Audit(); err != nil {
					audited <- err
					return
				}
			}
		}
	}()
	go func() {
		var total int64
		for {
			select {
			case <-stop:
				released <- total
				return
			default:
				total += a.ReleaseMemory()
			}
		}
	}()

	rounds := 30
	if testing.Short() {
		rounds = 5
	}
	var wg sync.WaitGroup
	ch := make(chan Ptr, workers*batch)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := a.NewThread()
			for r := 0; r < rounds; r++ {
				// Produce: allocate and scribble.
				for i := 0; i < batch; i++ {
					p := th.Malloc(64 + (i % 4 * 64))
					buf := th.Bytes(p, 64)
					for j := range buf {
						buf[j] = byte(w)
					}
					ch <- p
				}
				// Consume: verify a batch freed cross-thread.
				for i := 0; i < batch; i++ {
					p := <-ch
					_ = th.Bytes(p, 64)
					th.Free(p)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	total := <-released
	if err := <-audited; err != nil {
		t.Fatalf("audit under release churn: %v", err)
	}
	close(ch)
	for p := range ch {
		a.NewThread().Free(p)
	}

	t.Logf("ReleaseMemory under churn: %d bytes released, %+v", total, a.Stats())
	if err := a.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
