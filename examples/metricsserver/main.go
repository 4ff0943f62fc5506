// Metricsserver is a live Prometheus scrape target: a handful of worker
// goroutines churn allocations in phased rounds while a 50 ms time.Ticker
// calls ReleaseMemory to trim the global heap, and the allocator's metrics —
// footprint vs reserved, decommitted bytes, release passes, per-heap
// occupancy — are served on /metrics for `curl` or a real Prometheus to
// watch. Point a scraper at it and graph hoard_footprint_bytes against
// hoard_reserved_bytes to see the footprint breathe. At exit it prints how
// many trims released memory and how many bytes they returned.
//
//	go run ./examples/metricsserver -addr :8080 &
//	watch -n1 'curl -s localhost:8080/metrics | grep -E "footprint|decommitted"'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	hoard "hoardgo"
)

func main() {
	addr := flag.String("addr", "localhost:8080", "listen address for /metrics")
	workers := flag.Int("workers", 4, "churn goroutines")
	duration := flag.Duration("duration", 0, "stop after this long (0 = run forever)")
	flag.Parse()

	a := hoard.MustNew(hoard.Config{Procs: *workers, Metrics: true})

	http.Handle("/metrics", a.MetricsHandler())
	go func() { log.Fatal(http.ListenAndServe(*addr, nil)) }()
	fmt.Printf("serving metrics on http://%s/metrics\n", *addr)

	// Phased churn: each worker builds up a working set, holds it, then
	// drops it — so the global heap oscillates between loaded and empty and
	// the trimmer has something to do.
	stop := make(chan struct{})
	if *duration > 0 {
		time.AfterFunc(*duration, func() { close(stop) })
	}

	// Periodic trimming: every 50 ms, return the empty superblocks parked
	// on the global heap to the OS.
	trimDone := make(chan struct{})
	go func() {
		defer close(trimDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				a.ReleaseMemory()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := a.NewThread()
			defer th.Close()
			ps := make([]hoard.Ptr, 0, 4096)
			for {
				select {
				case <-stop:
					for _, p := range ps {
						th.Free(p)
					}
					return
				default:
				}
				for i := 0; i < 4096; i++ {
					p := th.Malloc(64 + i%960)
					th.Bytes(p, 8)[0] = byte(w)
					ps = append(ps, p)
				}
				time.Sleep(200 * time.Millisecond)
				for _, p := range ps {
					th.Free(p)
				}
				ps = ps[:0]
				time.Sleep(800 * time.Millisecond)
			}
		}(w)
	}
	wg.Wait()
	<-trimDone

	s := a.Stats()
	fmt.Printf("trims: %d released memory, %d bytes in all\n", s.ScavengeOps, s.ScavengedBytes)
	fmt.Printf("final: footprint %d B, reserved %d B, decommitted %d B\n",
		s.FootprintBytes, s.ReservedBytes, s.DecommittedBytes)
}
