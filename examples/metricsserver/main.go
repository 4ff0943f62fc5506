// Metricsserver is a live Prometheus scrape target: a handful of worker
// goroutines churn allocations in phased rounds while a 50 ms time.Ticker
// calls ReleaseMemory to trim the global heap and Audit to check the
// allocator's invariants under load, and the allocator's metrics —
// footprint vs reserved, decommitted bytes, release passes, per-heap
// occupancy — are served on /metrics for `curl` or a real Prometheus to
// watch. Point a scraper at it and graph hoard_footprint_bytes against
// hoard_reserved_bytes to see the footprint breathe. At exit it prints how
// many trims released memory and how many bytes they returned, and how many
// audits ran. A failed audit is printed when it happens and fails the run.
//
//	go run ./examples/metricsserver -addr :8080 &
//	watch -n1 'curl -s localhost:8080/metrics | grep -E "footprint|decommitted"'
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	hoard "hoardgo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "metricsserver:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("metricsserver", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address for /metrics")
	workers := fs.Int("workers", 4, "churn goroutines")
	duration := fs.Duration("duration", 0, "stop after this long (0 = run forever)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	a, err := hoard.New(hoard.Config{Procs: *workers, Metrics: true})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, a.Close()) }()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", a.MetricsHandler())
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if e := <-served; !errors.Is(e, http.ErrServerClosed) {
			err = errors.Join(err, e)
		}
	}()
	fmt.Fprintf(out, "serving metrics on http://%s/metrics\n", ln.Addr())

	// Phased churn: each worker builds up a working set, holds it, then
	// drops it — so the global heap oscillates between loaded and empty and
	// the trimmer has something to do.
	stop := make(chan struct{})
	if *duration > 0 {
		time.AfterFunc(*duration, func() { close(stop) })
	}
	// pause sleeps for d and reports whether the run should go on.
	pause := func(d time.Duration) bool {
		select {
		case <-stop:
			return false
		case <-time.After(d):
			return true
		}
	}

	// Periodic trimming and auditing: every 50 ms, return the empty
	// superblocks parked on the global heap to the OS, then check the
	// invariants while the workers run.
	trimDone := make(chan struct{})
	audits := 0
	var auditErr error
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
				audits++
				if err := a.Audit(); err != nil {
					fmt.Fprintf(out, "audit %d failed: %v\n", audits, err)
					auditErr = err
				}
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
				for i := 0; i < 4096; i++ {
					p := th.Malloc(64 + i%960)
					th.Bytes(p, 8)[0] = byte(w)
					ps = append(ps, p)
				}
				held := pause(200 * time.Millisecond)
				for _, p := range ps {
					th.Free(p)
				}
				ps = ps[:0]
				if !held || !pause(800*time.Millisecond) {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	<-trimDone

	s := a.Stats()
	fmt.Fprintf(out, "trims: %d released memory, %d bytes in all\n", s.ScavengeOps, s.ScavengedBytes)
	fmt.Fprintf(out, "audits: %d\n", audits)
	fmt.Fprintf(out, "final: footprint %d B, reserved %d B, decommitted %d B\n",
		s.FootprintBytes, s.ReservedBytes, s.DecommittedBytes)
	if auditErr != nil {
		return fmt.Errorf("last failed audit: %w", auditErr)
	}
	if s.LiveBytes != 0 {
		return fmt.Errorf("leak: %d live bytes after the workers stopped", s.LiveBytes)
	}
	return nil
}
