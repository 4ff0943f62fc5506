// Webserver simulation: the Larson-style pattern the paper calls a server
// workload, written against the public API. A listener goroutine "accepts"
// requests and allocates their buffers; a pool of worker goroutines parses,
// builds responses (more allocations), and frees everything — so nearly all
// frees are cross-thread, the pattern that melts naive multithreaded
// allocators. Run it with -policy serial or -policy private to compare.
//
// The lifecycle here is the reference for real servers: every worker closes
// its Thread on exit (flushing any magazine-cached blocks back to the
// heaps), and the allocator itself is closed at the end (unmapping the
// arena reservation when -backend arena).
// With -metrics ADDR the allocator's Prometheus endpoint is served live,
// so the run can be scraped while it works. lifecycle_test.go runs this
// same pattern as a regression test.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	hoard "hoardgo"
)

type request struct {
	buf     hoard.Ptr
	bufSize int
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "webserver:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("webserver", flag.ContinueOnError)
	policy := fs.String("policy", "hoard", "allocator policy: hoard serial private ownership threshold")
	backend := fs.String("backend", "", "memory substrate: sim or arena (hoard policy only; empty = HOARDGO_BACKEND or sim)")
	workers := fs.Int("workers", 4, "worker goroutines")
	requests := fs.Int("requests", 50000, "total requests")
	tcache := fs.Int("tcache", 0, "per-thread magazine capacity, hoard policy only (0 = the default of 64)")
	metricsAddr := fs.String("metrics", "", "serve the allocator's /metrics endpoint on this address while running")
	if err := fs.Parse(args); err != nil {
		return err
	}

	a, err := hoard.New(hoard.Config{
		Policy:              hoard.Policy(*policy),
		Backend:             *backend,
		Procs:               *workers,
		ThreadCacheCapacity: *tcache,
	})
	if err != nil {
		return err
	}
	// Close is the only way an arena reservation is unmapped. Every exit
	// path must run it.
	defer func() { err = errors.Join(err, a.Close()) }()

	if *metricsAddr != "" {
		ln, lerr := net.Listen("tcp", *metricsAddr)
		if lerr != nil {
			return lerr
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
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", ln.Addr())
	}

	queue := make(chan request, 256)
	var wg sync.WaitGroup

	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			t := a.NewThread()
			// The lifecycle fix: a worker that exits without Close strands
			// its magazine blocks — invisible to the emptiness invariant,
			// never scavenged.
			defer t.Close()
			rng := rand.New(rand.NewSource(int64(w)))
			for req := range queue {
				// "Parse": read the request buffer.
				var checksum byte
				for _, b := range t.Bytes(req.buf, req.bufSize) {
					checksum ^= b
				}
				// "Respond": allocate a response, fill it, release
				// both. The request buffer was allocated by the
				// listener — a remote free.
				respSize := 128 + rng.Intn(1024)
				resp := t.Malloc(respSize)
				buf := t.Bytes(resp, respSize)
				for i := range buf {
					buf[i] = checksum
				}
				t.Free(resp)
				t.Free(req.buf)
			}
		}(w)
	}

	listener := a.NewThread()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < *requests; i++ {
		size := 64 + rng.Intn(2048)
		p := listener.Malloc(size)
		buf := listener.Bytes(p, size)
		for j := range buf {
			buf[j] = byte(i + j)
		}
		queue <- request{buf: p, bufSize: size}
	}
	close(queue)
	wg.Wait()
	listener.Close()
	elapsed := time.Since(start)

	st := a.Stats()
	fmt.Fprintf(out, "policy      %s (backend %s)\n", *policy, a.Backend())
	fmt.Fprintf(out, "requests    %d via %d workers in %v (%.0f req/s)\n",
		*requests, *workers, elapsed.Round(time.Millisecond),
		float64(*requests)/elapsed.Seconds())
	fmt.Fprintf(out, "allocator   %d mallocs, %d frees, %d remote frees\n",
		st.Mallocs, st.Frees, st.RemoteFrees)
	fmt.Fprintf(out, "memory      %d B live, %d B cached, peak footprint %d KiB\n",
		st.LiveBytes, a.CachedBytes(), st.PeakFootprintBytes/1024)
	if st.LiveBytes != 0 {
		return fmt.Errorf("leak: %d live bytes after all requests completed", st.LiveBytes)
	}
	if c := a.CachedBytes(); c != 0 {
		return fmt.Errorf("leak: %d bytes stranded in thread magazines after drain", c)
	}
	if err := a.CheckIntegrity(); err != nil {
		return err
	}
	fmt.Fprintln(out, "integrity check passed")
	return nil
}
