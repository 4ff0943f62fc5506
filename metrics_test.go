package hoard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWriteMetricsPrometheus(t *testing.T) {
	a := MustNew(Config{Procs: 2, Metrics: true, ThreadCacheCapacity: 16})
	th := a.NewThread()
	var ps []Ptr
	for i := 0; i < 200; i++ {
		ps = append(ps, th.Malloc(64+i%512))
	}
	for _, p := range ps[:100] {
		th.Free(p)
	}
	var b strings.Builder
	if err := a.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if err := LintMetrics(out); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"hoard_mallocs_total",
		"hoard_live_bytes",
		"hoard_lock_acquires_total",
		"hoard_heap_in_use_bytes",
		"hoard_heap_group_superblocks",
		"hoard_tcache_magazine_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing family %q in:\n%s", want, out)
		}
	}
	// The churn above took heap locks: the instrumented factory must have
	// seen acquisitions.
	stats := a.LockStats()
	if len(stats) == 0 {
		t.Fatal("no instrumented locks with Metrics: true")
	}
	var acquires int64
	for _, st := range stats {
		acquires += st.Acquires
	}
	if acquires == 0 {
		t.Fatal("no lock acquisitions recorded across a malloc/free churn")
	}
	for _, p := range ps[100:] {
		th.Free(p)
	}
}

func TestWriteMetricsJSON(t *testing.T) {
	a := MustNew(Config{Procs: 2, Metrics: true})
	th := a.NewThread()
	p := th.Malloc(100)
	var b strings.Builder
	if err := a.WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Allocator string           `json:"allocator"`
		Counters  map[string]int64 `json:"counters"`
		Heaps     []struct {
			A      int64 `json:"a"`
			Groups []int `json:"groups"`
		} `json:"heaps"`
		Locks []struct {
			Name     string `json:"name"`
			Acquires int64  `json:"acquires"`
		} `json:"locks"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, b.String())
	}
	if doc.Allocator != "hoard" {
		t.Fatalf("allocator %q", doc.Allocator)
	}
	if doc.Counters["mallocs_total"] != 1 {
		t.Fatalf("mallocs_total = %d", doc.Counters["mallocs_total"])
	}
	if len(doc.Heaps) == 0 || len(doc.Locks) == 0 {
		t.Fatalf("missing heaps (%d) or locks (%d)", len(doc.Heaps), len(doc.Locks))
	}
	th.Free(p)
}

func TestMetricsOffHasNoLockStats(t *testing.T) {
	a := MustNew(Config{Procs: 2})
	th := a.NewThread()
	th.Free(th.Malloc(64))
	if got := a.LockStats(); got != nil {
		t.Fatalf("LockStats = %v without Config.Metrics", got)
	}
	// Export still works — it just has no lock families.
	var b strings.Builder
	if err := a.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if err := LintMetrics(b.String()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "hoard_lock_") {
		t.Fatal("lock families exported without instrumentation")
	}
}

func TestWriteMetricsNonHoardPolicy(t *testing.T) {
	a := MustNew(Config{Policy: PolicySerial, Metrics: true})
	th := a.NewThread()
	p := th.Malloc(64)
	var b strings.Builder
	if err := a.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if err := LintMetrics(b.String()); err != nil {
		t.Fatalf("lint: %v\n%s", err, b.String())
	}
	if strings.Contains(b.String(), "hoard_heap_in_use_bytes") {
		t.Fatal("serial policy exported Hoard heap occupancy")
	}
	if err := a.Audit(); err != nil {
		t.Fatalf("Audit on serial policy: %v", err)
	}
	th.Free(p)
}

func TestMetricsHandler(t *testing.T) {
	a := MustNew(Config{Procs: 2, Metrics: true})
	th := a.NewThread()
	var ps []Ptr
	for i := 0; i < 300; i++ {
		ps = append(ps, th.Malloc(64))
	}
	srv := httptest.NewServer(a.MetricsHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	if err := LintMetrics(string(body)); err != nil {
		t.Fatalf("lint: %v\n%s", err, body)
	}
	for _, want := range []string{"hoard_mallocs_total", "hoard_footprint_bytes", "hoard_reserved_bytes"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("missing family %q in scrape:\n%s", want, body)
		}
	}
	// Scrapes sample live, from the counts threads have published: once the
	// thread has closed, a second one counts the frees below exactly.
	for _, p := range ps {
		th.Free(p)
	}
	th.Close()
	resp2, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body2), "hoard_frees_total{allocator=\"hoard\"} 300") {
		t.Fatalf("second scrape did not reflect frees:\n%s", body2)
	}
}

// TestAuditUnderLoad audits and scrapes the allocator while goroutines churn
// through the public API, on both backends. Every audit must pass, every
// mid-churn scrape of MetricsHandler must lint as Prometheus text while heap
// occupancy and lock counters change underfoot, and its magazine gauge must
// lie within what the workers can cache plus their unpublished hits. The
// final scrape, after every worker closed its thread, must count every
// malloc exactly and show no cached byte.
func TestAuditUnderLoad(t *testing.T) {
	const workers = 4
	// gauge returns a scrape's hoard_tcache_magazine_bytes.
	gauge := func(t *testing.T, body string) int64 {
		t.Helper()
		const prefix = "hoard_tcache_magazine_bytes{allocator=\"hoard\"} "
		for _, line := range strings.Split(body, "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatalf("magazine gauge %q: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("scrape lacks the magazine gauge:\n%s", body)
		return 0
	}
	for _, backend := range []string{"sim", "arena"} {
		t.Run(backend, func(t *testing.T) {
			a := MustNew(Config{Procs: 4, Metrics: true, Backend: backend})
			defer a.Close()
			if backend == "arena" && a.Backend() != "arena" {
				t.Skipf("arena backend unavailable: %s", a.BackendFallbackReason())
			}
			srv := httptest.NewServer(a.MetricsHandler())
			defer srv.Close()
			scrape := func() string {
				t.Helper()
				resp, err := http.Get(srv.URL)
				if err != nil {
					t.Fatalf("scrape: %v", err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatalf("scrape read: %v", err)
				}
				if err := LintMetrics(string(body)); err != nil {
					t.Fatalf("scrape failed lint: %v\n%s", err, body)
				}
				return string(body)
			}
			if err := a.Audit(); err != nil {
				t.Fatalf("audit of idle allocator: %v", err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			halt := sync.OnceFunc(func() { close(stop); wg.Wait() })
			defer halt() // runs before a.Close if a check fails mid-churn
			var mallocs atomic.Int64
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					th := a.NewThread()
					defer th.Close()
					var ps []Ptr
					for {
						select {
						case <-stop:
							for _, p := range ps {
								th.Free(p)
							}
							return
						default:
						}
						ps = append(ps, th.Malloc(32+len(ps)%900))
						mallocs.Add(1)
						if len(ps) > 400 {
							for _, p := range ps {
								th.Free(p)
							}
							ps = ps[:0]
						}
					}
				}()
			}
			for mallocs.Load() < 1000 {
				runtime.Gosched() // let the churn get going
			}
			// Each open thread caches at most ThreadBound bytes, and its
			// sampled live bytes trail by at most 31 unpublished hits of
			// at most 4096 B.
			bound := workers * (a.unwrap().ThreadBound() + 31*4096)
			for i := 0; i < 20; i++ {
				if err := a.Audit(); err != nil {
					t.Fatalf("audit %d under load: %v", i, err)
				}
				if i%5 == 0 {
					if g := gauge(t, scrape()); g < 0 || g > bound {
						t.Fatalf("mid-churn magazine gauge %d outside [0, %d]", g, bound)
					}
				}
			}
			halt()
			if err := a.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("hoard_mallocs_total{allocator=\"hoard\"} %d\n", mallocs.Load())
			body := scrape()
			if !strings.Contains(body, want) {
				t.Fatalf("final scrape lacks %q:\n%s", want, body)
			}
			if g := gauge(t, body); g != 0 {
				t.Fatalf("magazine gauge %d after every worker closed its thread", g)
			}
		})
	}
}

// TestHandoffUnderAudit runs producer/consumer pairs through the public API
// on both backends: each producer mallocs 64-block batches of 16..2048 B and
// tags every block, and its consumer checks the tags and frees the whole
// batch, so every free is of another goroutine's block. Audit,
// ReleaseMemory and metrics scrapes run all the while. Under -race this
// checks the happens-before argument behind the plain free states: a
// block's state passes from producer to consumer through the channel, and
// the audit reads only listed blocks, under their heap's lock. At the end
// the allocator must be intact and its books exact.
func TestHandoffUnderAudit(t *testing.T) {
	const pairs, batches, batch = 2, 150, 64
	for _, backend := range []string{"sim", "arena"} {
		t.Run(backend, func(t *testing.T) {
			a := MustNew(Config{Procs: 2, Metrics: true, Backend: backend})
			defer a.Close()
			if backend == "arena" && a.Backend() != "arena" {
				t.Skipf("arena backend unavailable: %s", a.BackendFallbackReason())
			}
			var wg sync.WaitGroup
			var bad atomic.Int64
			for i := 0; i < pairs; i++ {
				// Up to 4 batches in flight per pair, 256 blocks, so a
				// producer runs ahead of its consumer as in perfbench's
				// handoff.
				ch := make(chan []Ptr, 4)
				wg.Add(2)
				go func() {
					defer wg.Done()
					defer close(ch)
					th := a.NewThread()
					defer th.Close()
					for b := 0; b < batches; b++ {
						ps := make([]Ptr, batch)
						for j := range ps {
							n := 16 + (b*batch+j)*37%2033
							ps[j] = th.Malloc(n)
							th.Bytes(ps[j], 1)[0] = byte(j)
						}
						ch <- ps
					}
				}()
				go func() {
					defer wg.Done()
					th := a.NewThread()
					defer th.Close()
					for ps := range ch {
						for j, p := range ps {
							if th.Bytes(p, 1)[0] != byte(j) {
								bad.Add(1)
							}
							th.Free(p)
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				if err := a.Audit(); err != nil {
					t.Errorf("audit under load: %v", err)
					<-done
					return
				}
				a.ReleaseMemory()
				var b strings.Builder
				if err := a.WriteMetrics(&b); err != nil {
					t.Fatal(err)
				}
				if err := LintMetrics(b.String()); err != nil {
					t.Fatalf("scrape under load failed lint: %v", err)
				}
			}
			if n := bad.Load(); n != 0 {
				t.Fatalf("%d blocks lost their tag between producer and consumer", n)
			}
			if err := a.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			st := a.Stats()
			if want := int64(pairs * batches * batch); st.Mallocs != want || st.Frees != want || st.LiveBytes != 0 {
				t.Fatalf("books: %d mallocs, %d frees, %d B live; want %d, %d, 0", st.Mallocs, st.Frees, st.LiveBytes, want, want)
			}
			if st.RemoteFrees == 0 {
				t.Fatal("no free crossed heaps")
			}
		})
	}
}
