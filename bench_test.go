package hoard_test

// Benchmark harness: one testing.B benchmark per figure and table of the
// paper's evaluation, plus real-goroutine microbenchmarks of the public
// API. The figure benches run the deterministic multiprocessor simulation
// and report the paper's metric as a custom unit:
//
//	virt_ms  — virtual milliseconds for the workload (lower is better)
//	Mops/s   — workload operations per virtual second
//	speedup1 — T(alloc, P=1) / T(alloc, P) for the same bench
//
// Because each iteration is a full deterministic simulation, run these with
// -benchtime=1x:
//
//	go test -bench=. -benchmem -benchtime=1x
//
// cmd/hoardbench prints the same experiments as full sweep tables.
import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	hoard "hoardgo"
	"hoardgo/internal/alloc"
	"hoardgo/internal/allocators"
	"hoardgo/internal/core"
	"hoardgo/internal/env"
	"hoardgo/internal/experiments"
	"hoardgo/internal/metrics"
	"hoardgo/internal/workload"
)

// benchProcs are the processor counts exercised by figure benches (the
// paper's endpoints plus a midpoint).
var benchProcs = []int{1, 4, 14}

// baseCache memoizes each (figure, alloc) single-processor virtual time so
// speedup1 can be reported without re-running P=1 inside every sub-bench.
var (
	baseMu    sync.Mutex
	baseCache = map[string]int64{}
)

func figureBench(b *testing.B, id string) {
	def, ok := experiments.FigureByID(id)
	if !ok {
		b.Fatalf("unknown figure %q", id)
	}
	opts := experiments.Defaults(experiments.Quick)
	run := def.Run(opts.Scale)
	for _, name := range opts.Allocs {
		for _, p := range benchProcs {
			b.Run(fmt.Sprintf("%s/P=%d", name, p), func(b *testing.B) {
				var res workload.Result
				for i := 0; i < b.N; i++ {
					h := workload.NewSim(name, p, opts.Cost)
					res = run(h, p)
				}
				key := id + "/" + name
				baseMu.Lock()
				if p == 1 {
					baseCache[key] = res.ElapsedNS
				}
				base := baseCache[key]
				baseMu.Unlock()
				b.ReportMetric(float64(res.ElapsedNS)/1e6, "virt_ms")
				b.ReportMetric(res.Throughput()/1e6, "Mops/s")
				if base > 0 && res.ElapsedNS > 0 {
					b.ReportMetric(float64(base)/float64(res.ElapsedNS), "speedup1")
				}
			})
		}
	}
}

// F1-F7: the paper's figures.

func BenchmarkFigThreadtest(b *testing.B)   { figureBench(b, "threadtest") }
func BenchmarkFigShbench(b *testing.B)      { figureBench(b, "shbench") }
func BenchmarkFigLarson(b *testing.B)       { figureBench(b, "larson") }
func BenchmarkFigActiveFalse(b *testing.B)  { figureBench(b, "active-false") }
func BenchmarkFigPassiveFalse(b *testing.B) { figureBench(b, "passive-false") }
func BenchmarkFigBEM(b *testing.B)          { figureBench(b, "bem") }
func BenchmarkFigBarnesHut(b *testing.B)    { figureBench(b, "barneshut") }

// T2: fragmentation under Hoard per benchmark (reported as frag_x).
func BenchmarkTableFragmentation(b *testing.B) {
	opts := experiments.Defaults(experiments.Quick)
	for _, def := range experiments.Figures() {
		b.Run(def.ID, func(b *testing.B) {
			var res workload.Result
			run := def.Run(opts.Scale)
			for i := 0; i < b.N; i++ {
				h := workload.NewSim("hoard", 14, opts.Cost)
				res = run(h, 14)
			}
			b.ReportMetric(res.Fragmentation(), "frag_x")
			b.ReportMetric(float64(res.VM.PeakCommitted)/1024, "peakKB")
		})
	}
}

// T3: uniprocessor overhead — virtual runtime at P=1, per allocator,
// normalized to serial (norm_serial).
func BenchmarkTableUniproc(b *testing.B) {
	opts := experiments.Defaults(experiments.Quick)
	def, _ := experiments.FigureByID("threadtest")
	run := def.Run(opts.Scale)
	serial := int64(0)
	for _, name := range append([]string{"serial"}, opts.Allocs...) {
		name := name
		b.Run(name, func(b *testing.B) {
			var res workload.Result
			for i := 0; i < b.N; i++ {
				h := workload.NewSim(name, 1, opts.Cost)
				res = run(h, 1)
			}
			if name == "serial" && serial == 0 {
				serial = res.ElapsedNS
			}
			b.ReportMetric(float64(res.ElapsedNS)/1e6, "virt_ms")
			if serial > 0 {
				b.ReportMetric(float64(res.ElapsedNS)/float64(serial), "norm_serial")
			}
		})
	}
}

// T4: producer-consumer blowup — final committed memory over the live set
// (blowup_x) and over the first round (growth_x).
func BenchmarkTableBlowup(b *testing.B) {
	opts := experiments.Defaults(experiments.Quick)
	cfg := workload.DefaultProdCons(4)
	cfg.Rounds = 20
	ideal := int64(cfg.Batch * cfg.ObjSize)
	for _, name := range opts.Allocs {
		b.Run(name, func(b *testing.B) {
			var series []int64
			for i := 0; i < b.N; i++ {
				h := workload.NewSim(name, 4, opts.Cost)
				_, series = workload.ProdCons(h, cfg)
			}
			last := series[len(series)-1]
			b.ReportMetric(float64(last)/float64(ideal), "blowup_x")
			b.ReportMetric(float64(last)/float64(series[0]), "growth_x")
		})
	}
}

// Real-goroutine microbenchmarks of the public API (wall-clock ns/op).

// sinkSlot holds one goroutine's last buffer in the Go-baseline arms, so the
// compiler must heap-allocate the buffer, as a real program's would be. The
// padding keeps each goroutine's slot off other goroutines' cache lines.
type sinkSlot struct {
	b []byte
	_ [104]byte
}

var (
	sinkMu sync.Mutex
	sinks  []*sinkSlot
)

func newSink() *sinkSlot {
	s := new(sinkSlot)
	sinkMu.Lock()
	sinks = append(sinks, s)
	sinkMu.Unlock()
	return s
}

var pool64 = sync.Pool{New: func() any { return new([64]byte) }}

// goArms are what a Go program would use instead of an allocator for a
// 64-byte buffer: a fresh slice under the garbage collector, and a
// sync.Pool of buffers.
var goArms = []struct {
	name string
	op   func(s *sinkSlot)
}{
	{"go-make", func(s *sinkSlot) { s.b = make([]byte, 64) }},
	{"sync-pool", func(*sinkSlot) { pool64.Put(pool64.Get()) }},
}

// policyArm is one allocator arm of the malloc/free benchmarks.
type policyArm struct {
	name string
	cfg  hoard.Config
}

// singleArms are the allocator arms of the one-goroutine malloc/free
// benchmarks: every policy on the default backend, which is the simulated
// space unless HOARDGO_BACKEND says otherwise, and hoard-arena, the Hoard
// policy on the arena backend, whose address-arithmetic span resolution the
// end-to-end benchmark (perfbench) runs on.
func singleArms() []policyArm {
	var arms []policyArm
	for _, name := range allocators.Names() {
		arms = append(arms, policyArm{name, hoard.Config{Policy: hoard.Policy(name), Procs: 4}})
	}
	return append(arms, policyArm{"hoard-arena", hoard.Config{Backend: "arena", Procs: 4}})
}

// newArm builds an arm's allocator, closed when the benchmark ends. An arm
// that asks for the arena is skipped where the arena is unavailable.
func newArm(b *testing.B, cfg hoard.Config) *hoard.Allocator {
	a := hoard.MustNew(cfg)
	b.Cleanup(func() { a.Close() })
	if cfg.Backend != "" && a.Backend() != cfg.Backend {
		b.Skipf("backend %s unavailable: %s", cfg.Backend, a.BackendFallbackReason())
	}
	return a
}

func BenchmarkMallocFree(b *testing.B) {
	for _, arm := range singleArms() {
		b.Run(arm.name, func(b *testing.B) {
			t := newArm(b, arm.cfg).NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Free(t.Malloc(64))
			}
		})
	}
	for _, arm := range goArms {
		b.Run(arm.name, func(b *testing.B) {
			s := newSink()
			for i := 0; i < b.N; i++ {
				arm.op(s)
			}
		})
	}
}

// goTouchArms are goArms that also write an 8-byte stamp into the buffer,
// as BenchmarkMallocFreeTouch's allocator arms do through Bytes.
var goTouchArms = []struct {
	name string
	op   func(s *sinkSlot, stamp uint64)
}{
	{"go-make", func(s *sinkSlot, stamp uint64) {
		s.b = make([]byte, 64)
		binary.LittleEndian.PutUint64(s.b, stamp)
	}},
	{"sync-pool", func(_ *sinkSlot, stamp uint64) {
		buf := pool64.Get().(*[64]byte)
		binary.LittleEndian.PutUint64(buf[:], stamp)
		pool64.Put(buf)
	}},
}

// BenchmarkMallocFreeTouch is BenchmarkMallocFree with an 8-byte stamp
// written into each block through Bytes before it is freed. A block that is
// never written hides what a store costs right after the allocator's own
// stores, such as a locked instruction that must wait for them to drain.
func BenchmarkMallocFreeTouch(b *testing.B) {
	for _, arm := range singleArms() {
		b.Run(arm.name, func(b *testing.B) {
			t := newArm(b, arm.cfg).NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := t.Malloc(64)
				binary.LittleEndian.PutUint64(t.Bytes(p, 8), uint64(i))
				t.Free(p)
			}
		})
	}
	for _, arm := range goTouchArms {
		b.Run(arm.name, func(b *testing.B) {
			s := newSink()
			for i := 0; i < b.N; i++ {
				arm.op(s, uint64(i))
			}
		})
	}
}

func BenchmarkMallocFreeSizeMix(b *testing.B) {
	for _, name := range allocators.Names() {
		b.Run(name, func(b *testing.B) {
			a := hoard.MustNew(hoard.Config{Policy: hoard.Policy(name), Procs: 4})
			t := a.NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Free(t.Malloc(8 + (i*37)%2048))
			}
		})
	}
}

// BenchmarkMallocFreeParallel measures contention with real goroutines
// (on a multicore host this is where serial collapses; the simulated
// figures capture the same effect machine-independently). Its allocator
// arms are BenchmarkMallocFree's, with 8 processors.
func BenchmarkMallocFreeParallel(b *testing.B) {
	for _, arm := range singleArms() {
		arm.cfg.Procs = 8
		b.Run(arm.name, func(b *testing.B) {
			a := newArm(b, arm.cfg)
			b.RunParallel(func(pb *testing.PB) {
				t := a.NewThread()
				for pb.Next() {
					t.Free(t.Malloc(64))
				}
			})
		})
	}
	for _, arm := range goArms {
		b.Run(arm.name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				s := newSink()
				for pb.Next() {
					arm.op(s)
				}
			})
		})
	}
}

// BenchmarkProducerConsumerReal drives cross-goroutine frees through a
// channel — the blowup pattern, timed for real.
func BenchmarkProducerConsumerReal(b *testing.B) {
	for _, name := range []string{"hoard", "ownership", "private"} {
		b.Run(name, func(b *testing.B) {
			a := hoard.MustNew(hoard.Config{Policy: hoard.Policy(name), Procs: 2})
			ch := make(chan hoard.Ptr, 1024)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := a.NewThread()
				for p := range ch {
					t.Free(p)
				}
			}()
			t := a.NewThread()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch <- t.Malloc(64)
			}
			close(ch)
			wg.Wait()
		})
	}
}

// BenchmarkLarsonReal runs Larson (remote-heavy malloc/free, every object
// written) on real goroutines over the bare Hoard core (benchRealCore).
func BenchmarkLarsonReal(b *testing.B) {
	benchRealCore(b, func(h *workload.Harness, procs int) workload.Result {
		cfg := workload.DefaultLarson(procs)
		cfg.Rounds, cfg.OpsPerRound, cfg.SlotsPerWindow = 3, 3000, 500
		return workload.Larson(h, cfg)
	})
}

// BenchmarkThreadtestReal runs threadtest (each goroutine mallocs and frees
// its own 8-byte objects, nothing shared: the paper's scalability case) the
// same way as BenchmarkLarsonReal. Both arms keep the harness's own books of
// requested bytes (Harness.OnAlloc), shared by every goroutine, so its
// P=2/P=1 ratio is this harness's ceiling, not the allocator's.
func BenchmarkThreadtestReal(b *testing.B) {
	benchRealCore(b, func(h *workload.Harness, procs int) workload.Result {
		return workload.Threadtest(h, workload.DefaultThreadtest(procs))
	})
}

// benchRealCore runs a workload on P real goroutines over the bare Hoard
// core, on the simulated space and on the arena, for P = 1..NumCPU, and
// reports wall-clock ops/ms. The allocator code above the vm layer is the
// same on both backends, so the gap between them is the cost of real
// memory. Each iteration is one run on a fresh core, checked with
// CheckIntegrity afterwards. The arena arms are skipped where the arena is
// unavailable.
func benchRealCore(b *testing.B, run func(h *workload.Harness, procs int) workload.Result) {
	for _, backend := range []string{"sim", "arena"} {
		for procs := 1; procs <= runtime.NumCPU(); procs++ {
			b.Run(fmt.Sprintf("%s/P=%d", backend, procs), func(b *testing.B) {
				var ops, ns int64
				for i := 0; i < b.N; i++ {
					var hh *core.Hoard
					h := workload.NewRealMaker("hoard", procs, func(p int, lf env.LockFactory) alloc.Allocator {
						hh = core.New(core.Config{Heaps: 2 * p, Backend: backend}, lf)
						return hh
					})
					if hh.Backend() != backend {
						b.Skipf("backend %s unavailable: %s", backend, hh.BackendFallbackReason())
					}
					res := run(h, procs)
					err := hh.CheckIntegrity()
					hh.Space().Close()
					if err != nil {
						b.Fatal(err)
					}
					ops += res.Ops
					ns += res.ElapsedNS
				}
				b.ReportMetric(float64(ops)/(float64(ns)/1e6), "ops/ms")
			})
		}
	}
}

// BenchmarkTCacheBatchLocks measures heap lock acquisitions per malloc/free
// pair through Hoard's magazines when every iteration forces transfers.
// With magazine capacity 32 a half-magazine transfer is 16 blocks under one
// lock, so locks/op stays far below one lock per block (about 0.09).
func BenchmarkTCacheBatchLocks(b *testing.B) {
	const capacity = 32
	b.Run("batch", func(b *testing.B) {
		reg := metrics.NewRegistry()
		a := core.New(core.Config{Heaps: 2, Magazines: capacity}, reg.WrapFactory(env.RealLockFactory{}))
		th := a.NewThread(&env.RealEnv{})
		ptrs := make([]alloc.Ptr, 2*capacity)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A burst of 2*capacity defeats the magazine, so every
			// iteration forces refills and flushes.
			for j := range ptrs {
				ptrs[j] = a.Malloc(th, 64)
			}
			for j := range ptrs {
				a.Free(th, ptrs[j])
			}
		}
		b.StopTimer()
		ops := float64(b.N) * float64(len(ptrs))
		b.ReportMetric(float64(reg.TotalLockStats().Acquires)/ops, "locks/op")
		st := a.Stats()
		b.ReportMetric(float64(st.BatchedBlocks)/ops, "batched/op")
	})
}

// BenchmarkProducerConsumerContended is the contended cross-thread-free
// pattern instrumented for lock traffic: one goroutine allocates, N others
// free, and every heap-lock acquisition inside the bare Hoard core is
// counted: each malloc and each remote free takes one heap lock (locks/op
// is about 2), the figure the magazines' batched transfers amortize.
func BenchmarkProducerConsumerContended(b *testing.B) {
	for _, consumers := range []int{1, 4} {
		b.Run(fmt.Sprintf("consumers=%d", consumers), func(b *testing.B) {
			reg := metrics.NewRegistry()
			h := core.New(core.Config{Heaps: 8}, reg.WrapFactory(env.RealLockFactory{}))
			ch := make(chan alloc.Ptr, 4096)
			var wg sync.WaitGroup
			for c := 0; c < consumers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					th := h.NewThread(&env.RealEnv{ID: 1 + c})
					for p := range ch {
						h.Free(th, p)
					}
				}(c)
			}
			th := h.NewThread(&env.RealEnv{ID: 0})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch <- h.Malloc(th, 64)
			}
			close(ch)
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(reg.TotalLockStats().Acquires)/float64(b.N), "locks/op")
		})
	}
}
