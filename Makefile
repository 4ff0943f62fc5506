GO ?= go

.PHONY: check build test race vet bench metrics-smoke footprint-smoke lockfree-smoke arena-smoke load-smoke tune-smoke perfbench-smoke

# check is the tier-1 gate: vet, build, and the full suite under the race
# detector.
check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Figure benchmarks are full deterministic simulations; run each once. The
# key batching benches (threadtest/larson figures, the contended
# producer-consumer probe, and the tcache batch-locks comparison) run here,
# then the committed artifact is regenerated.
bench:
	$(GO) test -benchtime=1x \
		-bench='FigThreadtest|FigLarson|ProducerConsumerContended|TCacheBatchLocks' .
	$(GO) run ./cmd/hoardbench -artifact BENCH_PR3.json

# metrics-smoke exercises the observability layer end to end: the
# instrumented churn run writes a timeline artifact (occupancy samples, lock
# counters, audit record, embedded Prometheus scrape), and the exposition
# format tests lint the scrape. Any audit failure fails the run.
metrics-smoke:
	$(GO) run ./cmd/hoardbench -metrics /tmp/hoardgo-metrics-timeline.json
	$(GO) test -run 'TestCollectMetricsTimeline' ./internal/experiments/
	$(GO) test -run 'TestWriteMetrics|TestLint' . ./internal/metrics/

# footprint-smoke exercises the page-level reclamation subsystem end to end:
# the scavenger footprint grid (workloads x release modes) regenerates its
# artifact with the steady-state ratios and the batch-lock throughput guard,
# and the decommit/scavenge tests run across every layer.
footprint-smoke:
	$(GO) run ./cmd/hoardbench -footprint /tmp/hoardgo-footprint.json
	$(GO) test -run 'TestFootprint' ./internal/experiments/
	$(GO) test -race -run 'TestReleaseMemory|TestBackgroundScavenger|TestScavengerUnderProdConsChurn' .
	$(GO) test -run 'TestDecommit|TestScavenge' ./internal/vm/ ./internal/superblock/ ./internal/heap/ ./internal/core/

# lockfree-smoke exercises the zero-lock steady state end to end: a short A11
# run regenerates the artifact and enforces the smoke thresholds (fast arm
# under 0.25 heap-lock acquisitions per op and at least 4x fewer than the
# locked arm, on both workloads at P=8), then the lock-free protocol tests run
# under the race detector across every layer.
lockfree-smoke:
	$(GO) run ./cmd/hoardbench -lockfree /tmp/hoardgo-lockfree.json
	$(GO) test -run 'TestLockFree|TestMeasureLockFree' ./internal/experiments/
	$(GO) test -race -run 'TestLockFree|TestUnifiedFastFree|TestGlobalHeapFastFree|TestFastPaths|TestPropertyFullness|TestWarmRing|TestReuseEmpty|TestArmRing' \
		./internal/core/ ./internal/superblock/ ./internal/heap/

# arena-smoke exercises the real-memory arena backend end to end (Linux
# amd64/arm64): the A12 run regenerates its artifact and enforces the smoke
# thresholds (address-arithmetic resolution at least 2x faster than the page
# table, forced release ending below 0.8x of its RSS peak — real
# /proc/self/statm numbers, not simulated accounting); then the full
# allocator protocol suite runs on the arena under the race detector via the
# HOARDGO_BACKEND override, plus the backend fallback and arena-specific
# tests.
arena-smoke:
	$(GO) run ./cmd/hoardbench -arena /tmp/hoardgo-arena.json
	HOARDGO_BACKEND=arena $(GO) test -race ./internal/vm/ ./internal/superblock/ ./internal/heap/ ./internal/core/
	$(GO) test -race -run 'TestArena|TestBackend|TestPublicBackend|TestPublicClose|TestMeasureResolve|TestMeasureArena' \
		. ./internal/vm/ ./internal/core/ ./internal/experiments/

# load-smoke exercises the traffic-shaped serving benchmark end to end: a
# deterministic-seed hoardload run on both backends enforces the tail-latency
# SLOs (malloc/request p999), the drained-footprint threshold, and the sweep
# sanity gates, writing its artifact; then the load engine, webserver
# lifecycle, and wall-clock pacing tests run under the race detector.
load-smoke:
	$(GO) run ./cmd/hoardload -smoke -artifact /tmp/hoardgo-load.json
	$(GO) test -race ./internal/loadgen/
	$(GO) test -race -run 'TestWebserverLifecycle|TestThreadClose' .
	$(GO) test -race -run 'TestPacerWallClock|TestScavengerWallClock' ./internal/scavenge/

# tune-smoke exercises the closed-loop controller end to end: the A14 ablation
# (controller off vs on vs oracle-static, over the workload set and the
# serving phase schedule) regenerates its artifact with the convergence
# thresholds enforced — starting from deliberately bad knobs, the tuned arm
# must reach the oracle's steady-state transfer rate and hold the serving
# SLOs; then hoardload's tuned arm runs against the PR9 smoke gate, and the
# controller rule/integration tests run under the race detector.
tune-smoke:
	$(GO) run ./cmd/hoardbench -tune /tmp/hoardgo-tune.json
	$(GO) run ./cmd/hoardload -tune -smoke
	$(GO) test -race ./internal/control/
	$(GO) test -race -run 'TestTuneSmoke' ./internal/experiments/
	$(GO) test -race -run 'TestController|TestControl' .

# perfbench-smoke runs the benchmark module's own tests (perfbench/ is a
# separate Go module, so ./... at the root does not reach it): every
# workload at quick scale, untraced and traced, with each metric
# BENCHMARK.json names checked present, finite, and in its unit.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
