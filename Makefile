GO ?= go

.PHONY: check build test race vet bench metrics-smoke footprint-smoke arena-smoke load-smoke perfbench-smoke

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

# perfbench-smoke runs the benchmark module's own tests (perfbench/ is a
# separate Go module, so ./... at the root does not reach it): every
# workload at quick scale, untraced and traced, with each metric
# BENCHMARK.json names checked present, finite, and in its unit.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
