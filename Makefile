GO ?= go

.PHONY: check fmt build inline portable test race race-arena race-bench vet perfbench-vet bench perfbench-smoke

# check is the tier-1 gate: formatting, vet (of the benchmark module too),
# build, the hit path's inlining, the build on platforms without the arena,
# the full suite under the race detector, the allocator protocol suites under
# it again on the arena backend, and the public-API microbenchmarks under it
# too.
check: fmt vet perfbench-vet build inline portable race race-arena race-bench

# fmt fails when gofmt would reformat any file, and lists them.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# perfbench-vet vets the benchmark module (perfbench/ is a separate Go
# module, so ./... at the root does not reach it). It compiles against
# internal APIs such as core.Hoard.Stats and the superblock test shims, so a
# change to one of them fails here, not only in CI's perfbench-smoke job.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...

# inline fails, naming each function, when a step of the allocation hit path
# no longer compiles inline: the magazine's free-state flips (ClaimCached,
# MarkCached, and FreeCached, a flush's per-block push), a refill's
# per-block pop, the index check they share, the size-class lookup and the
# arena's span lookup. Each is a few loads, compares and stores; a call
# would cost about as much as the body (DESIGN.md §11).
INLINE := '(*Superblock).ClaimCached' '(*Superblock).MarkCached' '(*Superblock).FreeCached' \
	'(*Superblock).pop' '(*Superblock).blockIndex' '(*Table).ClassFor' '(*Slots).Lookup'

inline:
	@out="$$($(GO) build -gcflags=-m ./internal/superblock ./internal/sizeclass ./internal/vm 2>&1)" || { echo "$$out"; exit 1; }; \
	fail=0; for f in $(INLINE); do \
		echo "$$out" | awk -v f="$$f" '$$(NF-2) == "can" && $$NF == f { found = 1 } END { exit !found }' || \
			{ echo "not inlined: $$f"; fail=1; }; \
	done; exit $$fail

# portable vets and tests on a 32-bit target, which has no arena (so the
# simulated memory and the arena's fallback stub are all that build, and an
# int that overflows at 32 bits fails here), and builds for a non-Linux one.
portable:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test ./internal/vm/ ./internal/core/ ./internal/experiments/ .
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-arena reruns the root package and the allocator protocol suites under
# the race detector with the real-memory arena as the default backend
# (HOARDGO_BACKEND flips the zero-config default; on a platform without the
# arena the allocators fall back to sim and the suites still run), then the
# audited workload stress tests, which drive the bare core on that backend.
race-arena:
	HOARDGO_BACKEND=arena $(GO) test -race . ./internal/vm/ ./internal/superblock/ ./internal/heap/ ./internal/core/ ./internal/lockedheap/
	HOARDGO_BACKEND=arena $(GO) test -race -run 'Audit' ./internal/workload/

# race-bench runs the malloc/free microbenchmarks and the two lock-counting
# benchmarks under the race detector for 200 iterations each. The race suite
# runs no benchmarks. BenchmarkMallocFreeParallel is where several goroutines
# take the magazine hit path at once; BenchmarkTCacheBatchLocks and
# BenchmarkProducerConsumerContended count heap locks through a
# metrics.Registry, the latter with 4 consumer goroutines on its counters.
race-bench:
	$(GO) test -race -run '^$$' -bench 'MallocFree|TCacheBatchLocks|ProducerConsumerContended' -benchtime 200x .

# Figure benchmarks are full deterministic simulations; run each once. The
# key batching benches run here: the threadtest/larson figures, the contended
# producer-consumer probe, and the magazine batch-locks probe.
bench:
	$(GO) test -benchtime=1x \
		-bench='FigThreadtest|FigLarson|ProducerConsumerContended|TCacheBatchLocks' .

# perfbench-smoke runs the benchmark module's own tests (perfbench/ is a
# separate Go module, so ./... at the root does not reach it): every
# workload at quick scale, untraced and traced, with each metric
# BENCHMARK.json names checked present, finite, and in its unit.
perfbench-smoke:
	cd perfbench && $(GO) test ./...
