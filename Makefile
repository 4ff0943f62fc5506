GO ?= go

.PHONY: check fmt build test race race-arena race-bench vet perfbench-vet bench perfbench-smoke

# check is the tier-1 gate: formatting, vet (of the benchmark module too),
# build, the full suite under the race detector, the allocator protocol
# suites under it again on the arena backend, and the public-API
# microbenchmarks under it too.
check: fmt vet perfbench-vet build race race-arena race-bench

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

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-arena reruns the root package and the allocator protocol suites under
# the race detector with the real-memory arena as the default backend
# (HOARDGO_BACKEND flips the zero-config default; on a platform without the
# arena the allocators fall back to sim and the suites still run).
race-arena:
	HOARDGO_BACKEND=arena $(GO) test -race . ./internal/vm/ ./internal/superblock/ ./internal/heap/ ./internal/core/ ./internal/tcache/ ./internal/lockedheap/

# race-bench runs the malloc/free microbenchmarks under the race detector for
# 200 iterations each. The race suite runs no benchmarks, and
# BenchmarkMallocFreeParallel is where several goroutines take the magazine
# hit path at once.
race-bench:
	$(GO) test -race -run '^$$' -bench 'MallocFree' -benchtime 200x .

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
