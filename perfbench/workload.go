package main

import (
	"fmt"
	"math"
	"math/rand"
)

// op is one step of a single-goroutine op stream: size > 0 mallocs size
// bytes into slot, size == 0 frees the block the slot holds.
type op struct {
	slot int32
	size int32
}

// scale fixes every workload's length in operations or cycles. A run repeats
// whole workloads until its time is up; one workload never depends on the
// clock, so its footprint does not depend on how fast the host is.
type scale struct {
	churnSlots        int // live slots in churn-small
	churnWarm         int // untimed replacements after the slots are filled
	churnReplacements int // timed replacements (2 ops each)

	phaseSmall  int // blocks grown by a small-object phase
	phaseLarge  int // blocks grown by a large-object phase
	phaseCycles int // timed cycles; one untimed cycle warms up first

	handoffWarm   int // blocks handed off before timing starts
	handoffBlocks int // timed blocks (a malloc and a free each)
}

// fullScale is the scale the benchmark runs at; quickScale keeps the smoke
// test short.
var (
	fullScale = scale{
		churnSlots: 1024, churnWarm: 1 << 16, churnReplacements: 1 << 20,
		phaseSmall: 1 << 16, phaseLarge: 1 << 12, phaseCycles: 10,
		handoffWarm: 1 << 14, handoffBlocks: 1 << 18,
	}
	quickScale = scale{
		churnSlots: 1024, churnWarm: 1 << 12, churnReplacements: 1 << 15,
		phaseSmall: 1 << 13, phaseLarge: 1 << 9, phaseCycles: 2,
		handoffWarm: 1 << 12, handoffBlocks: 1 << 15,
	}
)

// Handoff moves blocks in batches of handoffBatch; handoffBatches batch
// buffers exist, so at most handoffBatch*handoffBatches blocks are in flight.
const (
	handoffBatch   = 64
	handoffBatches = 64
)

// batchOps is the number of consecutive ops timed as one batch: long
// enough (about 0.1 ms) that its two clock reads cost under 0.1%, short
// enough that a run yields over 10^5 batches and that a host preemption of a
// few milliseconds spoils few of them.
const batchOps = 512

// stream is one workload's generated input. Single-goroutine workloads
// replay ops: ops[:warmEnd] is warm-up, ops[warmEnd:timedEnd] is timed, and
// the rest drains every live slot. handoff uses sizes instead: the producer
// mallocs sizes[i] for block i; the first warmEnd blocks are untimed.
type stream struct {
	ops     []op
	sizes   []int32
	slots   int
	warmEnd int
	timed   int // end of the timed part (ops index, or block index)
}

// workloads lists the benchmark's workloads in a fixed order.
var workloads = []string{"churn-small", "handoff", "phase-shift"}

// generate fills s with the named workload's stream for seed, reusing s's
// buffers so repeated set-ups create no garbage.
func generate(name string, seed int64, sc scale, s *stream) error {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "churn-small":
		genChurn(rng, sc, s)
	case "phase-shift":
		genPhase(rng, sc, s)
	case "handoff":
		genHandoff(rng, sc, s)
	default:
		return fmt.Errorf("unknown workload %q (have %v)", name, workloads)
	}
	return nil
}

// logUniform draws a size in [lo, hi) whose logarithm is uniform, so every
// size class between lo and hi sees a similar share of requests.
func logUniform(rng *rand.Rand, lo, hi float64) int32 {
	return int32(lo * math.Exp(rng.Float64()*math.Log(hi/lo)))
}

// genChurn: churnSlots live blocks of 16..2048 B (about 0.4 MiB), each op
// pair replacing a random slot's block.
func genChurn(rng *rand.Rand, sc scale, s *stream) {
	ops := s.ops[:0]
	for i := 0; i < sc.churnSlots; i++ {
		ops = append(ops, op{int32(i), logUniform(rng, 16, 2048)})
	}
	replace := func(n int) {
		for i := 0; i < n; i++ {
			slot := int32(rng.Intn(sc.churnSlots))
			ops = append(ops, op{slot, 0}, op{slot, logUniform(rng, 16, 2048)})
		}
	}
	replace(sc.churnWarm)
	s.warmEnd = len(ops)
	replace(sc.churnReplacements)
	s.timed = len(ops)
	for i := 0; i < sc.churnSlots; i++ {
		ops = append(ops, op{int32(i), 0})
	}
	s.ops, s.slots = ops, sc.churnSlots
}

// genPhase: each cycle grows phaseSmall blocks of 16..64 B, frees a random
// 15/16 of everything live, grows phaseLarge blocks of 256..3072 B, and
// frees a random 15/16 again.
func genPhase(rng *rand.Rand, sc scale, s *stream) {
	ops := s.ops[:0]
	var live, free []int32
	slots := 0
	grow := func(n int, lo, hi int32) {
		for i := 0; i < n; i++ {
			var slot int32
			if k := len(free); k > 0 {
				slot, free = free[k-1], free[:k-1]
			} else {
				slot = int32(slots)
				slots++
			}
			ops = append(ops, op{slot, lo + rng.Int31n(hi-lo+1)})
			live = append(live, slot)
		}
	}
	thin := func() {
		keep := live[:0]
		for _, slot := range live {
			if rng.Intn(16) == 0 {
				keep = append(keep, slot)
				continue
			}
			ops = append(ops, op{slot, 0})
			free = append(free, slot)
		}
		live = keep
	}
	cycle := func() {
		grow(sc.phaseSmall, 16, 64)
		thin()
		grow(sc.phaseLarge, 256, 3072)
		thin()
	}
	cycle()
	s.warmEnd = len(ops)
	for c := 0; c < sc.phaseCycles; c++ {
		cycle()
	}
	s.timed = len(ops)
	for _, slot := range live {
		ops = append(ops, op{slot, 0})
	}
	s.ops, s.slots = ops, slots
}

// genHandoff: one size of 16..2048 B per handed-off block.
func genHandoff(rng *rand.Rand, sc scale, s *stream) {
	sizes := s.sizes[:0]
	for i := 0; i < sc.handoffWarm+sc.handoffBlocks; i++ {
		sizes = append(sizes, logUniform(rng, 16, 2048))
	}
	s.sizes, s.warmEnd, s.timed = sizes, sc.handoffWarm, len(sizes)
}
