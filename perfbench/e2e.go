package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	hoard "hoardgo"
	"hoardgo/internal/metrics"
)

// benchConfig is the allocator under test, fixed in code so no environment
// variable (HOARDGO_BACKEND in particular) changes what is measured: the
// real-memory arena backend, every other field at its default, and no
// scavenger or controller. The traced run's lock replay alone sets Metrics.
func benchConfig(lockMetrics bool) hoard.Config {
	return hoard.Config{Backend: "arena", Metrics: lockMetrics}
}

// block is a live block as the driver sees it: the requested bytes, stamped
// with tag at both ends, and the usable size UsableSize reported.
type block struct {
	p      hoard.Ptr
	buf    []byte
	tag    uint64
	usable int64
}

func (b *block) stamp() {
	binary.LittleEndian.PutUint64(b.buf, b.tag)
	binary.LittleEndian.PutUint64(b.buf[len(b.buf)-8:], ^b.tag)
}

func (b *block) intact() bool {
	return binary.LittleEndian.Uint64(b.buf) == b.tag &&
		binary.LittleEndian.Uint64(b.buf[len(b.buf)-8:]) == ^b.tag
}

// tagOf gives op i a distinct non-zero stamp.
func tagOf(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }

// spanEvery samples one public call in spanEvery for a span, so the clock
// reads cost well under a nanosecond per op on average.
const spanEvery = 64

// spanLog holds sampled spans (durations in ns) of one goroutine's public
// Malloc and Free calls, in memory until the run ends.
type spanLog struct {
	malloc, free []float64
}

// client is one goroutine's view of the allocator: its Thread, the live
// usable bytes it tracks itself from UsableSize (Stats.PeakLiveBytes
// overstates the peak; see README.md), and its op and failure counts.
type client struct {
	th        *hoard.Thread
	live      int64
	peak      int64
	attempted int64
	failed    int64
	spans     *spanLog
}

func (c *client) malloc(size int, tag uint64) block {
	c.attempted++
	var p hoard.Ptr
	if c.spans != nil && c.attempted%spanEvery == 0 {
		t0 := time.Now()
		p = c.th.Malloc(size)
		c.spans.malloc = append(c.spans.malloc, float64(time.Since(t0).Nanoseconds()))
	} else {
		p = c.th.Malloc(size)
	}
	if p.IsNil() {
		c.failed++
		return block{}
	}
	u := int64(c.th.UsableSize(p))
	if u < int64(size) {
		c.failed++
	}
	b := block{p: p, buf: c.th.Bytes(p, size), tag: tag, usable: u}
	b.stamp()
	c.live += u
	if c.live > c.peak {
		c.peak = c.live
	}
	return b
}

func (c *client) free(b *block) {
	c.attempted++
	if b.p.IsNil() {
		return // its malloc already counted the failure
	}
	if !b.intact() {
		c.failed++
	}
	if c.spans != nil && c.attempted%spanEvery == 0 {
		t0 := time.Now()
		c.th.Free(b.p)
		c.spans.free = append(c.spans.free, float64(time.Since(t0).Nanoseconds()))
	} else {
		c.th.Free(b.p)
	}
	c.live -= b.usable
	*b = block{}
}

// repResult is one workload repetition on a fresh allocator.
type repResult struct {
	setup     time.Duration // construction, stream generation, warm-up
	timed     time.Duration // the timed loop
	ops       int64         // mallocs plus frees in the timed loop
	peakLive  int64         // driver-tracked peak live usable bytes
	peakFoot  int64         // Stats.PeakFootprintBytes
	delta     hoard.Stats   // Stats change over the timed loop
	batches   []float64     // wall time of each timed batch of batchOps ops, µs
	release   time.Duration // the final ReleaseMemory
	released  int64         // bytes it returned
	retained  int64         // FootprintBytes after it
	attempted int64
	failed    int64
	locks     []metrics.LockStats // with Config.Metrics only
	totalOps  int64               // Mallocs+Frees over the whole repetition
}

// footprintRatio is the repetition's blowup: peak footprint over peak live.
func (rr repResult) footprintRatio() float64 { return float64(rr.peakFoot) / float64(rr.peakLive) }

// runner repeats one workload for one seed. Its buffers are reused by every
// repetition, so set-up creates no garbage after the first.
type runner struct {
	name  string
	seed  int64
	sc    scale
	s     stream
	slots []block
	bufs  [][]block // handoff batch buffers
	spans []*spanLog
}

func newRunner(name string, seed int64, sc scale) *runner {
	r := &runner{name: name, seed: seed, sc: sc}
	for i := 0; i < handoffBatches; i++ {
		r.bufs = append(r.bufs, make([]block, 0, handoffBatch))
	}
	return r
}

// streamSeed is the seed of stream k of the run's seed. Every timed
// repetition replays stream 0, so each batch position does the same work in
// every repetition; the footprint repetitions draw streams 0 to
// footprintStreams-1, because one stream's footprint ratio on churn-small
// moves by about ±7% with the stream.
func (r *runner) streamSeed(k int) int64 {
	return int64(uint64(r.seed)*0x9E3779B97F4A7C15 + uint64(k))
}

// repMode selects how a repetition runs.
type repMode struct {
	traced     bool // sample spans around the public calls
	sequential bool // handoff only: producer and consumer share one goroutine
	stream     int  // which stream of the seed to replay
}

// rep runs the workload once on a fresh allocator built from cfg. A
// verification failure is counted in the result; a leak, an integrity
// error, or a backend fallback is returned as an error.
func (r *runner) rep(cfg hoard.Config, mode repMode) (res repResult, err error) {
	// Each goroutine of the workload keeps its OS thread. Otherwise the Go
	// scheduler may run handoff's producer and consumer by turns on one
	// thread for a whole run, halving its throughput in some runs only.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := time.Now()
	a, err := hoard.New(cfg)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := a.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()
	if err := generate(r.name, r.streamSeed(mode.stream), r.sc, &r.s); err != nil {
		return res, err
	}
	if a.Backend() != "arena" || a.Stats().BackendFallbacks != 0 {
		return res, fmt.Errorf("allocator fell back to %q: %s", a.Backend(), a.BackendFallbackReason())
	}
	newClient := func() *client {
		c := &client{th: a.NewThread()}
		if mode.traced {
			c.spans = &spanLog{}
			r.spans = append(r.spans, c.spans)
		}
		return c
	}
	var clients []*client
	if r.name == "handoff" {
		prod, cons := newClient(), newClient()
		clients = []*client{prod, cons}
		move := r.handoff
		if mode.sequential {
			move = r.handoffSequential
		}
		_, warmPeak := move(prod, cons, 0, r.s.warmEnd, nil)
		res.setup = time.Since(t0)
		st0 := a.Stats()
		var peak int64
		res.timed, peak = move(prod, cons, r.s.warmEnd, r.s.timed, &res.batches)
		res.delta = statsDelta(a.Stats(), st0)
		res.peakLive = max(warmPeak, peak)
	} else {
		c := newClient()
		clients = []*client{c}
		if cap(r.slots) < r.s.slots {
			r.slots = make([]block, r.s.slots)
		}
		r.slots = r.slots[:r.s.slots]
		r.replay(c, 0, r.s.warmEnd, nil)
		res.setup = time.Since(t0)
		st0 := a.Stats()
		t1 := time.Now()
		r.replay(c, r.s.warmEnd, r.s.timed, &res.batches)
		res.timed = time.Since(t1)
		st1 := a.Stats()
		res.delta = statsDelta(st1, st0)
		if st1.LiveBytes != c.live {
			return res, fmt.Errorf("driver live bytes %d != Stats.LiveBytes %d at quiescence", c.live, st1.LiveBytes)
		}
		r.replay(c, r.s.timed, len(r.s.ops), nil)
		res.peakLive = c.peak
	}
	res.ops = res.delta.Mallocs + res.delta.Frees
	var live int64
	for _, c := range clients {
		live += c.live
		res.attempted += c.attempted
		res.failed += c.failed
		c.th.Close()
	}
	st := a.Stats()
	if live != 0 || st.LiveBytes != 0 {
		return res, fmt.Errorf("leak after drain: driver live %d B, Stats.LiveBytes %d B", live, st.LiveBytes)
	}
	if err := a.CheckIntegrity(); err != nil {
		return res, fmt.Errorf("integrity after drain: %w", err)
	}
	t2 := time.Now()
	res.released = a.ReleaseMemory()
	res.release = time.Since(t2)
	st = a.Stats()
	res.retained = st.FootprintBytes
	res.peakFoot = st.PeakFootprintBytes
	res.totalOps = st.Mallocs + st.Frees
	if cfg.Metrics {
		res.locks = a.LockStats()
	}
	return res, nil
}

// batchClock appends to lat, when it is set, the wall time of every
// batchOps ops counted by tick.
type batchClock struct {
	lat  *[]float64
	last time.Time
	n    int
}

func newBatchClock(lat *[]float64) batchClock { return batchClock{lat: lat, last: time.Now()} }

func (c *batchClock) tick(ops int) {
	if c.n += ops; c.n >= batchOps && c.lat != nil {
		c.record()
	}
}

func (c *batchClock) record() {
	now := time.Now()
	*c.lat = append(*c.lat, float64(now.Sub(c.last).Nanoseconds())/1e3)
	c.last, c.n = now, c.n-batchOps
}

// replay runs ops[lo:hi] through c, timing batches into lat when it is set.
func (r *runner) replay(c *client, lo, hi int, lat *[]float64) {
	ops, slots := r.s.ops, r.slots
	clock := newBatchClock(lat)
	for i := lo; i < hi; i++ {
		o := ops[i]
		if o.size > 0 {
			slots[o.slot] = c.malloc(int(o.size), tagOf(i))
		} else {
			c.free(&slots[o.slot])
		}
		clock.tick(1)
	}
}

// handoff moves blocks sizes[lo:hi] from a producer goroutine, which mallocs
// and stamps them, to a consumer goroutine, which verifies and frees them,
// in batches of handoffBatch over channels. With lat set, the producer
// appends to it the wall time of every batchOps/2 blocks it hands off, a
// malloc and a free each: the pipeline's pace once the consumer keeps up,
// or once the queue is full. Only consumer stalls longer than the 64-batch
// queue reach the producer's clock, where the consumer's own clock would
// see every producer stall. It returns the wall time until the consumer has freed the last block, and
// the peak live usable bytes seen at batch boundaries (exact to within one
// batch).
func (r *runner) handoff(prod, cons *client, lo, hi int, lat *[]float64) (time.Duration, int64) {
	// Both channels can hold every batch buffer, so no send ever blocks;
	// the buffer count alone bounds the blocks in flight.
	pool := make(chan []block, handoffBatches)
	full := make(chan []block, handoffBatches)
	for _, b := range r.bufs {
		pool <- b
	}
	var freed atomic.Int64 // usable bytes the consumer has freed this session
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread() // see rep
		defer runtime.UnlockOSThread()
		base := cons.live
		for b := range full {
			for i := range b {
				cons.free(&b[i])
			}
			freed.Store(base - cons.live)
			pool <- b
		}
	}()
	sizes := r.s.sizes
	base := prod.live
	var peak int64
	clock := newBatchClock(lat)
	for off := lo; off < hi; off += handoffBatch {
		b := (<-pool)[:0]
		for i := off; i < min(off+handoffBatch, hi); i++ {
			b = append(b, prod.malloc(int(sizes[i]), tagOf(i)))
		}
		if cur := prod.live - base - freed.Load(); cur > peak {
			peak = cur
		}
		full <- b
		clock.tick(2 * len(b))
	}
	close(full)
	wg.Wait()
	return time.Since(start), peak
}

// handoffSequential moves the same blocks as handoff, in the same batches,
// with the same bound on blocks in flight, but from one goroutine: each
// batch is malloc'd on the producer's Thread, and once handoffBatches
// batches are in flight the oldest is freed on the consumer's. Every free
// is still remote, and the interleaving no longer depends on the
// scheduler, so the footprint is the same on every run of a seed.
func (r *runner) handoffSequential(prod, cons *client, lo, hi int, lat *[]float64) (time.Duration, int64) {
	start := time.Now()
	clock := newBatchClock(lat)
	base := prod.live + cons.live
	var peak int64
	freeBatch := func(k int) {
		b := r.bufs[k%handoffBatches]
		for i := range b {
			cons.free(&b[i])
		}
		r.bufs[k%handoffBatches] = b[:0]
	}
	k := 0
	for off := lo; off < hi; off, k = off+handoffBatch, k+1 {
		if k >= handoffBatches {
			freeBatch(k)
		}
		b := r.bufs[k%handoffBatches][:0]
		for i := off; i < min(off+handoffBatch, hi); i++ {
			b = append(b, prod.malloc(int(r.s.sizes[i]), tagOf(i)))
			peak = max(peak, prod.live+cons.live-base)
		}
		r.bufs[k%handoffBatches] = b
		clock.tick(2 * len(b))
	}
	for j := max(0, k-handoffBatches); j < k; j++ {
		freeBatch(j)
	}
	return time.Since(start), peak
}

func statsDelta(b, a hoard.Stats) hoard.Stats {
	return hoard.Stats{
		Mallocs:         b.Mallocs - a.Mallocs,
		Frees:           b.Frees - a.Frees,
		SuperblockMoves: b.SuperblockMoves - a.SuperblockMoves,
		RemoteFrees:     b.RemoteFrees - a.RemoteFrees,
		LockFreeMallocs: b.LockFreeMallocs - a.LockFreeMallocs,
		LockFreeFrees:   b.LockFreeFrees - a.LockFreeFrees,
		FastPathRetries: b.FastPathRetries - a.FastPathRetries,
	}
}
