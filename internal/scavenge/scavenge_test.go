package scavenge

import (
	"sync"
	"testing"
	"time"
)

const S = 8192 // superblock size the defaults are tuned for

func pacerCfg() Config {
	return Config{
		HighWaterBytes: 8 * S,
		LowWaterBytes:  4 * S,
		BytesPerSec:    1 << 20, // 1 MiB/s
		BurstBytes:     4 * S,
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.LowWaterBytes != c.HighWaterBytes/2 {
		t.Fatalf("default low watermark %d, want half of %d", c.LowWaterBytes, c.HighWaterBytes)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config invalid: %v", err)
	}
	bad := []Config{
		{HighWaterBytes: -1},
		{HighWaterBytes: 100, LowWaterBytes: 200},
		{BytesPerSec: -1},
		{BurstBytes: -1},
		{ColdAge: -time.Second},
		{Interval: -time.Second},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestPacerHysteresis(t *testing.T) {
	p := NewPacer(pacerCfg())
	now := int64(0)

	// Below the high watermark: disengaged, no grant.
	if g := p.Grant(8*S, now); g != 0 || p.Engaged() {
		t.Fatalf("grant %d engaged %v at the high watermark, want 0/false", g, p.Engaged())
	}
	// Crossing it engages and grants down toward the LOW watermark.
	if g := p.Grant(9*S, now); g <= 0 || !p.Engaged() {
		t.Fatalf("grant %d engaged %v above the high watermark", g, p.Engaged())
	}
	// While engaged, still granting between the watermarks (hysteresis).
	if g := p.Grant(6*S, now); g <= 0 || !p.Engaged() {
		t.Fatalf("grant %d engaged %v between watermarks while engaged", g, p.Engaged())
	}
	// At the low watermark it disengages and stops granting.
	if g := p.Grant(4*S, now); g != 0 || p.Engaged() {
		t.Fatalf("grant %d engaged %v at the low watermark", g, p.Engaged())
	}
	// Between the watermarks while disengaged: still nothing (the other
	// side of the hysteresis loop).
	if g := p.Grant(6*S, now); g != 0 || p.Engaged() {
		t.Fatalf("grant %d engaged %v between watermarks while disengaged", g, p.Engaged())
	}
}

func TestPacerGrantStopsAtLowWater(t *testing.T) {
	cfg := pacerCfg()
	cfg.BurstBytes = 100 * S // effectively unlimited for this test
	p := NewPacer(cfg)
	if g := p.Grant(10*S, 0); g != 6*S {
		t.Fatalf("grant %d, want down-to-low-watermark %d", g, 6*S)
	}
}

func TestPacerTokenBucket(t *testing.T) {
	p := NewPacer(pacerCfg()) // burst 4S, rate 1 MiB/s
	// First grant starts with a full burst; surplus far exceeds it.
	g := p.Grant(100*S, 0)
	if g != 4*S {
		t.Fatalf("first grant %d, want full burst %d", g, 4*S)
	}
	p.Spend(g)
	// No time elapsed: bucket empty.
	if g := p.Grant(100*S, 0); g != 0 {
		t.Fatalf("grant %d from empty bucket, want 0", g)
	}
	// 8192 bytes at 1 MiB/s take ~7.8ms; after 10ms one superblock fits.
	g = p.Grant(100*S, 10*int64(time.Millisecond))
	if g < S || g >= 2*S {
		t.Fatalf("grant after 10ms refill = %d, want about one superblock", g)
	}
	// A long idle stretch refills to the burst cap, no further.
	p.Spend(g)
	if g := p.Grant(100*S, 10*int64(time.Second)); g != 4*S {
		t.Fatalf("grant after long idle = %d, want burst cap %d", g, 4*S)
	}
}

// fakeTarget is a deterministic Target: a pool of parked bytes that refuses
// while contended.
type fakeTarget struct {
	mu        sync.Mutex
	empty     int64
	contended bool
	calls     int
}

func (f *fakeTarget) EmptyBytes() (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.contended {
		return 0, false
	}
	return f.empty, true
}

func (f *fakeTarget) Scavenge(maxBytes int64, coldAge time.Duration) (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.contended {
		return 0, false
	}
	// Whole superblocks only, like the real heap.
	n := maxBytes / S * S
	if n > f.empty {
		n = f.empty / S * S
	}
	f.empty -= n
	return n, true
}

func (f *fakeTarget) set(empty int64, contended bool) {
	f.mu.Lock()
	f.empty, f.contended = empty, contended
	f.mu.Unlock()
}

func (f *fakeTarget) get() (int64, bool, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.empty, f.contended, f.calls
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func scavCfg() Config {
	return Config{
		HighWaterBytes: 4 * S,
		LowWaterBytes:  2 * S,
		ColdAge:        time.Nanosecond,
		Interval:       time.Millisecond,
		BytesPerSec:    1 << 30,
		BurstBytes:     1 << 30,
		MaxBackoff:     50 * time.Millisecond,
	}
}

func TestScavengerDrainsToLowWater(t *testing.T) {
	f := &fakeTarget{empty: 20 * S}
	s := New(f, scavCfg())
	s.Start()
	defer s.Stop()
	waitFor(t, "drain to low watermark", func() bool {
		empty, _, _ := f.get()
		return empty == 2*S
	})
	st := s.Stats()
	if st.ReleasedBytes != 18*S {
		t.Fatalf("ReleasedBytes = %d, want %d", st.ReleasedBytes, 18*S)
	}
	if st.Passes == 0 || st.Wakeups == 0 {
		t.Fatalf("stats %+v", st)
	}
	// Below the watermarks nothing further is released.
	time.Sleep(20 * time.Millisecond)
	if empty, _, _ := f.get(); empty != 2*S {
		t.Fatalf("scavenger went below the low watermark: %d", empty)
	}
}

func TestScavengerBacksOffWhenContended(t *testing.T) {
	f := &fakeTarget{empty: 20 * S, contended: true}
	s := New(f, scavCfg())
	s.Start()
	defer s.Stop()
	waitFor(t, "backoffs to accumulate", func() bool {
		return s.Stats().Backoffs >= 3
	})
	if empty, _, _ := f.get(); empty != 20*S {
		t.Fatal("scavenger released bytes from a contended target")
	}
	// Contention clears; the scavenger recovers and drains.
	f.set(20*S, false)
	waitFor(t, "drain after contention clears", func() bool {
		empty, _, _ := f.get()
		return empty == 2*S
	})
}

func TestScavengerStartStopIdempotent(t *testing.T) {
	f := &fakeTarget{empty: 20 * S}
	s := New(f, scavCfg())
	s.Start()
	s.Start()
	if !s.Running() {
		t.Fatal("not running after Start")
	}
	s.Stop()
	s.Stop()
	if s.Running() {
		t.Fatal("running after Stop")
	}
	// Restart works.
	f.set(20*S, false)
	s.Start()
	waitFor(t, "drain after restart", func() bool {
		empty, _, _ := f.get()
		return empty == 2*S
	})
	s.Stop()
}

// TestPacerWallClockRefill is the wall-clock regression test for the token
// refill: a poll loop ticking every 100µs at a low configured rate. Each
// poll's exact refill is a fraction of a byte, which the old float
// truncation rounded to zero while still advancing the pacer's clock — so
// the bucket never refilled and a real-clock slow drain stalled forever.
// The remainder-carrying integer refill must accumulate the full rate.
func TestPacerWallClockRefill(t *testing.T) {
	p := NewPacer(Config{
		HighWaterBytes: S,
		LowWaterBytes:  S / 2,
		BytesPerSec:    8192, // one byte per 122µs: slower than the poll period
		BurstBytes:     1 << 20,
	})
	now := int64(0)
	p.Grant(100*S, now) // first poll: starts the clock with a full burst
	p.Spend(p.Tokens()) // drain it so only refill feeds the bucket
	const pollNS = 100_000
	for i := 0; i < 10_000; i++ { // exactly one second of 100µs polls
		now += pollNS
		p.Grant(100*S, now)
	}
	if got := p.Tokens(); got != 8192 {
		t.Fatalf("tokens after 1s of 100µs polls at 8192 B/s = %d, want exactly 8192 (sub-byte refills lost)", got)
	}
}

// TestPacerWallClockJitter: refill must be independent of poll cadence —
// irregular wall-clock steps summing to the same elapsed time yield the
// same tokens as one big step (no truncation loss, no double counting).
func TestPacerWallClockJitter(t *testing.T) {
	mk := func() *Pacer {
		p := NewPacer(Config{
			HighWaterBytes: S,
			LowWaterBytes:  S / 2,
			BytesPerSec:    333_333,
			BurstBytes:     1 << 30,
		})
		p.Grant(100*S, 0)
		p.Spend(p.Tokens())
		return p
	}
	steps := []int64{1, 999, 17, 100_000, 3, 50_000, 777_777, 1, 2_000_000, 123}
	var total int64
	jittery := mk()
	now := int64(0)
	for _, dt := range steps {
		now += dt
		total += dt
		jittery.Grant(100*S, now)
	}
	oneShot := mk()
	oneShot.Grant(100*S, total)
	if jittery.Tokens() != oneShot.Tokens() {
		t.Fatalf("jittery polls accrued %d tokens, one big step %d — refill depends on poll cadence", jittery.Tokens(), oneShot.Tokens())
	}
}

// TestPacerClockStepsBackward: a non-monotonic wall clock (NTP step) must
// not mint tokens or corrupt the remainder.
func TestPacerClockStepsBackward(t *testing.T) {
	p := NewPacer(pacerCfg())
	p.Grant(100*S, 1_000_000)
	p.Spend(p.Tokens())
	if g := p.Grant(100*S, 500_000); g != 0 {
		t.Fatalf("grant %d after clock stepped backward, want 0", g)
	}
	// Time resumes: refill counts only from the high-water mark of the
	// clock, not from the backward excursion.
	if g := p.Grant(100*S, 1_000_000+10*int64(time.Millisecond)); g <= 0 {
		t.Fatalf("grant %d after clock recovered, want > 0", g)
	}
}

// TestScavengerWallClockSlowDrain drives the real background goroutine with
// time.Now pacing through a slow drain: a parked pool must dribble out at
// the configured rate — neither stalling (the refill-truncation bug) nor
// dumping in one pass (the burst cap), and the poll loop must not spin
// (wakeups bounded by elapsed/Interval).
func TestScavengerWallClockSlowDrain(t *testing.T) {
	const pool = 64 * S // 512 KiB parked
	f := &fakeTarget{empty: pool}
	s := New(f, Config{
		HighWaterBytes: 2 * S,
		LowWaterBytes:  S,
		ColdAge:        time.Nanosecond,
		Interval:       time.Millisecond,
		BytesPerSec:    2 << 20, // ~250ms to drain the pool
		BurstBytes:     4 * S,   // at most 4 superblocks per pass
		MaxBackoff:     50 * time.Millisecond,
	})
	start := time.Now()
	s.Start()
	defer s.Stop()
	waitFor(t, "paced slow drain to the low watermark", func() bool {
		empty, _, _ := f.get()
		return empty <= S
	})
	elapsed := time.Since(start)
	s.Stop()
	st := s.Stats()
	if st.ReleasedBytes != pool-S {
		t.Fatalf("ReleasedBytes = %d, want %d", st.ReleasedBytes, pool-S)
	}
	// The token bucket admits BurstBytes up front, then BytesPerSec: the
	// drain cannot legally complete faster than (pool - burst - low)/rate
	// ≈ 226ms. Finishing well under that means pacing was bypassed.
	if minimum := 150 * time.Millisecond; elapsed < minimum {
		t.Fatalf("slow drain finished in %v, want >= %v (pacing bypassed)", elapsed, minimum)
	}
	// No zero-interval spin: the poll loop may wake at most once per
	// Interval plus scheduling slop; 100x elapsed/interval is a generous
	// ceiling that still catches a busy loop (which would log millions).
	maxWakeups := 100 * int64(elapsed/time.Millisecond+1)
	if st.Wakeups > maxWakeups {
		t.Fatalf("wakeups = %d over %v with a 1ms interval — poll loop is spinning", st.Wakeups, elapsed)
	}
}
