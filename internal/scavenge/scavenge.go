// Package scavenge is the release-policy engine behind Hoard's background
// scavenger (modeled on the Go runtime's): it decides WHEN empty superblocks
// parked on the global heap should have their pages returned to the OS and
// HOW FAST, while internal/core owns the mechanism (decommit in place,
// transparent recommit on reuse — see core/scavenge.go).
//
// Three policy pieces compose:
//
//   - Hysteresis thresholds on the global heap's empty committed bytes: the
//     scavenger engages above the high watermark and disengages at the low
//     one, so a workload oscillating around a single threshold does not make
//     it thrash (decommit and recommit both cost an OS call).
//   - A token bucket limits the release rate, like the Go background
//     scavenger's pacing: a sudden free burst is returned over several
//     paced passes rather than one long critical section on the global lock.
//   - A cold age filters victims: only superblocks parked at least ColdAge
//     ago are eligible, since a just-parked superblock is the one most
//     likely to be pulled right back by TakeSuper. Victim order (oldest
//     first) is the mechanism's job.
//
// The Pacer is the deterministic core — pure state machine, virtual-time
// friendly, used directly by the simulator experiments. Scavenger wraps a
// Pacer in a background goroutine for real-mode allocators, with TryLock
// backoff so it never queues behind allocation traffic.
package scavenge

import (
	"fmt"
	"time"
)

// Config parameterizes the release policy. The zero value selects defaults
// sized for the 8 KiB superblocks the paper uses.
type Config struct {
	// HighWaterBytes engages the scavenger when the global heap's empty
	// committed bytes exceed it. Default 32 superblocks (256 KiB).
	HighWaterBytes int64
	// LowWaterBytes disengages the scavenger once empty committed bytes
	// are at or below it; releases stop there, not at zero, so a small
	// warm reserve survives for the next malloc burst. Default half the
	// high watermark.
	LowWaterBytes int64
	// ColdAge is the minimum time a superblock must sit parked before it
	// is eligible. Default 100ms.
	ColdAge time.Duration
	// Interval is the background scavenger's poll period. Default 25ms.
	Interval time.Duration
	// BytesPerSec refills the token bucket: the sustained release rate.
	// Default 64 MiB/s.
	BytesPerSec int64
	// BurstBytes caps the token bucket: the largest single-pass release.
	// Default 32 superblocks (256 KiB).
	BurstBytes int64
	// MaxBackoff caps the exponential backoff applied when the global
	// heap is contended. Default 1s.
	MaxBackoff time.Duration
}

// WithDefaults fills zero fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.HighWaterBytes == 0 {
		c.HighWaterBytes = 32 * 8192
	}
	if c.LowWaterBytes == 0 {
		c.LowWaterBytes = c.HighWaterBytes / 2
	}
	if c.ColdAge == 0 {
		c.ColdAge = 100 * time.Millisecond
	}
	if c.Interval == 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.BytesPerSec == 0 {
		c.BytesPerSec = 64 << 20
	}
	if c.BurstBytes == 0 {
		c.BurstBytes = 32 * 8192
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = time.Second
	}
	return c
}

// Validate rejects configurations the policy cannot run.
func (c Config) Validate() error {
	c = c.WithDefaults()
	if c.HighWaterBytes < 0 || c.LowWaterBytes < 0 {
		return fmt.Errorf("scavenge: negative watermark (high %d, low %d)", c.HighWaterBytes, c.LowWaterBytes)
	}
	if c.LowWaterBytes > c.HighWaterBytes {
		return fmt.Errorf("scavenge: low watermark %d above high %d", c.LowWaterBytes, c.HighWaterBytes)
	}
	if c.BytesPerSec < 0 || c.BurstBytes <= 0 {
		return fmt.Errorf("scavenge: bad rate (%d B/s, burst %d)", c.BytesPerSec, c.BurstBytes)
	}
	if c.ColdAge < 0 || c.Interval <= 0 || c.MaxBackoff <= 0 {
		return fmt.Errorf("scavenge: bad timing (cold age %v, interval %v, max backoff %v)", c.ColdAge, c.Interval, c.MaxBackoff)
	}
	return nil
}

// Pacer is the deterministic policy state machine: hysteresis plus token
// bucket. It is driven by explicit clock readings, so the simulator
// experiments can run it in virtual time; it is NOT safe for concurrent use
// (the Scavenger goroutine owns its Pacer, experiments own theirs).
type Pacer struct {
	cfg     Config
	engaged bool
	tokens  int64
	lastNS  int64
	started bool
	// refillRem carries the refill remainder between polls, in
	// byte-nanosecond units (elapsed ns x BytesPerSec, modulo 1e9). A
	// wall-clock driver polling faster than one byte's worth of refill
	// time would otherwise lose every refill to truncation.
	refillRem int64
}

// NewPacer returns a Pacer over the (default-filled) config. It panics on an
// invalid config, like core.New.
func NewPacer(cfg Config) *Pacer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Pacer{cfg: cfg.WithDefaults()}
}

// Config returns the default-filled configuration the pacer runs.
func (p *Pacer) Config() Config { return p.cfg }

// Grant decides how many bytes a scavenge pass may release right now, given
// the global heap's empty committed bytes and the current clock. It refills
// the token bucket for the elapsed time, applies the hysteresis gate, and
// returns min(tokens, emptyBytes - LowWaterBytes) — zero when disengaged or
// out of tokens. The caller reports what it actually released via Spend.
func (p *Pacer) Grant(emptyBytes, nowNS int64) int64 {
	if !p.started {
		p.started = true
		p.lastNS = nowNS
		p.tokens = p.cfg.BurstBytes
	}
	if dt := nowNS - p.lastNS; dt > 0 {
		p.lastNS = nowNS
		// Refill in integer math, carrying the sub-byte remainder across
		// polls. The obvious float form — tokens += dt/1e9 * rate — rounds
		// to zero whenever a poll arrives faster than one byte's refill
		// time, yet still advances the clock; a real-clock scavenger with
		// a short interval and a low configured rate then never refills
		// and the slow drain stalls with the bucket pinned at zero. The
		// simulator's virtual round clock takes steps big enough that the
		// truncation never showed.
		rate := p.cfg.BytesPerSec
		if f := float64(dt)*float64(rate) + float64(p.refillRem); f >= float64(p.cfg.BurstBytes)*1e9+1e9 || f >= 1<<62 {
			// The elapsed time alone fills the bucket (or the exact
			// product would overflow): jump straight to full.
			p.tokens = p.cfg.BurstBytes
			p.refillRem = 0
		} else {
			total := dt*rate + p.refillRem
			p.tokens += total / 1e9
			p.refillRem = total % 1e9
			if p.tokens > p.cfg.BurstBytes {
				p.tokens = p.cfg.BurstBytes
				p.refillRem = 0
			}
		}
	}
	if p.engaged {
		if emptyBytes <= p.cfg.LowWaterBytes {
			p.engaged = false
		}
	} else if emptyBytes > p.cfg.HighWaterBytes {
		p.engaged = true
	}
	if !p.engaged {
		return 0
	}
	grant := emptyBytes - p.cfg.LowWaterBytes
	if grant > p.tokens {
		grant = p.tokens
	}
	if grant < 0 {
		grant = 0
	}
	return grant
}

// Spend consumes tokens for bytes actually released by a pass.
func (p *Pacer) Spend(released int64) {
	p.tokens -= released
	if p.tokens < 0 {
		p.tokens = 0
	}
}

// Engaged reports whether the pacer is between its high and low watermarks
// on the releasing side of the hysteresis loop.
func (p *Pacer) Engaged() bool { return p.engaged }

// Tokens returns the current token-bucket level (for tests and metrics).
func (p *Pacer) Tokens() int64 { return p.tokens }
