package hoard

import (
	"fmt"
	"time"

	"hoardgo/internal/env"
	"hoardgo/internal/scavenge"
)

// This file is the public face of the page-level reclamation subsystem
// (internal/scavenge policy + internal/core mechanism): a background
// scavenger that decommits empty superblocks parked on the global heap, and
// a forced-release entry point. See DESIGN.md §10.

// ScavengeConfig configures the background scavenger. The zero value is
// disabled; setting Enabled with all other fields zero runs the documented
// defaults (engage above 256 KiB of empty superblocks, release down to
// 128 KiB at up to 64 MiB/s, 100ms cold age).
type ScavengeConfig struct {
	// Enabled starts the background scavenger with New. (The scavenger can
	// also be started later with StartScavenger.)
	Enabled bool

	// HighWaterBytes engages the scavenger when empty committed bytes on
	// the global heap exceed it; LowWaterBytes disengages it. See
	// internal/scavenge for the full policy semantics and defaults.
	HighWaterBytes int64
	LowWaterBytes  int64

	// ColdAge is the minimum time a superblock sits parked before it is
	// eligible for decommit.
	ColdAge time.Duration

	// Interval is the background poll period.
	Interval time.Duration

	// BytesPerSec and BurstBytes pace releases with a token bucket.
	BytesPerSec int64
	BurstBytes  int64

	// MaxBackoff caps the exponential backoff used when the global heap is
	// contended.
	MaxBackoff time.Duration
}

func (c ScavengeConfig) internal() scavenge.Config {
	return scavenge.Config{
		HighWaterBytes: c.HighWaterBytes,
		LowWaterBytes:  c.LowWaterBytes,
		ColdAge:        c.ColdAge,
		Interval:       c.Interval,
		BytesPerSec:    c.BytesPerSec,
		BurstBytes:     c.BurstBytes,
		MaxBackoff:     c.MaxBackoff,
	}
}

// ScavengerStats is a snapshot of the background scavenger's activity.
type ScavengerStats struct {
	// Wakeups counts poll-loop iterations; Passes the polls that released
	// at least one byte.
	Wakeups, Passes int64
	// ReleasedBytes is the cumulative bytes decommitted by the background
	// scavenger (forced ReleaseMemory calls are counted separately, in
	// Stats.ScavengedBytes, which covers both).
	ReleasedBytes int64
	// Backoffs counts polls abandoned because the global heap was
	// contended.
	Backoffs int64
}

// scavengeTarget adapts the Hoard core to the scavenge.Target interface.
// Both methods use the core's TryLock entry points so the background
// goroutine never queues behind allocation traffic.
type scavengeTarget struct {
	a *Allocator
}

func (t scavengeTarget) EmptyBytes() (int64, bool) {
	return t.a.unwrap().TryGlobalEmptyBytes(&env.RealEnv{ID: -1})
}

func (t scavengeTarget) Scavenge(maxBytes int64, coldAge time.Duration) (int64, bool) {
	return t.a.unwrap().TryScavengeGlobal(&env.RealEnv{ID: -1}, maxBytes, int64(coldAge))
}

// StartScavenger launches the background scavenger with the allocator's
// ScavengeConfig (Config.Scavenge.Enabled does this from New). It errors for
// non-Hoard policies, which have no global heap to scavenge, and when a
// scavenger is already running.
func (a *Allocator) StartScavenger() error {
	if a.unwrap() == nil {
		return fmt.Errorf("hoard: policy %q does not support scavenging", a.name)
	}
	a.scavMu.Lock()
	defer a.scavMu.Unlock()
	if a.scav != nil && a.scav.Running() {
		return fmt.Errorf("hoard: scavenger already running")
	}
	if a.scav == nil {
		a.scav = scavenge.New(scavengeTarget{a}, a.scavCfg)
	}
	a.scav.Start()
	return nil
}

// StopScavenger halts the background scavenger and waits for its goroutine
// to exit, returning the activity snapshot. With no scavenger running it
// returns zeros.
func (a *Allocator) StopScavenger() ScavengerStats {
	a.scavMu.Lock()
	scav := a.scav
	a.scavMu.Unlock()
	if scav == nil {
		return ScavengerStats{}
	}
	scav.Stop()
	return a.ScavengerStats()
}

// ScavengerStats snapshots the background scavenger's counters (zeros if it
// was never started). The scavenger may be running.
func (a *Allocator) ScavengerStats() ScavengerStats {
	a.scavMu.Lock()
	scav := a.scav
	a.scavMu.Unlock()
	if scav == nil {
		return ScavengerStats{}
	}
	st := scav.Stats()
	return ScavengerStats{
		Wakeups:       st.Wakeups,
		Passes:        st.Passes,
		ReleasedBytes: st.ReleasedBytes,
		Backoffs:      st.Backoffs,
	}
}

// ReleaseMemory forcibly returns every empty superblock parked on the global
// heap to the (simulated) OS, regardless of age or pacing — the
// malloc_trim(3) of this allocator. It blocks on the global heap's lock and
// returns the bytes released. Non-Hoard policies release nothing.
//
// The memory stays reserved: addresses remain valid, and the superblocks are
// recommitted transparently when allocation demand returns.
func (a *Allocator) ReleaseMemory() int64 {
	h := a.unwrap()
	if h == nil {
		return 0
	}
	return h.ReleaseMemory(&env.RealEnv{ID: -1})
}
