package core

import (
	"math"

	"hoardgo/internal/env"
)

// This file is the core side of the scavenger (internal/scavenge holds the
// policy engine): entry points that decommit empty superblocks parked on the
// global heap, in place, oldest-first. The superblocks stay owned by the
// global heap — its a is unchanged, the emptiness machinery never notices —
// and TakeSuper recommits them transparently when demand returns. The
// reservation stays, so the blowup bound's accounting of superblocks held is
// untouched; pacing is internal/scavenge's policy.

// SetClock installs the time source used to stamp superblocks parked on the
// global heap (the scavenger's cold-age input). The default is the wall
// clock; deterministic experiments install a virtual clock. Must be called
// before the allocator is shared between threads.
func (h *Hoard) SetClock(now func() int64) { h.clock = now }

// Now reads the allocator's scavenge clock.
func (h *Hoard) Now() int64 { return h.clock() }

// GlobalEmptyBytes returns the committed bytes sitting in completely empty
// superblocks on the global heap — the scavengable surplus. It takes the
// global heap's lock.
func (h *Hoard) GlobalEmptyBytes(e env.Env) int64 {
	g := h.heaps[0]
	env.LockWith(g.Lock, e, "scavenge")
	n := g.EmptyCommittedBytes(e)
	g.Lock.Unlock(e)
	return n
}

// TryGlobalEmptyBytes is GlobalEmptyBytes with TryLock: ok is false when the
// global heap was contended, so a background scavenger can back off instead
// of queueing behind allocation traffic.
func (h *Hoard) TryGlobalEmptyBytes(e env.Env) (int64, bool) {
	g := h.heaps[0]
	if !env.TryLockWith(g.Lock, e, "scavenge") {
		return 0, false
	}
	n := g.EmptyCommittedBytes(e)
	g.Lock.Unlock(e)
	return n, true
}

// ScavengeGlobal decommits up to maxBytes of empty global-heap superblocks
// whose park stamp is at least coldAgeNS old (coldAgeNS <= 0 disables the
// age filter), oldest first, and returns the bytes released. It blocks on
// the global heap's lock; background callers should prefer
// TryScavengeGlobal.
func (h *Hoard) ScavengeGlobal(e env.Env, maxBytes int64, coldAgeNS int64) int64 {
	g := h.heaps[0]
	env.LockWith(g.Lock, e, "scavenge")
	n := h.scavengeLocked(e, maxBytes, coldAgeNS)
	g.Lock.Unlock(e)
	return n
}

// TryScavengeGlobal is ScavengeGlobal with TryLock: ok is false (and nothing
// is released) when the global heap was contended.
func (h *Hoard) TryScavengeGlobal(e env.Env, maxBytes int64, coldAgeNS int64) (int64, bool) {
	g := h.heaps[0]
	if !env.TryLockWith(g.Lock, e, "scavenge") {
		return 0, false
	}
	n := h.scavengeLocked(e, maxBytes, coldAgeNS)
	g.Lock.Unlock(e)
	return n, true
}

// scavengeLocked runs one scavenge pass with the global lock held.
func (h *Hoard) scavengeLocked(e env.Env, maxBytes int64, coldAgeNS int64) int64 {
	coldBefore := int64(math.MaxInt64)
	if coldAgeNS > 0 {
		coldBefore = h.clock() - coldAgeNS
	}
	released, _ := h.heaps[0].ScavengeEmpties(e, maxBytes, coldBefore)
	if released > 0 {
		h.scavPasses.Add(1)
		h.scavBytes.Add(released)
	}
	return released
}

// ReleaseMemory forcibly scavenges everything scavengable: every empty
// superblock parked on the global heap is decommitted regardless of age or
// pacing. Returns the bytes released. This is the public API's forced
// scavenge.
func (h *Hoard) ReleaseMemory(e env.Env) int64 {
	return h.ScavengeGlobal(e, math.MaxInt64, 0)
}

// ScavengeQuiescent is ReleaseMemory without the lock, for an allocator that
// has gone quiet — e.g. after a simulator run, whose locks cannot be taken
// from outside the simulation (cf. SampleHeapsQuiescent).
func (h *Hoard) ScavengeQuiescent() int64 {
	return h.scavengeLocked(&env.RealEnv{}, math.MaxInt64, 0)
}
