package core

import "hoardgo/internal/env"

// This file is the core side of page release: the entry point that
// decommits every empty superblock parked on the global heap, in place. The
// superblocks stay owned by the global heap — its a is unchanged, the
// emptiness machinery never notices — and TakeSuper recommits them
// transparently when demand returns. The reservation stays, so the blowup
// bound's accounting of superblocks held is untouched.

// ReleaseMemory decommits every empty superblock parked on the global heap
// and returns the bytes released. It blocks on the global heap's lock.
// This is the public API's ReleaseMemory.
func (h *Hoard) ReleaseMemory(e env.Env) int64 {
	g := h.heaps[0]
	g.Lock.Lock(e)
	released := g.ScavengeEmpties(e)
	if released > 0 {
		h.scavPasses.Add(1)
		h.scavBytes.Add(released)
	}
	g.Lock.Unlock(e)
	return released
}
