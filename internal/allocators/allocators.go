// Package allocators is the registry mapping allocator names to
// constructors, used by hoard.New, the benchmark harness, the CLI tools and
// the examples. Its seven names are Hoard itself, the five rows of the
// paper's taxonomy (serial, concurrent, private, ownership, threshold) and a
// dlmalloc-style heap. Serial, concurrent and ownership are three rules over
// internal/lockedheap, private and threshold two over internal/privateheap;
// each entry is the one definition of that allocator's defaults.
package allocators

import (
	"fmt"
	"sort"

	"hoardgo/internal/alloc"
	"hoardgo/internal/core"
	"hoardgo/internal/dlheap"
	"hoardgo/internal/env"
	"hoardgo/internal/lockedheap"
	"hoardgo/internal/privateheap"
)

// Maker constructs an allocator sized for procs processors, with locks from
// lf.
type Maker func(procs int, lf env.LockFactory) alloc.Allocator

var registry = map[string]Maker{
	// The paper's contribution. Heap count follows the released Hoard
	// implementation: two heaps per processor.
	"hoard": func(procs int, lf env.LockFactory) alloc.Allocator {
		return core.New(core.Config{Heaps: 2 * procs}, lf)
	},
	// Concurrent single heap: per-size-class locks, no per-processor
	// ownership (the taxonomy's "concurrent single heap" row).
	"concurrent": func(procs int, lf env.LockFactory) alloc.Allocator {
		return lockedheap.NewConcurrent(lf)
	},
	// Serial single-heap allocator (the paper's Solaris malloc stand-in).
	"serial": func(procs int, lf env.LockFactory) alloc.Allocator {
		return lockedheap.NewSerial(lf)
	},
	// Doug Lea-style serial allocator: boundary-tag coalescing under one
	// lock (the dlmalloc design ptmalloc wrapped with arenas).
	"dlheap": func(procs int, lf env.LockFactory) alloc.Allocator {
		return dlheap.New(lf)
	},
	// Pure private heaps (Cilk/STL stand-in): refills carve the thread's
	// own spans with no lock.
	"private": func(procs int, lf env.LockFactory) alloc.Allocator {
		return privateheap.NewPrivate()
	},
	// Private heaps with ownership (Ptmalloc stand-in): two arenas per
	// processor, with arena stealing.
	"ownership": func(procs int, lf env.LockFactory) alloc.Allocator {
		return lockedheap.NewOwnership(2*procs, lf)
	},
	// Private heaps with thresholds (DYNIX / Vee & Hsu stand-in): the same
	// per-thread lists, moving 32 blocks at a time to and from per-class
	// pools.
	"threshold": func(procs int, lf env.LockFactory) alloc.Allocator {
		return privateheap.NewThreshold(lf)
	},
}

// Names returns the registered allocator names, sorted, with "hoard" first —
// the order benchmark tables are reported in.
func Names() []string {
	var rest []string
	for name := range registry {
		if name != "hoard" {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	return append([]string{"hoard"}, rest...)
}

// Make constructs the named allocator.
func Make(name string, procs int, lf env.LockFactory) (alloc.Allocator, error) {
	mk, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("allocators: unknown allocator %q (have %v)", name, Names())
	}
	return mk(procs, lf), nil
}

// MustMake is Make for static names; it panics on unknown names.
func MustMake(name string, procs int, lf env.LockFactory) alloc.Allocator {
	a, err := Make(name, procs, lf)
	if err != nil {
		panic(err)
	}
	return a
}
