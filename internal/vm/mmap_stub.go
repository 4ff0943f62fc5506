//go:build !(linux && (amd64 || arm64))

package vm

// newMmapMemory is unavailable on this platform: the arena needs mmap,
// mprotect, and madvise with Linux semantics. Callers fall back to the
// simulated memory.
func newMmapMemory() (memory, error) { return nil, ErrArenaUnsupported }
