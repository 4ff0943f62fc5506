//go:build linux && (amd64 || arm64)

package vm

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mmapMemory is real memory. Each region is mapped PROT_NONE with
// MAP_NORESERVE, so it consumes address space only. Committing a span
// mprotects it PROT_READ|PROT_WRITE — physical pages arrive on first touch —
// and dropping it is a real madvise(MADV_DONTNEED), so released pages
// genuinely leave the process RSS and read back as zeros if re-touched.
type mmapMemory struct {
	maps [][]byte // every mapping, for close
}

func newMmapMemory() (memory, error) { return &mmapMemory{}, nil }

func (m *mmapMemory) name() string { return "arena" }

func (m *mmapMemory) mapRegion(n int64, align int) (uint64, []byte, error) {
	raw, err := syscall.Mmap(-1, 0, int(n)+align, syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return 0, nil, fmt.Errorf("vm: arena mapping of %d bytes: %w", n, err)
	}
	m.maps = append(m.maps, raw)
	addr := uint64(uintptr(unsafe.Pointer(&raw[0])))
	off := int((addr+uint64(align)-1)&^(uint64(align)-1) - addr)
	return addr + uint64(off), raw[off : off+int(n) : off+int(n)], nil
}

func (m *mmapMemory) commit(r *region, base uint64, n int) []byte {
	off := int(base - r.base)
	b := r.mem[off : off+n : off+n]
	if err := syscall.Mprotect(b, syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
		panic(fmt.Sprintf("vm: mprotect(%#x, %d): %v", base, n, err))
	}
	return b
}

func (m *mmapMemory) drop(b []byte) {
	if err := syscall.Madvise(b, syscall.MADV_DONTNEED); err != nil {
		panic(fmt.Sprintf("vm: madvise(%p, %d, DONTNEED): %v", &b[0], len(b), err))
	}
}

func (m *mmapMemory) close() error {
	var err error
	for _, raw := range m.maps {
		if e := syscall.Munmap(raw); e != nil && err == nil {
			err = e
		}
	}
	m.maps = nil
	return err
}
