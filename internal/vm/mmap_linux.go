//go:build linux && (amd64 || arm64)

package vm

import (
	"fmt"
	"syscall"
	"unsafe"
)

// hugePage is the size of a transparent huge page on amd64 and arm64 with
// 4 KiB base pages: the arena's alignment and commit granule.
const hugePage = 2 << 20

// mmapMemory is real memory. Each region is mapped PROT_NONE with
// MAP_NORESERVE, so it consumes address space only, aligned to 2 MiB and
// advised MADV_HUGEPAGE, so the kernel may back it with transparent huge
// pages; where THP is not built in the advice is refused and the region runs
// on 4 KiB pages. Committing a span mprotects PROT_READ|PROT_WRITE from the
// region's read-write watermark up to the 2 MiB boundary past the span's
// end, so each read-write range is whole chunks a huge page can back. The
// uncarved tail of the current chunk is read-write too, and as physical
// pages arrive on first touch, a huge page at a time, RSS may exceed the
// committed bytes by less than 2 MiB per region. Dropping a span is a real
// madvise(MADV_DONTNEED), so released pages genuinely leave the process RSS
// and read back as zeros if re-touched. A span inside a huge page splits it:
// statm RSS drops at once, and the kernel frees the dropped part of the huge
// page through its deferred split (DESIGN.md §12 says when khugepaged may
// collapse it again).
type mmapMemory struct {
	maps [][]byte // every mapping, for close
}

func newMmapMemory() (memory, error) { return &mmapMemory{}, nil }

func (m *mmapMemory) name() string { return "arena" }

func (m *mmapMemory) mapRegion(n int64, align int) (uint64, []byte, error) {
	align = max(align, hugePage)
	raw, err := syscall.Mmap(-1, 0, int(n)+align, syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return 0, nil, fmt.Errorf("vm: arena mapping of %d bytes: %w", n, err)
	}
	m.maps = append(m.maps, raw)
	addr := uint64(uintptr(unsafe.Pointer(&raw[0])))
	off := int((addr+uint64(align)-1)&^(uint64(align)-1) - addr)
	mem := raw[off : off+int(n) : off+int(n)]
	_ = syscall.Madvise(mem, syscall.MADV_HUGEPAGE) // refused without THP: 4 KiB pages then
	return addr + uint64(off), mem, nil
}

func (m *mmapMemory) commit(r *region, base uint64, n int) []byte {
	if end := base + uint64(n); end > r.rw {
		hi := min((end+hugePage-1)&^(hugePage-1), r.end)
		if err := syscall.Mprotect(r.mem[r.rw-r.base:hi-r.base], syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
			panic(fmt.Sprintf("vm: mprotect(%#x, %d): %v", r.rw, hi-r.rw, err))
		}
		r.rw = hi
	}
	off := int(base - r.base)
	return r.mem[off : off+n : off+n]
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
