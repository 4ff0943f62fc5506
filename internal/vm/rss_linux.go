//go:build linux

package vm

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// ReadRSS returns the process's resident set size in bytes, read from
// /proc/self/statm. This is the ground truth the arena's decommit test and
// core's ReleaseMemory RSS test compare the allocator's committed
// accounting against: only pages the OS actually backs count.
func ReadRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("vm: malformed /proc/self/statm %q", data)
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("vm: /proc/self/statm resident field: %w", err)
	}
	return pages * int64(os.Getpagesize()), nil
}
