//go:build !linux

package vm

import "errors"

// ReadRSS is unavailable on this platform: it needs /proc/self/statm.
func ReadRSS() (int64, error) {
	return 0, errors.New("vm: RSS measurement requires /proc/self/statm (linux)")
}
