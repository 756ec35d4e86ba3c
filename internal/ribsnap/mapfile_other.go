//go:build !linux

package ribsnap

import "os"

// mapFile reads the whole file on platforms without the mmap path. The
// zero-copy casts still apply to the read buffer when aligned, so only
// the one-time file read costs more than the mapped variant.
func mapFile(path string) ([]byte, func() error, error) {
	data, err := os.ReadFile(path)
	return data, nil, err
}

// dropPages is a no-op without a mapping to advise on.
func dropPages([]byte) {}
