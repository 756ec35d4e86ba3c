//go:build linux

package ribsnap

import (
	"os"
	"syscall"
)

// mapFile maps path read-only. The returned release function unmaps;
// until it runs, slices derived from the data stay valid. A read-only
// private mapping means a concurrent rewrite of the file (snapshots are
// replaced atomically by rename) never mutates loaded pages. The
// mapping outlives the file descriptor, which is closed on return.
func mapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if st.Size() == 0 {
		// mmap rejects zero-length maps; an empty file is just a
		// truncated snapshot.
		return nil, nil, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

// dropPages releases the mapping's resident pages back to the OS.
// Best-effort: the mapping is PROT_READ/MAP_PRIVATE over a file, so
// dropped pages refault from the file on the next touch and no data
// can be lost.
func dropPages(b []byte) {
	_ = syscall.Madvise(b, syscall.MADV_DONTNEED)
}
