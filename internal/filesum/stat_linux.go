//go:build linux

package filesum

import (
	"io"
	"os"
	"syscall"
)

// file is an open descriptor read through plain system calls: a load
// opens thousands of archive files, and an os.File costs each of them
// three allocations, a finalizer and an attempt to join the poller.
type file int

func openFile(path string) (file, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return -1, &os.PathError{Op: "open", Path: path, Err: err}
	}
	return file(fd), nil
}

func (f file) Read(b []byte) (int, error) {
	for {
		n, err := syscall.Read(int(f), b)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, os.NewSyscallError("read", err)
		case n == 0 && len(b) > 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (f file) Close() error { return syscall.Close(int(f)) }

// The tuples are read into stack values: os.Stat would allocate a
// FileInfo for each of the thousands of files.

func statFile(f file) (Stat, bool) {
	var st syscall.Stat_t
	return tuple(&st, syscall.Fstat(int(f), &st))
}

func statPath(path string) (Stat, bool) {
	var st syscall.Stat_t
	return tuple(&st, syscall.Stat(path, &st))
}

func tuple(st *syscall.Stat_t, err error) (Stat, bool) {
	return Stat{Size: uint64(st.Size), Dev: st.Dev, Ino: st.Ino, Mtime: st.Mtim.Nano(), Ctime: st.Ctim.Nano()}, err == nil
}
