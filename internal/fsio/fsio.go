// Package fsio is the store's filesystem seam — the interface its
// writes run through, the real OS by default — with the one atomic
// writer (Replace) and the one file frame and CRC table (frame.go). It
// is a leaf package on purpose: the snapshot writer (internal/ribsnap)
// consumes it and the disk-fault injector (internal/ingest/faultinject)
// implements it, and keeping it dependency-free lets the injector avoid
// importing the writer (which would cycle through the ingest packages
// the writer's index depends on).
package fsio

import (
	"io"
	"os"
	"path/filepath"
	"strings"
)

// File is the subset of *os.File a durable writer needs. Sync is the
// durability point for file contents; WriteAt back-patches headers
// after a payload is streamed.
type File interface {
	io.Writer
	io.WriterAt
	Name() string
	Sync() error
	Close() error
}

// FS is the seam writes run through. The default is the real OS (OS);
// tests and the fault injector substitute their own.
type FS interface {
	// CreateTemp creates a new O_EXCL temp file in dir; the pattern's
	// "*" is replaced with a random string, exactly as os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file (error-path temp cleanup).
	Remove(name string) error
	// SyncDir fsyncs a directory, making previously renamed or created
	// entries durable.
	SyncDir(dir string) error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	// os.CreateTemp opens O_RDWR|O_CREATE|O_EXCL: a colliding name from
	// a dead writer is never silently adopted.
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// tempPattern names every Replace temp. SweepTemps matches its prefix,
// which predates this package, so older writers' orphans go too.
const tempPattern = ".ribsnap-*"

// Replace atomically replaces the file at path with what write writes
// to a fresh temp beside it: CreateTemp → write → [Sync] → Close →
// Rename → [SyncDir]. On error the temp is removed, best effort: under
// a fail-stop crash the removal fails too, and SweepTemps collects the
// orphan at the next open.
//
// Rename alone is atomic against readers, not against power loss:
// without an fsync of the temp the rename can promote a name whose
// contents never reached the disk, and without an fsync of the parent
// directory the rename itself can vanish. durable adds both; without
// it, power loss may leave the file torn or gone, so use that only for
// a file whose own checks refuse a torn copy and whose loss costs a
// rebuild, not a wrong answer.
func Replace(fsys FS, path string, durable bool, write func(File) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, tempPattern)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if err != nil {
			if !closed {
				tmp.Close()
			}
			fsys.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if durable {
		if err = tmp.Sync(); err != nil {
			return err
		}
	}
	closed = true
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp.Name(), path); err != nil || !durable {
		return err
	}
	return fsys.SyncDir(dir)
}

// SweepTemps removes the Replace temps under dir, the debris of writers
// that died between CreateTemp and Rename, and returns their names.
// Call it before any writer in dir is live: it cannot tell an orphan
// from an in-flight temp. A missing dir sweeps nothing.
func SweepTemps(fsys FS, dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	prefix := strings.TrimSuffix(tempPattern, "*")
	var swept []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
			return swept, err
		}
		swept = append(swept, e.Name())
	}
	return swept, nil
}
