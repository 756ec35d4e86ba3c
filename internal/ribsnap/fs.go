// The filesystem seam under the snapshot write path. Everything Write
// touches on disk goes through the fsio.FS interface (aliased here for
// callers), so the disk-fault injector
// (internal/ingest/faultinject.DiskFS) can interpose short writes,
// ENOSPC, bit flips on the way down, and fail-stop crashes at any step
// — and the crash-recovery suite can prove that whatever step the
// process dies at, a subsequent Load sees either the old complete
// snapshot or the new complete snapshot, never garbage.
//
// # Why rename alone is not durable
//
// The classic temp+rename pattern is atomic against readers but not
// against power loss: without an fsync of the temp file the rename can
// promote a name whose *contents* never reached the platter, and
// without an fsync of the parent directory the rename itself can
// vanish on power loss (the directory entry lives in the directory's
// own blocks, which have their own writeback schedule). The durable
// sequence is: write temp → fsync temp → close → rename → fsync
// directory. Write follows it exactly, and the manifest journal
// (manifest.go) appends with the same discipline.

package ribsnap

import (
	"os"
	"path/filepath"
	"strings"

	"dropscope/internal/fsio"
)

// File aliases the seam's file interface; see fsio.File.
type File = fsio.File

// FS aliases the seam interface Write runs through; see fsio.FS. The
// default is the real OS (OS); tests and the fault injector substitute
// their own.
type FS = fsio.FS

// OS is the real filesystem.
var OS FS = fsio.OS

// tempPattern names the writer's temp files. sweepTempsFS matches on the
// prefix (the part before "*"), so the two stay in lockstep.
const tempPattern = ".ribsnap-*"

// sweepTempsFS garbage-collects orphaned snapshot temp files under dir
// — the debris of writers that crashed between CreateTemp and Rename.
// It returns the names removed. Call it at startup, before any writer
// is live: the sweep cannot tell an orphan from an in-flight temp, so
// it assumes the single-writer discipline the snapshot store already
// requires. A missing dir sweeps nothing.
func sweepTempsFS(fsys FS, dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
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
