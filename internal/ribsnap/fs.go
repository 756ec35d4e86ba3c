// The filesystem seam under the snapshot write path. Everything a
// store write touches on disk goes through the fsio.FS interface
// (aliased here for callers), and every whole-file write is one
// fsio.Replace, so the disk-fault injector
// (internal/ingest/faultinject.DiskFS) can interpose short writes,
// ENOSPC, bit flips on the way down, and fail-stop crashes at any step
// — and the crash-recovery suite can prove that whatever step the
// process dies at, a subsequent Load sees either the old complete
// snapshot or the new complete snapshot, never garbage. Shard files
// and shards.manifest are written durably; the manifest journal
// (manifest.go) appends with the same discipline.

package ribsnap

import "dropscope/internal/fsio"

// File aliases the seam's file interface; see fsio.File.
type File = fsio.File

// FS aliases the seam interface Write runs through; see fsio.FS. The
// default is the real OS (OS); tests and the fault injector substitute
// their own.
type FS = fsio.FS

// OS is the real filesystem.
var OS FS = fsio.OS
