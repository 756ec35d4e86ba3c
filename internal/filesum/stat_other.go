//go:build !linux

package filesum

import "os"

// Off Linux no stat tuple is read: every sum is a read, and no row is
// recorded.

type file = *os.File

func openFile(path string) (*os.File, error) { return os.Open(path) }

func statFile(*os.File) (Stat, bool) { return Stat{}, false }

func statPath(string) (Stat, bool) { return Stat{}, false }
