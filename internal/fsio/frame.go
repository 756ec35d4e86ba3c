package fsio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Castagnoli is the CRC-32C table every store checksum uses.
var Castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The frame the store's whole-file formats (shards.manifest,
// text.journal, archive.manifest) share:
//
//	magic | version (uint32 LE) | body | CRC-32C of all before (uint32 LE)
//
// errFrame is a file too short for it, another magic or a bad trailer;
// ErrVersion an intact frame of another version.
var (
	errFrame   = errors.New("fsio: bad frame")
	ErrVersion = errors.New("fsio: frame version mismatch")
)

// Frame starts a framed file: append the body, then Seal.
func Frame(magic string, version uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte(magic), version)
}

// Seal appends the trailer: the CRC-32C of b.
func Seal(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, Castagnoli))
}

// check reports whether b ends in the CRC-32C of all before it, which
// needs neither the magic nor the version.
func check(b []byte) error {
	end := len(b) - 4
	if end < 0 {
		return fmt.Errorf("%w: %d bytes", errFrame, len(b))
	}
	if crc32.Checksum(b[:end], Castagnoli) != binary.LittleEndian.Uint32(b[end:]) {
		return fmt.Errorf("%w: CRC mismatch", errFrame)
	}
	return nil
}

// Open checks b's frame — length, magic, trailer, then version, so a
// damaged file is never taken for another version — and returns the
// body.
func Open(b []byte, magic string, version uint32) ([]byte, error) {
	head := len(magic) + 4
	if len(b) < head+4 || string(b[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: %d bytes, no %q magic", errFrame, len(b), magic)
	}
	if err := check(b); err != nil {
		return nil, err
	}
	if v := binary.LittleEndian.Uint32(b[len(magic):]); v != version {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrVersion, v, version)
	}
	return b[head : len(b)-4], nil
}

// CheckFile runs the trailer check over the file at path. A missing or
// empty file holds nothing to check.
func CheckFile(path string) error {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) || len(b) == 0 && err == nil {
		return nil
	}
	if err != nil {
		return err
	}
	return check(b)
}
