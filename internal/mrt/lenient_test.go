package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"regexp"
	"strings"
	"testing"

	"dropscope/internal/ingest"
)

// threeRecordStream returns the wire bytes of the three sample records
// and the offset of each record's header.
func threeRecordStream(t *testing.T) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	offs := make([]int, 0, 3)
	for _, rec := range []Record{samplePeerIndex(), sampleRIB(), sampleBGP4MP()} {
		offs = append(offs, buf.Len())
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), offs
}

func TestStrictErrorCarriesRecordIndexAndOffset(t *testing.T) {
	wire, offs := threeRecordStream(t)
	// Make record 1's body undecodable: its prefix-length byte becomes 45.
	wire[offs[1]+12+4] = 45
	recs, err := ReadAll(bytes.NewReader(wire))
	if err == nil {
		t.Fatal("corrupt record did not fail strict read")
	}
	want := regexp.MustCompile(`^mrt: record 1 at offset 0x[0-9a-f]+: `)
	if !want.MatchString(err.Error()) {
		t.Errorf("error %q lacks record index and offset", err)
	}
	if !strings.Contains(err.Error(), "0x"+hex(offs[1])) {
		t.Errorf("error %q does not name offset %#x", err, offs[1])
	}
	// Partial-result contract: the good prefix survives the error.
	if len(recs) != 1 {
		t.Errorf("partial result = %d records, want 1", len(recs))
	}
}

func hex(n int) string {
	const digits = "0123456789abcdef"
	if n == 0 {
		return "0"
	}
	var b []byte
	for ; n > 0; n >>= 4 {
		b = append([]byte{digits[n&0xF]}, b...)
	}
	return string(b)
}

func TestStrictTruncatedKeepsErrorsIs(t *testing.T) {
	wire, _ := threeRecordStream(t)
	_, err := ReadAll(bytes.NewReader(wire[:len(wire)-3]))
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("errors.Is(ErrTruncated) lost through wrapping: %v", err)
	}
	if !regexp.MustCompile(`record 2 at offset 0x[0-9a-f]+`).MatchString(err.Error()) {
		t.Errorf("truncation error %q lacks record context", err)
	}
}

func TestLenientSkipsCorruptRecord(t *testing.T) {
	wire, offs := threeRecordStream(t)
	wire[offs[1]+12+4] = 45 // record 1 body undecodable
	src := &ingest.Source{Name: "mrt/test"}
	r := NewReader(bytes.NewReader(wire), Lenient(), WithSource(src))
	var recs []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("lenient read failed: %v", err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 2 || r.Skipped() != 1 {
		t.Fatalf("records=%d skipped=%d, want 2/1", len(recs), r.Skipped())
	}
	if _, ok := recs[0].(*PeerIndexTable); !ok {
		t.Errorf("record 0 is %T", recs[0])
	}
	if _, ok := recs[1].(*BGP4MPMessage); !ok {
		t.Errorf("record 1 is %T", recs[1])
	}
	if src.Records != 2 || src.Skips[ingest.Corrupt] != 1 {
		t.Errorf("source = %+v", src)
	}
}

func TestLenientResyncsPastLengthLie(t *testing.T) {
	wire, offs := threeRecordStream(t)
	// Record 1's length field claims more than the cap: the framing is a
	// lie, so the reader must scan for record 2's header.
	binary.BigEndian.PutUint32(wire[offs[1]+8:], 0xFFFFFF00)
	recs, err := ReadAll(bytes.NewReader(wire), Lenient())
	if err != nil {
		t.Fatalf("lenient read failed: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (resync must reach record 2)", len(recs))
	}
	if _, ok := recs[1].(*BGP4MPMessage); !ok {
		t.Errorf("post-resync record is %T", recs[1])
	}
}

func TestLenientGarbageInterleave(t *testing.T) {
	wire, offs := threeRecordStream(t)
	// Seven garbage bytes spliced in front of record 1.
	garbage := bytes.Repeat([]byte{0xFF}, 7)
	mut := append([]byte(nil), wire[:offs[1]]...)
	mut = append(mut, garbage...)
	mut = append(mut, wire[offs[1]:]...)
	src := &ingest.Source{Name: "mrt/test"}
	recs, err := ReadAll(bytes.NewReader(mut), Lenient(), WithSource(src))
	if err != nil {
		t.Fatalf("lenient read failed: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d, want all 3 despite garbage", len(recs))
	}
	if src.Skipped() == 0 {
		t.Error("garbage produced no skip count")
	}
}

func TestLenientTruncatedTailTerminates(t *testing.T) {
	wire, _ := threeRecordStream(t)
	src := &ingest.Source{Name: "mrt/test"}
	recs, err := ReadAll(bytes.NewReader(wire[:len(wire)-3]), Lenient(), WithSource(src))
	if err != nil {
		t.Fatalf("lenient read failed: %v", err)
	}
	if len(recs) != 2 {
		t.Errorf("records = %d, want 2", len(recs))
	}
	if src.Skips[ingest.Truncated] != 1 {
		t.Errorf("source = %+v, want one truncated skip", src)
	}
}

// TestLenientCleanStreamByteIdentical is the compatibility anchor: over
// an undamaged stream the lenient reader must yield exactly the records
// the strict reader does.
func TestLenientCleanStreamByteIdentical(t *testing.T) {
	wire, _ := threeRecordStream(t)
	strict, err := ReadAll(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	src := &ingest.Source{Name: "mrt/test"}
	lenient, err := ReadAll(bytes.NewReader(wire), Lenient(), WithSource(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) != len(lenient) {
		t.Fatalf("record counts differ: %d vs %d", len(strict), len(lenient))
	}
	var sb, lb bytes.Buffer
	sw, lw := NewWriter(&sb), NewWriter(&lb)
	for i := range strict {
		if err := sw.Write(strict[i]); err != nil {
			t.Fatal(err)
		}
		if err := lw.Write(lenient[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(sb.Bytes(), lb.Bytes()) {
		t.Error("lenient decode of a clean stream diverged from strict")
	}
	if !src.Clean() || src.Records != 3 {
		t.Errorf("clean stream source = %+v", src)
	}
}
