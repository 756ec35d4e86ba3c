package rirstats

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dropscope/internal/ingest"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// referenceParseFile is the line-at-a-time parser the byte-level scanner
// replaced: bufio.Scanner, strings.Split, strconv and netx/timex over
// strings. It is kept as the independent statement of what ParseFile,
// ParseFileHealth and AppendBlocks accept, reject and count.
func referenceParseFile(r io.Reader, src *ingest.Source) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var out []Record
	lineNo := 0
	skip := func(format string, args ...interface{}) error {
		if src != nil {
			src.Skip(ingest.BadLine)
			return nil
		}
		return fmt.Errorf(format, args...)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		if lineNo == 1 && len(fields) >= 2 && fields[0] == "2" {
			continue // version line
		}
		if len(fields) >= 6 && fields[2] == "ipv4" && fields[3] == "*" {
			continue // summary line (ipv4|*|count|summary)
		}
		if len(fields) >= 6 && fields[1] == "*" {
			continue // summary line
		}
		if len(fields) < 7 {
			if err := skip("rirstats: line %d: %d fields", lineNo, len(fields)); err != nil {
				return nil, err
			}
			continue
		}
		if fields[2] != "ipv4" {
			continue // this pipeline is IPv4-only
		}
		var rec Record
		rec.Registry = RIR(fields[0])
		rec.CC = fields[1]
		start, err := netx.ParseAddr(fields[3])
		if err != nil {
			if err := skip("rirstats: line %d: %v", lineNo, err); err != nil {
				return nil, err
			}
			continue
		}
		rec.Start = start
		rec.Count, err = strconv.ParseUint(fields[4], 10, 64)
		if err != nil || rec.Count == 0 {
			if err := skip("rirstats: line %d: bad count %q", lineNo, fields[4]); err != nil {
				return nil, err
			}
			continue
		}
		if rec.Count > (1<<32)-uint64(rec.Start) {
			if err := skip("rirstats: line %d: range %s+%d exceeds the address space",
				lineNo, rec.Start, rec.Count); err != nil {
				return nil, err
			}
			continue
		}
		if fields[5] != "" {
			d, err := timex.ParseDay(fields[5])
			if err != nil {
				if err := skip("rirstats: line %d: %v", lineNo, err); err != nil {
					return nil, err
				}
				continue
			}
			rec.Date = d
		}
		rec.Status = Status(fields[6])
		if len(fields) >= 8 {
			rec.OpaqueID = fields[7]
		}
		out = append(out, rec)
		if src != nil {
			src.Accept(1)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// referenceRangeToPrefixes is the decomposition by halving and counting.
func referenceRangeToPrefixes(start netx.Addr, count uint64) []netx.Prefix {
	var out []netx.Prefix
	a := uint64(start)
	for count > 0 {
		size := uint64(1) << 32
		if a != 0 {
			size = a & -a
		}
		for size > count {
			size >>= 1
		}
		bits := 32
		for s := size; s > 1; s >>= 1 {
			bits--
		}
		out = append(out, netx.PrefixFrom(netx.Addr(a), bits))
		a += size
		count -= size
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstReference runs one file through the reference parser and
// through both consumers of the scanner, strictly and leniently, and
// fails on any difference in records, blocks, error text or counts.
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	for _, lenient := range []bool{false, true} {
		var wantSrc, recSrc, blkSrc *ingest.Source
		if lenient {
			wantSrc, recSrc, blkSrc = new(ingest.Source), new(ingest.Source), new(ingest.Source)
		}
		want, wantErr := referenceParseFile(bytes.NewReader(data), wantSrc)

		var got []Record
		var err error
		if lenient {
			got, err = ParseFileHealth(bytes.NewReader(data), recSrc)
		} else {
			got, err = ParseFile(bytes.NewReader(data))
		}
		if errText(err) != errText(wantErr) {
			t.Fatalf("lenient=%v: ParseFile error %q, reference %q", lenient, errText(err), errText(wantErr))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("lenient=%v: ParseFile records\n got %+v\nwant %+v", lenient, got, want)
		}

		blocks, err := AppendBlocks(nil, data, 0, blkSrc)
		if errText(err) != errText(wantErr) {
			t.Fatalf("lenient=%v: AppendBlocks error %q, reference %q", lenient, errText(err), errText(wantErr))
		}
		if err == nil {
			var wantBlocks []Block
			for _, r := range want {
				for _, p := range referenceRangeToPrefixes(r.Start, r.Count) {
					wantBlocks = append(wantBlocks, Block{r.Registry, p, r.Status})
				}
			}
			if !slices.Equal(blocks, wantBlocks) {
				t.Fatalf("lenient=%v: AppendBlocks\n got %+v\nwant %+v", lenient, blocks, wantBlocks)
			}
		}
		if lenient && (*recSrc != *wantSrc || *blkSrc != *wantSrc) {
			t.Fatalf("source counts: ParseFileHealth %+v, AppendBlocks %+v, reference %+v", *recSrc, *blkSrc, *wantSrc)
		}
	}
}

// sampleFile is a stats file of n delegation lines under the usual
// version, summary and comment lines.
func sampleFile(n int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "2|arin|20220330|%d|19830101|20220330|+0000\n", n)
	fmt.Fprintf(&b, "arin|*|ipv4|*|%d|summary\narin|*|ipv6|*|1|summary\n# comment\n\n", n)
	b.WriteString("arin|US|ipv6|2001:db8::|32|20190605|allocated|org-6\n")
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, "arin|US|ipv4|%s|768|20190605|allocated|org-%d\n", netx.Addr(i<<10), i)
		case 1:
			fmt.Fprintf(&b, "arin|ZZ|ipv4|%s|1024||available|\n", netx.Addr(i<<10))
		default:
			fmt.Fprintf(&b, "arin|CA|ipv4|%s|256|2019-06-05|assigned|org-%d|e-stats\r\n", netx.Addr(i<<10), i)
		}
	}
	return b.Bytes()
}

func TestScannerMatchesReference(t *testing.T) {
	files := []string{
		string(sampleFile(50)),
		"",
		"\n\n",
		"2|arin\n2|arin|x|y|z|w|v\n", // a version line only counts on line 1
		"\n2|arin|20220330|1|1|19830101|20220330\n", // so this one is a bad count
		"arin|US|ipv4\n",
		"arin|US|ipv4|23.0.0.0|256|20190605|allocated", // no trailing newline, seven fields
		"arin|US|ipv4|23.0.0.0|256|20190605\n",
		"arin|US|asn|64512|1|20190605|allocated|x\n",
		"arin|*|asn|*|3|summary\n",
		"arin|US|ipv4|*|3|summary\n",
		"arin|US|ipv4|23.0.0.0|abc|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|+5|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|1_0|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|0|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|00256|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|18446744073709551615|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|18446744073709551616|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|99999999999999999999|20190605|allocated|x\n",
		"arin|US|ipv4|0.0.0.0|4294967296|20190605|allocated|x\n",
		"arin|US|ipv4|0.0.0.1|4294967296|20190605|allocated|x\n",
		"arin|US|ipv4|255.255.255.255|2|20190605|allocated|x\n",
		"arin|US|ipv4|badaddr|256|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0|256|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0.256|256|20190605|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|256|2019|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|256|20190230|allocated|x\n",
		"arin|US|ipv4|23.0.0.0|256|2019-13-05|allocated|x\n",
		"arin|us|ipv4|23.0.0.0|256|20190605|Allocated|x\n",
		"nic|USA|ipv4|23.0.0.0|256|20190605|pending||\n",
		" \tarin|US|ipv4|23.0.0.0|256|20190605|allocated|x \t\r\n",
		" arin|US|ipv4|23.0.0.0|256|20190605|allocated|x \n",
		"arin| US|ipv4| 23.0.0.0|256|20190605|allocated|x\n",
		"#arin|US|ipv4|23.0.0.0|256|20190605|allocated|x\n",
		"ok|US|ipv4|23.0.0.0|256||reserved|x\nbad\nok|US|ipv4|24.0.0.0|256||reserved|x\nworse|x|ipv4|1.2.3.4|0||a|b\n",
		"arin|US|ipv4|23.0.0.0|256|20190605|allocated|x\xff\xfe\n",
		"arin|US|ipv4|23.0.0.0|256|20190605|allocated|" + strings.Repeat("x", maxLine) + "\nbad\n",
		"bad\narin|US|ipv4|23.0.0.0|256|20190605|allocated|" + strings.Repeat("x", maxLine) + "\n",
	}
	for _, f := range files {
		checkAgainstReference(t, []byte(f))
	}
}

// TestAppendBlocksAllocations pins the loader's side of the scanner: with
// a reused destination it allocates nothing, whatever the file's length.
func TestAppendBlocksAllocations(t *testing.T) {
	for _, lines := range []int{10, 10000} {
		data := sampleFile(lines)
		var src ingest.Source
		dst, err := AppendBlocks(nil, data, 0, &src)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if dst, err = AppendBlocks(dst[:0], data, 0, &src); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%d lines: %v allocations per file, want 0", lines, allocs)
		}
	}
}
