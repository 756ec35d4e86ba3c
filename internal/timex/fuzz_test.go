package timex

import (
	"testing"
	"time"
)

// FuzzParseDay holds the fixed-width parser to time.Parse: the same
// strings accepted, the same day for each, over both layouts.
func FuzzParseDay(f *testing.F) {
	for _, seed := range []string{
		"2022-03-30", "20220330", "2020-02-29", "2019-02-29", "1900-02-29", "2000-02-29",
		"0000-01-01", "0000-02-29", "9999-12-31", "19700101", "19691231",
		"2022-00-10", "2022-13-01", "2022-04-31", "20220399", "2022-1-01x", "2022/03/30",
		"+022-03-30", "-0220330", "2022-03- 1", "", "2019", "２０２２0330",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, ok := parseDay(s)
		if gotB, okB := parseDay([]byte(s)); gotB != got || okB != ok {
			t.Fatalf("parseDay(%q): string gives (%v, %v), bytes (%v, %v)", s, got, ok, gotB, okB)
		}
		want, err := parseDayStd(s)
		if ok != (err == nil) {
			t.Fatalf("parseDay(%q) ok = %v, time.Parse says %v", s, ok, err)
		}
		if ok && got != want {
			t.Fatalf("parseDay(%q) = %d (%v), time.Parse gives %d (%v)", s, got, got, want, want)
		}
		// The public entry points word a rejection as time.Parse does.
		if _, perr := ParseDayBytes([]byte(s)); err != nil && (perr == nil || perr.Error() != err.Error()) {
			t.Fatalf("ParseDayBytes(%q) error = %v, want %v", s, perr, err)
		}
	})
}

// TestParseDayEveryDay walks every calendar day of the four-digit years
// through both layouts, so the differential does not rest on the fuzzer
// finding month ends and leap years.
func TestParseDayEveryDay(t *testing.T) {
	day := DateDay(0, time.January, 1)
	for tm := time.Date(0, time.January, 1, 0, 0, 0, 0, time.UTC); tm.Year() < 10000; tm = tm.AddDate(0, 0, 1) {
		for _, layout := range []string{"2006-01-02", "20060102"} {
			s := tm.Format(layout)
			if got, ok := parseDay(s); !ok || got != day {
				t.Fatalf("parseDay(%q) = %d, %v; want %d", s, got, ok, day)
			}
		}
		day++
	}
}
