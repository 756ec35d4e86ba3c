// Package timex provides a compact daily-resolution date type used by all
// the archive formats in this repository (DROP snapshots, ROA archives,
// RIR stats, IRR journals), which are published at daily granularity.
package timex

import (
	"fmt"
	"time"
)

// Day counts days since the Unix epoch (1970-01-01 UTC). The zero value
// is the epoch itself. Day is comparable and arithmetic-friendly: d+7 is
// one week later.
type Day int32

// DateDay constructs a Day from a calendar date.
func DateDay(year int, month time.Month, day int) Day {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Day(t.Unix() / 86400)
}

// FromTime truncates t to its UTC calendar day.
func FromTime(t time.Time) Day {
	tt := t.UTC()
	return DateDay(tt.Year(), tt.Month(), tt.Day())
}

// Time returns midnight UTC of d.
func (d Day) Time() time.Time {
	return time.Unix(int64(d)*86400, 0).UTC()
}

// Date returns the calendar date of d.
func (d Day) Date() (year int, month time.Month, day int) {
	return d.Time().Date()
}

// String renders d as "2019-06-05".
func (d Day) String() string {
	y, m, dd := d.Date()
	return fmt.Sprintf("%04d-%02d-%02d", y, m, dd)
}

// Compact renders d as "20190605", the form used in RIR stats files and
// archive file names.
func (d Day) Compact() string {
	y, m, dd := d.Date()
	return fmt.Sprintf("%04d%02d%02d", y, m, dd)
}

// ParseDay accepts either "2006-01-02" or "20060102".
func ParseDay(s string) (Day, error) {
	if d, ok := parseDay(s); ok {
		return d, nil
	}
	return parseDayStd(s)
}

// ParseDayBytes is ParseDay over a field of a larger buffer, without
// converting it to a string.
func ParseDayBytes(b []byte) (Day, error) {
	if d, ok := parseDay(b); ok {
		return d, nil
	}
	return parseDayStd(string(b))
}

// parseDay reads the two fixed-width layouts digit by digit. It accepts
// exactly what time.Parse accepts for them (FuzzParseDay holds it to
// that): four year digits, a month of 01..12 and a day that exists in
// that month of that proleptic-Gregorian year.
func parseDay[S string | []byte](s S) (Day, bool) {
	var y, m, d int
	switch {
	case len(s) == 10 && s[4] == '-' && s[7] == '-':
		y, m, d = number(s, 0, 4), number(s, 5, 2), number(s, 8, 2)
	case len(s) == 8:
		y, m, d = number(s, 0, 4), number(s, 4, 2), number(s, 6, 2)
	default:
		return 0, false
	}
	if y < 0 || m < 1 || m > 12 || d < 1 || d > daysIn(y, m) {
		return 0, false
	}
	// Days from the civil date, counting years from March so that the
	// leap day is the last of its year.
	if m <= 2 {
		y--
		m += 12
	}
	y += 400 // one 400-year era up, so that / and % floor for year -1
	era, yoe := y/400, y%400
	doy := (153*(m-3)+2)/5 + d - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return Day((era-1)*146097 + doe - 719468), true
}

// number reads the n decimal digits of s that start at from, or
// returns -1 if one of them is not a digit.
func number[S string | []byte](s S, from, n int) int {
	v := 0
	for i := from; i < from+n; i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return -1
		}
		v = v*10 + int(c-'0')
	}
	return v
}

func daysIn(year, month int) int {
	switch month {
	case 4, 6, 9, 11:
		return 30
	case 2:
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
	return 31
}

// parseDayStd is ParseDay through time.Parse. It sees only what
// parseDay rejected, and words the error.
func parseDayStd(s string) (Day, error) {
	var layout string
	switch len(s) {
	case 10:
		layout = "2006-01-02"
	case 8:
		layout = "20060102"
	default:
		return 0, fmt.Errorf("timex: unrecognized date %q", s)
	}
	t, err := time.Parse(layout, s)
	if err != nil {
		return 0, fmt.Errorf("timex: %v", err)
	}
	return FromTime(t), nil
}

// MustParseDay is ParseDay for constants; it panics on error.
func MustParseDay(s string) Day {
	d, err := ParseDay(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Range is an inclusive span of days.
type Range struct {
	First, Last Day
}

// Contains reports whether d falls within r.
func (r Range) Contains(d Day) bool { return d >= r.First && d <= r.Last }

// Days returns the number of days in r (0 if inverted).
func (r Range) Days() int {
	if r.Last < r.First {
		return 0
	}
	return int(r.Last-r.First) + 1
}

// Each calls fn for every day in r in order, stopping if fn returns false.
func (r Range) Each(fn func(Day) bool) {
	for d := r.First; d <= r.Last; d++ {
		if !fn(d) {
			return
		}
	}
}

// String renders r as "2019-06-05..2022-03-30".
func (r Range) String() string {
	return r.First.String() + ".." + r.Last.String()
}
