// Package irr implements the Internet Routing Registry substrate: RPSL
// object parsing and printing (the flat-file format RADb publishes), and a
// journaled database that answers the temporal queries in the paper —
// which route objects covered a prefix on a given day, when an object was
// created, and when it was removed.
package irr

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dropscope/internal/bgp"
	"dropscope/internal/netx"
	"dropscope/internal/timex"
)

// Attr is one RPSL attribute line.
type Attr struct {
	Name  string
	Value string
}

// Object is a generic RPSL object: a class (the first attribute's name)
// plus its attributes in order.
type Object struct {
	Attrs []Attr
}

// Class returns the object class — the name of the first attribute —
// e.g. "route", "mntner", "organisation".
func (o *Object) Class() string {
	if len(o.Attrs) == 0 {
		return ""
	}
	return o.Attrs[0].Name
}

// Key returns the object's primary key (the first attribute's value).
func (o *Object) Key() string {
	if len(o.Attrs) == 0 {
		return ""
	}
	return o.Attrs[0].Value
}

// Get returns the first value of the named attribute.
func (o *Object) Get(name string) (string, bool) {
	for _, a := range o.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// Add appends an attribute.
func (o *Object) Add(name, value string) {
	o.Attrs = append(o.Attrs, Attr{name, value})
}

// Route is the typed view of a route object, the record class the
// analysis uses.
type Route struct {
	Prefix  netx.Prefix
	Origin  bgp.ASN
	Descr   string
	MntBy   string
	OrgID   string
	Source  string
	Created timex.Day
	HasDate bool
}

// AsRoute interprets o as a route object.
func (o *Object) AsRoute() (Route, error) {
	if o.Class() != "route" {
		return Route{}, fmt.Errorf("irr: object class %q is not route", o.Class())
	}
	var r Route
	var err error
	r.Prefix, err = netx.ParsePrefix(o.Key())
	if err != nil {
		return Route{}, fmt.Errorf("irr: route key: %v", err)
	}
	os, ok := o.Get("origin")
	if !ok {
		return Route{}, fmt.Errorf("irr: route %s missing origin", r.Prefix)
	}
	asn, err := parseASN(os)
	if err != nil {
		return Route{}, err
	}
	r.Origin = asn
	r.Descr, _ = o.Get("descr")
	r.MntBy, _ = o.Get("mnt-by")
	r.OrgID, _ = o.Get("org")
	r.Source, _ = o.Get("source")
	if cs, ok := o.Get("created"); ok {
		if d, err := timex.ParseDay(cs); err == nil {
			r.Created, r.HasDate = d, true
		}
	}
	return r, nil
}

// Object converts r back into its RPSL form.
func (r Route) Object() *Object {
	o := &Object{}
	o.Add("route", r.Prefix.String())
	if r.Descr != "" {
		o.Add("descr", r.Descr)
	}
	o.Add("origin", r.Origin.String())
	if r.MntBy != "" {
		o.Add("mnt-by", r.MntBy)
	}
	if r.OrgID != "" {
		o.Add("org", r.OrgID)
	}
	if r.HasDate {
		o.Add("created", r.Created.String())
	}
	if r.Source != "" {
		o.Add("source", r.Source)
	}
	return o
}

func parseASN(s string) (bgp.ASN, error) {
	s = strings.TrimSpace(s)
	if len(s) < 3 || (s[0] != 'A' && s[0] != 'a') || (s[1] != 'S' && s[1] != 's') {
		return 0, fmt.Errorf("irr: malformed ASN %q", s)
	}
	n, err := strconv.ParseUint(s[2:], 10, 32)
	if err != nil {
		return 0, fmt.Errorf("irr: malformed ASN %q", s)
	}
	return bgp.ASN(n), nil
}

// Parse reads a stream of RPSL objects: "name: value" lines, '+' or
// whitespace continuation, '#' comments, blank-line separators. The
// first malformed line fails the parse; ParseJournalHealth quarantines
// a journal entry that fails it instead.
func Parse(r io.Reader) ([]*Object, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var objs []*Object
	var cur *Object
	lineNo := 0
	flush := func() {
		if cur != nil && len(cur.Attrs) > 0 {
			objs = append(objs, cur)
		}
		cur = nil
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			flush()
			continue
		}
		// Continuation: leading whitespace or '+'.
		if line[0] == ' ' || line[0] == '\t' || line[0] == '+' {
			if cur == nil || len(cur.Attrs) == 0 {
				return nil, fmt.Errorf("irr: line %d: continuation without attribute", lineNo)
			}
			last := &cur.Attrs[len(cur.Attrs)-1]
			last.Value += " " + strings.TrimSpace(strings.TrimPrefix(line, "+"))
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 {
			return nil, fmt.Errorf("irr: line %d: malformed attribute %q", lineNo, line)
		}
		name := strings.TrimSpace(line[:colon])
		if name == "" {
			return nil, fmt.Errorf("irr: line %d: empty attribute name", lineNo)
		}
		if cur == nil {
			cur = &Object{}
		}
		cur.Add(name, strings.TrimSpace(line[colon+1:]))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	return objs, nil
}

// Print writes objects in RPSL form, blank-line separated.
func Print(w io.Writer, objs []*Object) error {
	bw := bufio.NewWriter(w)
	for i, o := range objs {
		if i > 0 {
			if _, err := bw.WriteString("\n"); err != nil {
				return err
			}
		}
		for _, a := range o.Attrs {
			pad := 16 - len(a.Name) - 1
			if pad < 1 {
				pad = 1
			}
			if _, err := fmt.Fprintf(bw, "%s:%s%s\n", a.Name, strings.Repeat(" ", pad), a.Value); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Op distinguishes journal operations.
type Op uint8

// Journal operations.
const (
	OpAdd Op = iota
	OpDel
)

// Event is one journal entry: an object added to or removed from the
// registry on a given day.
type Event struct {
	Day    timex.Day
	Op     Op
	Object *Object
}

// DB is a journaled IRR database. Events must be appended in day order;
// queries then reconstruct the registry state at any day.
type DB struct {
	events  []Event
	routes  []routeEvent // the route-class events, parsed once at append
	lastDay timex.Day
}

// routeEvent is one journal entry of a route object that parses, in
// journal order.
type routeEvent struct {
	day   timex.Day
	op    Op
	route Route
}

// Add journals the creation of obj on day d.
func (db *DB) Add(d timex.Day, obj *Object) error { return db.append(Event{d, OpAdd, obj}) }

// Del journals the removal of obj (matched by class and key) on day d.
func (db *DB) Del(d timex.Day, obj *Object) error { return db.append(Event{d, OpDel, obj}) }

// append is the journal's single entry point. A route object that does
// not parse stays in the journal but is invisible to route queries; it
// is never an error here.
func (db *DB) append(e Event) error {
	if len(db.events) > 0 && e.Day < db.lastDay {
		return fmt.Errorf("irr: journal out of order: %v after %v", e.Day, db.lastDay)
	}
	db.events = append(db.events, e)
	db.lastDay = e.Day
	if e.Object.Class() == "route" {
		if r, err := e.Object.AsRoute(); err == nil {
			db.routes = append(db.routes, routeEvent{e.Day, e.Op, r})
		}
	}
	return nil
}

// Len returns the number of journal entries.
func (db *DB) Len() int { return len(db.events) }

// Events returns the journal (not a copy; treat as read-only).
func (db *DB) Events() []Event { return db.events }

// objectKey is the registry primary key. Route objects are keyed by
// (prefix, origin) — RPSL allows multiple route objects for one prefix
// with different origins; other classes are keyed by their first value.
func objectKey(o *Object) string {
	k := o.Class() + "\x00" + o.Key()
	if o.Class() == "route" {
		origin, _ := o.Get("origin")
		k += "\x00" + origin
	}
	return k
}

// SnapshotAt returns all objects live at the end of day d, in journal
// order of creation.
func (db *DB) SnapshotAt(d timex.Day) []*Object {
	type slot struct {
		obj *Object
		idx int
	}
	live := make(map[string]slot)
	for i, e := range db.events {
		if e.Day > d {
			break
		}
		k := objectKey(e.Object)
		switch e.Op {
		case OpAdd:
			live[k] = slot{e.Object, i}
		case OpDel:
			delete(live, k)
		}
	}
	out := make([]*Object, 0, len(live))
	idx := make(map[*Object]int, len(live))
	for _, s := range live {
		out = append(out, s.obj)
		idx[s.obj] = s.idx
	}
	sort.Slice(out, func(i, j int) bool { return idx[out[i]] < idx[out[j]] })
	return out
}

// RouteSpan describes one route object's lifetime in the registry.
type RouteSpan struct {
	Route      Route
	Created    timex.Day
	Removed    timex.Day // day the object was deleted; HasRemoved false if never
	HasRemoved bool
}

// RouteHistory returns the lifetime of every route object whose prefix
// equals p or is more specific than p, ordered by creation day (then
// prefix, origin and removal, so the order is total). This is the query
// behind the paper's §5 analysis ("exact match or a more specific
// prefix").
func (db *DB) RouteHistory(p netx.Prefix) []RouteSpan {
	type key struct {
		prefix netx.Prefix
		origin bgp.ASN
	}
	type open struct {
		r   Route
		day timex.Day
	}
	opens := make(map[key]open)
	var out []RouteSpan
	for _, e := range db.routes {
		if !p.Covers(e.route.Prefix) {
			continue
		}
		k := key{e.route.Prefix, e.route.Origin}
		switch e.op {
		case OpAdd:
			opens[k] = open{e.route, e.day}
		case OpDel:
			if o, ok := opens[k]; ok {
				out = append(out, RouteSpan{Route: o.r, Created: o.day, Removed: e.day, HasRemoved: true})
				delete(opens, k)
			}
		}
	}
	for _, o := range opens {
		out = append(out, RouteSpan{Route: o.r, Created: o.day})
	}
	// A total order: still-open objects arrive in map order, and one
	// prefix may hold several objects created the same day.
	slices.SortStableFunc(out, compareRouteSpans)
	return out
}

// compareRouteSpans orders by (Created, Prefix, Origin, HasRemoved,
// Removed). Two spans equal under it are closed lifetimes of one object
// and keep their journal order.
func compareRouteSpans(a, b RouteSpan) int {
	if a.Created != b.Created {
		return cmp.Compare(a.Created, b.Created)
	}
	if c := a.Route.Prefix.Compare(b.Route.Prefix); c != 0 {
		return c
	}
	if a.Route.Origin != b.Route.Origin {
		return cmp.Compare(a.Route.Origin, b.Route.Origin)
	}
	if a.HasRemoved != b.HasRemoved {
		if b.HasRemoved {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Removed, b.Removed)
}

// RoutesAt returns the route objects live at day d whose prefix equals p
// or is more specific.
func (db *DB) RoutesAt(p netx.Prefix, d timex.Day) []Route {
	var out []Route
	for _, o := range db.SnapshotAt(d) {
		if o.Class() != "route" {
			continue
		}
		r, err := o.AsRoute()
		if err == nil && p.Covers(r.Prefix) {
			out = append(out, r)
		}
	}
	return out
}
