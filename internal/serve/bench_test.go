package serve

import (
	"net/http"
	"net/url"
	"testing"
)

// BenchmarkServe measures the point-query handlers through ServeHTTP —
// routing, raw-query parsing, the index/table lookups, and JSON
// encoding — on a reusable writer, i.e. the work the daemon does per
// request beyond net/http's connection handling. The point-query
// sub-benchmarks must report 0 allocs/op (TestPointHandlerAllocs
// enforces it).
func BenchmarkServe(b *testing.B) {
	g := loadGen(b)
	s := New(g)
	ps := samples(g)
	p := escapePrefix(ps[len(ps)/2])
	day := g.window.Last.String()

	cases := []struct {
		name string
		path string
	}{
		{"visibility", "/v1/visibility?prefix=" + p + "&day=" + day},
		{"rov", "/v1/rov?prefix=" + p + "&day=" + day + "&origin=64500"},
		{"drop", "/v1/drop?prefix=" + p + "&day=" + day},
		{"healthz", "/healthz"},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			u, err := url.Parse(c.path)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				req := &http.Request{Method: http.MethodGet, URL: u}
				w := &nullWriter{header: make(http.Header)}
				for pb.Next() {
					s.ServeHTTP(w, req)
				}
			})
		})
	}
}
