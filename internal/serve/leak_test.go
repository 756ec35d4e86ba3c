package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"testing"
	"time"

	"dropscope/internal/ribsnap"
)

// settleGoroutines polls until the goroutine count is back within
// tolerance of the baseline, failing with a stack dump if it never
// settles — the leak signature this suite exists to catch.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	const tolerance = 3 // net/http background readers wind down lazily
	deadline := time.Now().Add(15 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+tolerance {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines never returned to baseline: %d now vs %d before\n%s",
				n, baseline, buf)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// drainRetired polls until every retired generation reaches refcount
// zero and refuses new pins with ErrClosed.
func drainRetired(t *testing.T, retired []*Generation) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i, g := range retired {
		for g.snap.Refs() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("retired generation %d still holds %d refs", i, g.snap.Refs())
			}
			time.Sleep(time.Millisecond)
		}
		if err := g.Acquire(); !errors.Is(err, ribsnap.ErrClosed) {
			t.Fatalf("retired generation %d: Acquire = %v, want ErrClosed", i, err)
		}
	}
}

// TestGenerationLifecycleLeak is the leak acceptance test: drive
// normal, panicking, and client-aborted requests over a real listener,
// across several generation swaps, and require that (a) every retired
// snapshot drains to refcount zero — no request path may leak a pin —
// and (b) the goroutine count returns to baseline once the server and
// clients shut down.
func TestGenerationLifecycleLeak(t *testing.T) {
	dirA, dirB, window := swapWorlds(t)
	baseline := runtime.NumGoroutine()

	srv := New(loadDir(t, dirA, window))
	m := Wrap(srv, MiddlewareConfig{timeout: 2 * time.Second})
	srv.testHook = func(r *http.Request) {
		switch r.URL.Path {
		case "/v1/panic":
			panic("leak test panic")
		case "/v1/stall":
			// Hangs until the client gives up: the aborted-request path.
			<-r.Context().Done()
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := NewHTTPServer(m, HTTPConfig{})
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	tr := &http.Transport{}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	get := func(path string, wantCode int) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantCode)
		}
	}
	abort := func(path string) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, "GET", base+path, nil)
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}

	const swapsWanted = 3
	var retired []*Generation
	for epoch := 0; epoch <= swapsWanted; epoch++ {
		ps := samples(srv.Generation())
		day := window.First.String()
		for i := 0; i < 20; i++ {
			get(fmt.Sprintf("/v1/visibility?prefix=%s&day=%s",
				escapePrefix(ps[i%len(ps)]), day), 200)
		}
		for i := 0; i < 3; i++ {
			get("/v1/panic", 500)
			abort("/v1/stall")
		}
		if epoch < swapsWanted {
			dir := dirB
			if epoch%2 == 1 {
				dir = dirA
			}
			retired = append(retired, srv.Swap(loadDir(t, dir, window)))
		}
	}
	if got := srv.Stats().Panics.Load(); got != 3*(swapsWanted+1) {
		t.Fatalf("panics counter %d, want %d", got, 3*(swapsWanted+1))
	}

	drainRetired(t, retired)

	// Tear everything down; the goroutine population must recover.
	httpSrv.Close()
	tr.CloseIdleConnections()
	settleGoroutines(t, baseline)
}
