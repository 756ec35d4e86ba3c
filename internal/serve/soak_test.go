package serve

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropscope/internal/ingest/faultinject"
)

// chaosListener wraps every accepted connection with the next scheduled
// fault.
type chaosListener struct {
	net.Listener
	chaos *faultinject.Chaoser
}

func (l *chaosListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.chaos.Wrap(conn), nil
}

// TestChaosSoakServe is the serving-layer chaos soak: concurrent
// clients hammer the daemon through a listener that injects connection
// faults (resets, stalls, partial writes, read truncation), while
// generations swap underneath and deliberate panics fire. The
// invariants, checked continuously and at the end:
//
//   - every admitted (200) response is byte-identical to the
//     single-generation render of the generation that answered it;
//   - panicking requests answer 500, never kill the daemon;
//   - shed stays bounded — chaos must not collapse the gate;
//   - every retired generation drains to refcount zero;
//   - no goroutines leak once the soak winds down.
//
// Run under -race (scripts/check.sh race) this is the acceptance test
// for the whole robustness stack.
func TestChaosSoakServe(t *testing.T) {
	dirA, dirB, window := swapWorlds(t)
	baseline := runtime.NumGoroutine()

	refA := loadDir(t, dirA, window)
	refB := loadDir(t, dirB, window)
	ps := samples(refA)
	paths := []string{
		"/v1/visibility?prefix=" + escapePrefix(ps[0]) + "&day=" + window.First.String(),
		"/v1/visibility?prefix=" + escapePrefix(ps[len(ps)/2]) + "&day=" + window.Last.String(),
		"/v1/rov?prefix=" + escapePrefix(ps[1]) + "&origin=64500&day=" + window.Last.String(),
		"/v1/rov?prefix=" + escapePrefix(ps[2]) + "&origin=0&day=" + window.First.String(),
		"/v1/drop?prefix=" + escapePrefix(ps[3]) + "&day=" + window.Last.String(),
		"/v1/figures/" + window.Last.String(),
	}
	expect := map[string]map[string][]byte{
		refA.DigestHex(): make(map[string][]byte),
		refB.DigestHex(): make(map[string][]byte),
	}
	for _, p := range paths {
		expect[refA.DigestHex()][p] = render(t, refA, p)
		expect[refB.DigestHex()][p] = render(t, refB, p)
	}

	srv := New(loadDir(t, dirA, window))
	m := Wrap(srv, MiddlewareConfig{
		Gate: GateConfig{MaxInflight: 4, maxQueue: 8, wait: 200 * time.Millisecond},
	})
	srv.testHook = func(r *http.Request) {
		if r.URL.Path == "/v1/panic" {
			panic("soak panic")
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	chaos := faultinject.NewChaoser(0x50a7, faultinject.ChaosConfig{
		MinBytes: 64, MaxBytes: 4096, Stall: 5 * time.Millisecond,
	}, 48)
	httpSrv := NewHTTPServer(m, HTTPConfig{})
	go httpSrv.Serve(&chaosListener{Listener: ln, chaos: chaos})
	base := "http://" + ln.Addr().String()

	const (
		clients = 8
		soakFor = 1500 * time.Millisecond
		swaps   = 6
	)
	// Preload the swap sequence so the soak wall clock races swaps, not
	// archive loads.
	nexts := make([]*Generation, swaps)
	for i := range nexts {
		dir := dirB
		if i%2 == 1 {
			dir = dirA
		}
		nexts[i] = loadDir(t, dir, window)
	}

	var (
		served     atomic.Uint64 // 200, byte-verified
		shed       atomic.Uint64 // 503
		panicked   atomic.Uint64 // 500 from the panic path
		chaosErrs  atomic.Uint64 // transport-level failures (injected faults)
		mismatches atomic.Uint64
		wg         sync.WaitGroup
	)
	deadline := time.Now().Add(soakFor)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 5 * time.Second}
			for n := c; time.Now().Before(deadline); n++ {
				path := paths[n%len(paths)]
				if n%37 == 0 {
					path = "/v1/panic"
				}
				resp, err := client.Get(base + path)
				if err != nil {
					chaosErrs.Add(1)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					chaosErrs.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					gen := resp.Header.Get(generationHeader)
					want, ok := expect[gen][path]
					if !ok {
						t.Errorf("response from unknown generation %q", gen)
						mismatches.Add(1)
						continue
					}
					if !bytes.Equal(body, want) {
						t.Errorf("%s from %s: body differs from single-generation render\ngot:  %s\nwant: %s",
							path, gen[:12], body, want)
						mismatches.Add(1)
						continue
					}
					served.Add(1)
				case http.StatusServiceUnavailable:
					shed.Add(1)
				case http.StatusInternalServerError:
					if path != "/v1/panic" {
						t.Errorf("unexpected 500 for %s: %s", path, body)
					}
					panicked.Add(1)
				default:
					t.Errorf("GET %s: status %d: %s", path, resp.StatusCode, body)
				}
			}
		}(c)
	}

	retired := make([]*Generation, 0, swaps)
	for _, next := range nexts {
		time.Sleep(soakFor / (swaps + 1))
		retired = append(retired, srv.Swap(next))
	}
	wg.Wait()

	total := served.Load() + shed.Load() + panicked.Load() + chaosErrs.Load()
	t.Logf("soak: %d total — %d served, %d shed, %d panicked, %d chaos faults (injector wrapped %d conns)",
		total, served.Load(), shed.Load(), panicked.Load(), chaosErrs.Load(), chaos.Injected())
	if served.Load() == 0 {
		t.Fatal("soak served nothing")
	}
	if mismatches.Load() != 0 {
		t.Fatalf("%d byte-identity violations", mismatches.Load())
	}
	if chaos.Injected() == 0 {
		t.Fatal("chaos injected nothing; the soak exercised no faults")
	}
	// Bounded shed: with 8 clients against 4+8 slots and microsecond
	// handlers, admission pressure exists but must not dominate.
	if rate := float64(shed.Load()) / float64(total); rate > 0.5 {
		t.Fatalf("shed rate %.2f exceeds bound 0.5", rate)
	}
	if panicked.Load() == 0 {
		t.Fatal("panic path never exercised")
	}

	drainRetired(t, retired)

	httpSrv.Close()
	settleGoroutines(t, baseline)
}
