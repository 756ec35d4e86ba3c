package serve

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dropscope/internal/ribsnap"
	"dropscope/internal/timex"
)

// swapWorlds builds two archive directories with different seeds — two
// distinct generations with distinct digests — and returns them with
// the shared window. Snapshot persistence is enabled so reloads of the
// same directory warm-start (the daemon's SIGHUP path).
func swapWorlds(t *testing.T) (dirA, dirB string, window timex.Range) {
	t.Helper()
	dirA, window = writeWorld(t, 1)
	dirB, windowB := writeWorld(t, 2)
	if window != windowB {
		t.Fatal("windows differ")
	}
	return dirA, dirB, window
}

func loadDir(t *testing.T, dir string, window timex.Range) *Generation {
	t.Helper()
	store, err := ribsnap.OpenStore(dir+"/ribsnap", ribsnap.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Load(dir, LoadOptions{Window: window, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// render answers one query on a dedicated single-generation server —
// the reference bytes a hammered response must match exactly.
func render(t *testing.T, g *Generation, path string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	New(g).ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if w.Code != 200 {
		t.Fatalf("render %s: status %d: %s", path, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// TestSwapUnderLoad is the generation-swap acceptance test: N
// goroutines hammer the point queries while the main goroutine swaps
// generations M times. Every response must be 200, byte-identical to
// that generation's single-generation render (no torn reads, no mixed
// generations), and every retired mapping must drain: once its last
// reader exits, Acquire fails with ribsnap.ErrClosed. Run with -race
// this also proves the swap protocol race-free.
func TestSwapUnderLoad(t *testing.T) {
	dirA, dirB, window := swapWorlds(t)

	// Reference generations, never swapped: expected bytes per digest.
	refA := loadDir(t, dirA, window)
	refB := loadDir(t, dirB, window)
	if refA.DigestHex() == refB.DigestHex() {
		t.Fatal("worlds share a digest; swap would be invisible")
	}

	ps := samples(refA)
	paths := []string{
		"/v1/visibility?prefix=" + escapePrefix(ps[0]) + "&day=" + window.First.String(),
		"/v1/visibility?prefix=" + escapePrefix(ps[len(ps)/2]) + "&day=" + window.Last.String(),
		"/v1/rov?prefix=" + escapePrefix(ps[1]) + "&origin=64500&day=" + window.Last.String(),
		"/v1/rov?prefix=" + escapePrefix(ps[2]) + "&origin=0&day=" + window.First.String(),
		"/v1/drop?prefix=" + escapePrefix(ps[3]) + "&day=" + window.Last.String(),
	}
	expect := map[string]map[string][]byte{
		refA.DigestHex(): make(map[string][]byte),
		refB.DigestHex(): make(map[string][]byte),
	}
	for _, p := range paths {
		expect[refA.DigestHex()][p] = render(t, refA, p)
		expect[refB.DigestHex()][p] = render(t, refB, p)
	}

	first := loadDir(t, dirA, window)
	s := New(first)

	const hammerers = 8
	const swapsWanted = 6
	// Load every incoming generation up front: the hammer should spend
	// its wall clock racing swaps, not waiting on archive loads.
	nexts := make([]*Generation, swapsWanted)
	for i := range nexts {
		dir := dirB
		if i%2 == 1 {
			dir = dirA
		}
		nexts[i] = loadDir(t, dir, window)
	}
	var (
		stop    atomic.Bool
		served  atomic.Uint64
		dropped atomic.Uint64
		wg      sync.WaitGroup
	)
	for i := 0; i < hammerers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				path := paths[(i+n)%len(paths)]
				w := httptest.NewRecorder()
				s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
				if w.Code != 200 {
					dropped.Add(1)
					t.Errorf("hammer: %s -> %d: %s", path, w.Code, w.Body.String())
					continue
				}
				gen := w.Header().Get("X-Dropscope-Generation")
				want, ok := expect[gen][path]
				if !ok {
					t.Errorf("hammer: response from unknown generation %q", gen)
					continue
				}
				if !bytes.Equal(w.Body.Bytes(), want) {
					t.Errorf("hammer: %s from generation %s: body differs from single-generation render\ngot:  %s\nwant: %s",
						path, gen[:12], w.Body.String(), want)
				}
				served.Add(1)
			}
		}(i)
	}

	// Swap back and forth between the two worlds while the hammer runs,
	// pausing between swaps so each generation serves real traffic.
	retired := make([]*Generation, 0, swapsWanted)
	for _, next := range nexts {
		time.Sleep(20 * time.Millisecond)
		retired = append(retired, s.Swap(next))
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if dropped.Load() != 0 {
		t.Fatalf("%d queries dropped across %d swaps", dropped.Load(), swapsWanted)
	}
	if served.Load() == 0 {
		t.Fatal("hammer served nothing")
	}
	if s.Swaps() != swapsWanted {
		t.Fatalf("swap count %d, want %d", s.Swaps(), swapsWanted)
	}
	// Every retired generation has drained: late acquires must see the
	// typed close error, and the live one must still acquire.
	for i, g := range retired {
		if err := g.Acquire(); !errors.Is(err, ribsnap.ErrClosed) {
			t.Fatalf("retired generation %d: Acquire = %v, want ErrClosed", i, err)
		}
	}
	live := s.Generation()
	if err := live.Acquire(); err != nil {
		t.Fatalf("live generation: %v", err)
	}
	live.Release()
}

// TestSwapPostStateByteIdentical pins the acceptance criterion that a
// post-swap response is byte-identical to a cold render of the new
// snapshot: swap in world B, then compare every point query against a
// server built directly over a cold load of B. A figures day answered
// on A before the swap must answer with B's figures after it.
func TestSwapPostStateByteIdentical(t *testing.T) {
	dirA, dirB, window := swapWorlds(t)
	s := New(loadDir(t, dirA, window))
	figures := "/v1/figures/" + window.Last.String()
	if w := get(t, s, figures); w.Code != 200 {
		t.Fatalf("%s on A: status %d", figures, w.Code)
	}
	s.Swap(loadDir(t, dirB, window))

	cold, err := Load(dirB, LoadOptions{Window: window}) // no snapshot: forced cold build
	if err != nil {
		t.Fatal(err)
	}
	if cold.DigestHex() != s.Generation().DigestHex() {
		t.Fatal("cold load and swapped generation disagree on digest")
	}
	for _, p := range samples(cold)[:32] {
		for _, path := range []string{
			"/v1/visibility?prefix=" + escapePrefix(p) + "&day=" + window.Last.String(),
			"/v1/rov?prefix=" + escapePrefix(p) + "&origin=64500",
			"/v1/drop?prefix=" + escapePrefix(p),
		} {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
			if want := render(t, cold, path); !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("%s: swapped render differs from cold render\ngot:  %s\nwant: %s",
					path, w.Body.String(), want)
			}
		}
	}
	w := get(t, s, figures)
	want := cold.appendGeneration(appendFigures(nil, cold.Pipeline().FigureDay(window.Last)))
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("%s: answered from the retired generation\ngot:  %s\nwant: %s", figures, w.Body.String(), want)
	}
	if h := w.Header().Get(generationHeader); h != cold.DigestHex() {
		t.Fatalf("%s: generation header %s, want %s", figures, h, cold.DigestHex())
	}
}
