package serve

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHTTPConfigDefaults pins the timeout policy: the daemon's server
// sets all four timeouts to their documented values.
func TestHTTPConfigDefaults(t *testing.T) {
	s := NewHTTPServer(http.NotFoundHandler(), HTTPConfig{})
	if s.ReadHeaderTimeout != 5*time.Second || s.ReadTimeout != 30*time.Second ||
		s.WriteTimeout != 30*time.Second || s.IdleTimeout != 120*time.Second {
		t.Fatalf("defaults: %v/%v/%v/%v",
			s.ReadHeaderTimeout, s.ReadTimeout, s.WriteTimeout, s.IdleTimeout)
	}
}

// TestSlowlorisCut is the slowloris-resistance check: a client that
// opens a connection and dribbles (or never finishes) its request
// headers is cut at ReadHeaderTimeout — the connection reads EOF well
// inside the test bound instead of pinning a goroutine forever.
func TestSlowlorisCut(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(200)
	}), HTTPConfig{readHeader: 150 * time.Millisecond})
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request: a request line, one header, never the final CRLF.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: x\r\nX-Slow:")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	t0 := time.Now()
	_, rerr := io.ReadAll(conn)
	elapsed := time.Since(t0)
	if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server never closed the half-open connection (read timed out after %v)", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("connection held %v; ReadHeaderTimeout is 150ms", elapsed)
	}

	// A well-formed request on a fresh connection still works.
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Write([]byte("GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := io.ReadAll(conn2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) == 0 {
		t.Fatal("no response to a well-formed request")
	}
}
