package serve

import (
	"net/http"
	"time"
)

// The four http.Server timeouts the daemon never runs without.
const (
	// readHeaderTimeout bounds how long a client may dribble request
	// headers — the classic slowloris hold.
	readHeaderTimeout = 5 * time.Second
	// readTimeout bounds the whole request read.
	readTimeout = 30 * time.Second
	// writeTimeout bounds the whole response write, and is the backstop
	// deadline for every handler.
	writeTimeout = 30 * time.Second
	// idleTimeout bounds how long a keep-alive connection may sit
	// between requests.
	idleTimeout = 120 * time.Second
)

// HTTPConfig parameterizes NewHTTPServer. The zero value is the
// daemon's: every timeout at its constant.
type HTTPConfig struct {
	// readHeader overrides readHeaderTimeout; the slowloris test
	// shortens it.
	readHeader time.Duration
}

// NewHTTPServer returns an http.Server over h with every timeout set.
// The bare &http.Server{Handler: h} construction is banned from the
// daemon: without ReadHeaderTimeout a single adversarial client holding
// its request open pins a connection (and its goroutine) forever.
func NewHTTPServer(h http.Handler, cfg HTTPConfig) *http.Server {
	if cfg.readHeader <= 0 {
		cfg.readHeader = readHeaderTimeout
	}
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: cfg.readHeader,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}
