package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is the run's process environment: where the checkout is, the one
// temp root everything is generated under, and the built binaries.
// Every child process is started through it so that close can stop
// whatever is still running on any exit path.
type env struct {
	ctx      context.Context
	benchDir string // directory holding this package's sources
	tmp      string // the one temp root, removed by close
	cli      string // built cmd/dropscope
	daemon   string // built cmd/dropscoped
	buildS   float64
	fp       fingerprint

	mu      sync.Mutex
	daemons map[*daemonProc]struct{}
}

// findBenchDir locates this package's source directory from the working
// directory: `go run .` and run.sh start inside it, `go run ./benchmark`
// style invocations start at the repository root.
func findBenchDir() (string, error) {
	for _, dir := range []string{".", "benchmark"} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(b, []byte("module dropscope/benchmark\n")) {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from benchmark/ (go.mod of module dropscope/benchmark not found)")
}

// newEnv creates the temp root inside the checkout's build directory
// and builds the two programs under test into it.
func newEnv(ctx context.Context) (*env, error) {
	benchDir, err := findBenchDir()
	if err != nil {
		return nil, err
	}
	buildRoot := filepath.Join(filepath.Dir(benchDir), ".bench_build")
	if err := os.MkdirAll(buildRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildRoot, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{ctx: ctx, benchDir: benchDir, tmp: tmp, daemons: map[*daemonProc]struct{}{}}
	// The binaries outlive the run: a second build of unchanged sources
	// finds them current and does not link again.
	bin := filepath.Join(buildRoot, "bin")
	t0 := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"dropscope/cmd/dropscope", "dropscope/cmd/dropscoped")
	cmd.Dir = benchDir
	cmd.Env = append(os.Environ(), "GOTMPDIR="+tmp)
	if out, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("go build of the programs under test: %v\n%s", err, out)
	}
	e.buildS = time.Since(t0).Seconds()
	e.cli = filepath.Join(bin, "dropscope")
	e.daemon = filepath.Join(bin, "dropscoped")
	return e, nil
}

// close stops every daemon still running, waits for it, and removes the
// temp root.
func (e *env) close() {
	e.mu.Lock()
	left := make([]*daemonProc, 0, len(e.daemons))
	for d := range e.daemons {
		left = append(left, d)
	}
	e.mu.Unlock()
	for _, d := range left {
		d.kill()
	}
	os.RemoveAll(e.tmp)
}

// dir returns (creating it) a fresh directory under the temp root.
func (e *env) dir(name string) (string, error) {
	p := filepath.Join(e.tmp, name)
	if err := os.RemoveAll(p); err != nil {
		return "", err
	}
	return p, os.MkdirAll(p, 0o755)
}

// cliResult is one finished run of the batch program.
type cliResult struct {
	wallS  float64
	rssMB  float64
	digest [32]byte // SHA-256 of the report on standard output
}

// runCLI runs cmd/dropscope to completion and digests its report.
// Wall time is exec to exit as the parent sees it.
func (e *env) runCLI(args ...string) (cliResult, error) {
	cmd := exec.CommandContext(e.ctx, e.cli, args...)
	var stderr bytes.Buffer
	h := sha256.New()
	cmd.Stdout = h
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return cliResult{}, fmt.Errorf("dropscope %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	res := cliResult{wallS: wall}
	h.Sum(res.digest[:0])
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// daemonProc is one running cmd/dropscoped child.
type daemonProc struct {
	e      *env
	cmd    *exec.Cmd
	base   string  // http://127.0.0.1:port
	bootS  float64 // exec -> first 200 on /healthz
	gen    string  // generation digest the first /healthz carried
	logs   *logTail
	exited chan struct{}
}

var servingRE = regexp.MustCompile(`serving on (http://[0-9.]+:[0-9]+)`)

// logTail keeps the daemon's log so a failure can show it.
type logTail struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logTail) add(line string) {
	l.mu.Lock()
	l.buf.WriteString(line)
	l.buf.WriteByte('\n')
	l.mu.Unlock()
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// startDaemon execs cmd/dropscoped on a kernel-chosen loopback port and
// waits for its first 200 on /healthz; the elapsed time is bootS. The
// port is read from the daemon's own "serving on" log line, so no
// polling interval quantises the measurement.
func (e *env) startDaemon(client *http.Client, args ...string) (*daemonProc, error) {
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	cmd := exec.Command(e.daemon, args...)
	cmd.Stdout = io.Discard
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemonProc{e: e, cmd: cmd, logs: &logTail{}, exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.daemons[d] = struct{}{}
	e.mu.Unlock()

	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logs.add(line)
			if m := servingRE.FindStringSubmatch(line); m != nil && !sent {
				sent = true
				addr <- m[1]
			}
		}
		cmd.Wait()
	}()

	select {
	case d.base = <-addr:
	case <-d.exited:
		d.forget()
		return nil, fmt.Errorf("dropscoped %s exited before serving:\n%s", strings.Join(args, " "), d.logs)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("dropscoped %s: not serving after 60s:\n%s", strings.Join(args, " "), d.logs)
	case <-e.ctx.Done():
		d.kill()
		return nil, e.ctx.Err()
	}
	resp, err := client.Get(d.base + "/healthz")
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("first /healthz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d.bootS = time.Since(t0).Seconds()
	if resp.StatusCode != http.StatusOK {
		d.kill()
		return nil, fmt.Errorf("first /healthz: status %d", resp.StatusCode)
	}
	d.gen = resp.Header.Get(generationHeader)
	return d, nil
}

const generationHeader = "X-Dropscope-Generation"

func (d *daemonProc) forget() {
	d.e.mu.Lock()
	delete(d.e.daemons, d)
	d.e.mu.Unlock()
}

// stop asks the daemon to drain (SIGTERM) and waits for it to exit.
func (d *daemonProc) stop() error {
	defer d.forget()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		return nil
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return errors.New("dropscoped did not exit within 15s of SIGTERM; killed")
	}
}

// kill stops the daemon at once and waits for it; for failure paths.
func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.forget()
}

// reload sends SIGHUP.
func (d *daemonProc) reload() error { return d.cmd.Process.Signal(syscall.SIGHUP) }

// peakRSSMB reads the daemon's high-water resident set (VmHWM).
func (d *daemonProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM not found in /proc/<pid>/status")
}

// storeState lists a snapshot store's entries with their sizes. A warm
// boot adopts the live generation and journals nothing, so the listing
// (the manifest journal's size included) is the same before and after;
// a boot that rebuilt cold wrote a generation and shows.
func storeState(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return "", err
		}
		size := info.Size()
		if e.IsDir() {
			size = 0 // a directory's own size is the filesystem's business
		}
		fmt.Fprintf(&b, "%s:%d ", e.Name(), size)
	}
	return b.String(), nil
}
