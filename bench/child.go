package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes goes, relative to
// the module root: the adjserve binary, per-run scratch (input files,
// data directories) and trace files. It is in .gitignore, and it is the
// directory the driver points CARGO_TARGET_DIR-style build output at,
// so a run reads and writes only inside its checkout.
const buildDir = ".bench_build"

const (
	readyTimeout = 60 * time.Second
	stopTimeout  = 60 * time.Second
)

// workspace owns every side effect of a run: the scratch directory and
// the child processes. cleanup undoes all of them and is safe to call
// from the signal handler while a run is in flight.
type workspace struct {
	root     string // module root
	scratch  string // buildDir/run-*
	adjserve string // built binary

	mu       sync.Mutex
	children []*child
}

// moduleRoot walks up from the working directory to the go.mod of
// module adjarray.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(raw)), "module adjarray") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: not inside the adjarray module (no go.mod found)")
		}
		dir = parent
	}
}

// newWorkspace makes the run's scratch directory under base; an empty
// base means buildDir in the module root (tests pass a temporary
// directory, so go test leaves nothing in the checkout).
func newWorkspace(base string) (*workspace, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	if base == "" {
		base = filepath.Join(root, buildDir)
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &workspace{root: root, scratch: scratch}, nil
}

// buildAdjserve compiles ./cmd/adjserve once per run into the scratch
// directory and reports how long that took (bench.build_s: never part
// of setup_s).
func (w *workspace) buildAdjserve() (time.Duration, error) {
	start := time.Now()
	w.adjserve = filepath.Join(w.scratch, "adjserve")
	cmd := exec.Command("go", "build", "-o", w.adjserve, "./cmd/adjserve")
	cmd.Dir = w.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("bench: go build ./cmd/adjserve: %w\n%s", err, out)
	}
	return time.Since(start), nil
}

// tempDir makes a fresh directory under the scratch directory.
func (w *workspace) tempDir(pattern string) (string, error) {
	return os.MkdirTemp(w.scratch, pattern)
}

// cleanup kills every child still running and removes the scratch
// directory.
func (w *workspace) cleanup() {
	w.mu.Lock()
	children := w.children
	w.children = nil
	w.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	os.RemoveAll(w.scratch)
}

// child is one adjserve incarnation.
type child struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	stderr  *lockedBuffer
	started time.Time
	exited  chan struct{} // closed once Wait has returned
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start execs adjserve with the given flags plus -serve on a free
// loopback port, at GOMAXPROCS=2 whatever the machine has.
func (w *workspace) start(flags ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	c := &child{base: "http://" + addr, stderr: &lockedBuffer{}, exited: make(chan struct{})}
	c.cmd = exec.Command(w.adjserve, append(flags, "-serve", addr)...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	c.cmd.Stderr = c.stderr
	c.started = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.cmd.Wait() //nolint:errcheck // the exit state is read from ProcessState
		close(c.exited)
	}()
	w.mu.Lock()
	w.children = append(w.children, c)
	w.mu.Unlock()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// failure wraps err with the child's captured stderr, which is where
// adjserve says why it gave up.
func (c *child) failure(err error) error {
	return fmt.Errorf("%w\n--- adjserve stderr ---\n%s", err, c.stderr.String())
}

// waitReady polls /stats until it answers 200 with at least wantEdges
// edges, and returns the time since exec.
func (c *child) waitReady(wantEdges int) (time.Duration, error) {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := c.started.Add(readyTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-c.exited:
			return 0, c.failure(errors.New("bench: adjserve exited before it was ready"))
		default:
		}
		if edges, err := statsEdges(client, c.base); err == nil && edges >= wantEdges {
			return time.Since(c.started), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, c.failure(fmt.Errorf("bench: adjserve not ready after %v", readyTimeout))
}

// statsEdges reads the Edges counter of GET /stats (the single-view and
// the sharded stats both have one).
func statsEdges(client *http.Client, base string) (int, error) {
	resp, err := client.Get(base + "/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/stats: %s", resp.Status)
	}
	var st struct{ Edges int }
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.Edges, nil
}

// usage reads the child's CPU time and peak resident set while it is
// still alive.
func (c *child) usage() (cpu time.Duration, peakMB float64, err error) {
	if cpu, err = procCPU(c.pid()); err != nil {
		return 0, 0, err
	}
	peakMB, err = procPeakRSS(c.pid())
	return cpu, peakMB, err
}

// stop sends sig and waits for the process to end, returning how long
// that took. A child that ignores the signal is killed.
func (c *child) stop(sig syscall.Signal) (time.Duration, error) {
	start := time.Now()
	if err := c.cmd.Process.Signal(sig); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	select {
	case <-c.exited:
	case <-time.After(stopTimeout):
		c.kill()
		return 0, c.failure(fmt.Errorf("bench: adjserve still running %v after signal %v", stopTimeout, sig))
	}
	if sig == syscall.SIGTERM && !c.cmd.ProcessState.Success() {
		return 0, c.failure(fmt.Errorf("bench: adjserve shut down with %v", c.cmd.ProcessState))
	}
	return time.Since(start), nil
}

func (c *child) kill() {
	c.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-c.exited
}

// scrape reads GET /metrics and sums each metric family over its label
// sets.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}
