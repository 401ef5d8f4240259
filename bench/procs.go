package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

	"surfknn/internal/server/api"
)

// buildDir holds what the benchmark compiles, relative to the repo root.
// The name is the one the benchmark driver reserves for build outputs.
const buildDir = ".bench_build"

// outDir holds what a run leaves for a reader: server logs, trace files,
// result files. Per-run snapshots live in a subdirectory removed at exit.
const outDir = "bench/out"

// buildBinaries compiles the real skgen, skserve and skcoord from the
// checkout at root and returns the directory they were written to.
func buildBinaries(ctx context.Context, root string) (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(root, buildDir, "bin"))
	if err != nil {
		return "", 0, fmt.Errorf("resolving build directory: %w", err)
	}
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", 0, fmt.Errorf("creating build directory: %w", err)
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(os.PathSeparator),
		"./cmd/skgen", "./cmd/skserve", "./cmd/skcoord")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// proc is one server child process.
type proc struct {
	name string // "skserve" or "skcoord"
	cmd  *exec.Cmd
	log  string // path of its combined stdout+stderr
	addr string // host:port scraped from the announce line
	// loadS is exec → first healthy /v1/healthz: the snapshot load as an
	// operator sees it.
	loadS float64
	done  chan struct{} // closed when the process has been waited for
	exit  error         // what Wait returned; read after done is closed
}

// procSet owns every child of one run, so that any exit path — success,
// failed op, signal — stops them all and waits for each.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

var announceRE = regexp.MustCompile(`(?m)^# sk(?:serve|coord) listening on (\S+)\n`)

// start launches a server binary, waits for its announce line and then for
// /v1/healthz to answer OK.
func (ps *procSet) start(ctx context.Context, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("creating server log: %w", err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	started := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	logf.Close() // the child holds its own descriptor
	p := &proc{name: filepath.Base(bin), cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		p.exit = cmd.Wait()
		close(p.done)
	}()
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()

	deadline := time.Now().Add(60 * time.Second)
	for p.addr == "" {
		b, err := os.ReadFile(logPath)
		if err != nil {
			return nil, fmt.Errorf("reading server log: %w", err)
		}
		if m := announceRE.FindSubmatch(b); m != nil {
			p.addr = string(m[1])
			break
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before listening:\n%s", p.name, b)
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s did not announce an address within 60s:\n%s", p.name, b)
		}
	}
	for {
		var h api.Healthz
		if err := getJSON(ctx, "http://"+p.addr+"/v1/healthz", &h); err == nil && h.Status == "ok" {
			break
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before becoming healthy (see %s)", p.name, logPath)
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s not healthy within 60s (see %s)", p.name, logPath)
		}
	}
	p.loadS = time.Since(started).Seconds()
	return p, nil
}

// stopAll sends SIGTERM to every live child, waits for each to exit, and
// reports children that had to be killed or did not log a clean "# bye".
func (ps *procSet) stopAll() error {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	// Front processes (started last) go first so a coordinator drains
	// before its shards disappear.
	var errs []error
	for i := len(procs) - 1; i >= 0; i-- {
		p := procs[i]
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			<-p.done // the only way to fail: it has exited already
			errs = append(errs, fmt.Errorf("%s exited on its own (see %s): %w", p.name, p.log, err))
			continue
		}
		select {
		case <-p.done:
		case <-time.After(20 * time.Second):
			if err := p.cmd.Process.Kill(); err != nil {
				errs = append(errs, fmt.Errorf("killing %s: %w", p.name, err))
			}
			<-p.done
			errs = append(errs, fmt.Errorf("%s ignored SIGTERM and was killed (see %s)", p.name, p.log))
			continue
		}
		b, err := os.ReadFile(p.log)
		switch {
		case p.exit != nil:
			errs = append(errs, fmt.Errorf("%s exited uncleanly (see %s): %w", p.name, p.log, p.exit))
		case err != nil:
			errs = append(errs, fmt.Errorf("reading %s log: %w", p.name, err))
		case !bytes.Contains(b, []byte("# bye")):
			errs = append(errs, fmt.Errorf("%s exited without its \"# bye\" (see %s)", p.name, p.log))
		}
	}
	return errors.Join(errs...)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading %s memory: %w", p.name, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line for %s", p.name)
}

var plainHTTP = &http.Client{Timeout: 30 * time.Second}

// getJSON fetches url and decodes the 200 body into out.
func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("building request: %w", err)
	}
	resp, err := plainHTTP.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}
