package surfknn_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/server/api"
	"surfknn/internal/server/client"
)

// TestCLITools builds the four command-line tools and drives them end to
// end: generate a terrain, view it, export a mesh, answer queries with every
// algorithm, and regenerate a figure with CSV output.
func TestCLITools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, tool := range []string{"skgen", "skquery", "skbench", "skview"} {
		bin := filepath.Join(dir, tool)
		out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		bins[tool] = bin
	}
	run := func(tool string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bins[tool], args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", tool, strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	// skgen: generate a small terrain file with stats.
	demPath := filepath.Join(dir, "t.sdem")
	out := run("skgen", "-preset", "EP", "-size", "16", "-cell", "100", "-o", demPath, "-info")
	if !strings.Contains(out, "17x17 samples") || !strings.Contains(out, "roughness") {
		t.Errorf("skgen output:\n%s", out)
	}
	if _, err := os.Stat(demPath); err != nil {
		t.Fatalf("terrain file missing: %v", err)
	}

	// skview: render the generated file and export an OBJ at 25% LOD.
	out = run("skview", "-dem", demPath, "-width", "24")
	if !strings.Contains(out, "km") {
		t.Errorf("skview output:\n%s", out)
	}
	objPath := filepath.Join(dir, "t.obj")
	out = run("skview", "-dem", demPath, "-obj", objPath, "-res", "0.25")
	if !strings.Contains(out, "25.0% resolution") {
		t.Errorf("skview obj output:\n%s", out)
	}
	objData, err := os.ReadFile(objPath)
	if err != nil || !strings.HasPrefix(string(objData), "# surfknn mesh") {
		t.Errorf("obj export broken: %v", err)
	}

	// skquery: every algorithm on the generated terrain.
	for _, algo := range []string{"mr3", "ea", "brute", "range", "masked"} {
		out = run("skquery", "-dem", demPath, "-objects", "25", "-k", "3", "-algo", algo, "-slope", "89")
		if !strings.Contains(out, "object") {
			t.Errorf("skquery %s output:\n%s", algo, out)
		}
	}

	// skbench: one small figure with CSV output.
	csvDir := filepath.Join(dir, "csv")
	out = run("skbench", "-fig", "1", "-size", "16", "-csv", csvDir)
	if !strings.Contains(out, "fig1") || !strings.Contains(out, "completed") {
		t.Errorf("skbench output:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(csvDir, "fig1.csv")); err != nil {
		t.Errorf("csv missing: %v", err)
	}
}

// TestCLIFlagErrors pins the operator contract: a typo'd flag exits
// non-zero with one diagnosable line, never a screenful of usage; -h still
// prints the full flag dump and exits zero.
func TestCLIFlagErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	for _, tool := range []string{"skquery", "skserve", "skcoord"} {
		bin := filepath.Join(dir, tool)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		out, err := exec.Command(bin, "-no-such-flag").CombinedOutput()
		if err == nil {
			t.Errorf("%s -no-such-flag exited zero", tool)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(lines) != 1 || !strings.Contains(lines[0], "-no-such-flag") {
			t.Errorf("%s unknown-flag output is not one line:\n%s", tool, out)
		}
		out, err = exec.Command(bin, "-h").CombinedOutput()
		if err != nil {
			t.Errorf("%s -h exited non-zero: %v", tool, err)
		}
		if !strings.Contains(string(out), "flags:") {
			t.Errorf("%s -h did not print usage:\n%s", tool, out)
		}
	}

	// skserve with no terrain at all must also fail with one clear line.
	out, err := exec.Command(filepath.Join(dir, "skserve")).CombinedOutput()
	if err == nil {
		t.Error("skserve with no terrain exited zero")
	}
	if !strings.Contains(string(out), "-snapshot") {
		t.Errorf("skserve no-terrain error unhelpful:\n%s", out)
	}

	// A negative pool size is a one-line error from the library, not a panic.
	demPath := filepath.Join(dir, "t.sdem")
	if err := dem.Synthesize(dem.EP, 8, 100, 1).WriteFile(demPath); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(filepath.Join(dir, "skserve"), "-dem", demPath, "-pool-pages", "-1").CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Errorf("skserve -pool-pages -1: %v, want exit status 1", err)
	}
	if lines := strings.Split(strings.TrimSpace(string(out)), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "-1 pages") {
		t.Errorf("skserve -pool-pages -1 output is not one line naming the size:\n%s", out)
	}

	// An unknown schedule is a one-line error locally too, as it is a 400
	// from a server: never a silent fall back to S1.
	out, err = exec.Command(filepath.Join(dir, "skquery"), "-dem", demPath, "-sched", "7").CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Errorf("skquery -sched 7: %v, want exit status 1", err)
	}
	if lines := strings.Split(strings.TrimSpace(string(out)), "\n"); len(lines) != 1 || !strings.Contains(lines[0], "-sched 7") {
		t.Errorf("skquery -sched 7 output is not one line naming the flag:\n%s", out)
	}

	// Likewise skcoord with no manifest.
	out, err = exec.Command(filepath.Join(dir, "skcoord")).CombinedOutput()
	if err == nil {
		t.Error("skcoord with no manifest exited zero")
	}
	if !strings.Contains(string(out), "-manifest") {
		t.Errorf("skcoord no-manifest error unhelpful:\n%s", out)
	}
}

// scanBuffer collects the server's stdout lines behind a mutex: the
// scanner goroutine keeps writing until the process exits, while the test
// reads the accumulated output after shutdown — without the lock those two
// touch the same buffer with no happens-before edge.
type scanBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *scanBuffer) appendLine(line string) {
	s.mu.Lock()
	s.b.WriteString(line)
	s.b.WriteByte('\n')
	s.mu.Unlock()
}

func (s *scanBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startSkserve launches the binary and scrapes the announce line for the
// bound address. The returned cleanup kills the process if it is still up.
func startSkserve(t *testing.T, bin string, args ...string) (*exec.Cmd, string, *scanBuffer) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	})

	output := &scanBuffer{}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			output.appendLine(line)
			if a, ok := strings.CutPrefix(line, "# skserve listening on "); ok {
				addrCh <- a
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr, output
	case <-time.After(30 * time.Second):
		t.Fatalf("skserve never announced its address\nstderr: %s", stderr.String())
		return nil, "", nil
	}
}

// TestSkserveEndToEnd is the serving-layer acceptance test: build the real
// binaries, snapshot a terrain with skgen -db, serve it with skserve, and
// verify over live HTTP that (a) concurrent responses are bit-identical to
// calling TerrainDB.MR3 directly on the same snapshot, (b) a saturated
// server sheds with 429 rather than hanging, and (c) SIGTERM drains and
// exits cleanly.
func TestSkserveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, tool := range []string{"skgen", "skserve"} {
		bin := filepath.Join(dir, tool)
		if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+tool).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
		bins[tool] = bin
	}

	// skgen -db: one artifact carries mesh, indexes and objects.
	snap := filepath.Join(dir, "ep.skdb")
	out, err := exec.Command(bins["skgen"], "-preset", "EP", "-size", "16", "-cell", "100",
		"-o", filepath.Join(dir, "ep.sdem"), "-db", snap, "-db-objects", "30").CombinedOutput()
	if err != nil {
		t.Fatalf("skgen -db: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "TerrainDB snapshot with 30 objects") {
		t.Fatalf("skgen -db output:\n%s", out)
	}

	// The reference answer, computed directly on the same snapshot.
	db, err := core.LoadFile(snap, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.SurfacePointAt(geom.Vec2{X: 800, Y: 800})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.NewSession().MR3Ctx(context.Background(), q, 5, core.S1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cmd, addr, output := startSkserve(t, bins["skserve"], "-snapshot", snap, "-addr", "127.0.0.1:0")
	base := "http://" + addr

	// Concurrent queries through the typed client: every answer must match
	// the direct answer exactly, and the X-Epoch header must carry the
	// snapshot's epoch.
	cli := client.New(base)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*4)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				got, meta, err := cli.KNN(context.Background(), api.KNNRequest{X: 800, Y: 800, K: 5})
				if err != nil {
					errs <- err
					return
				}
				if meta.Epoch != db.CurrentEpoch() {
					errs <- fmt.Errorf("X-Epoch %d, snapshot at %d", meta.Epoch, db.CurrentEpoch())
				}
				if len(got.Neighbors) != len(direct.Neighbors) {
					errs <- fmt.Errorf("knn returned %d neighbors, direct MR3 %d",
						len(got.Neighbors), len(direct.Neighbors))
					continue
				}
				for i, n := range direct.Neighbors {
					h := got.Neighbors[i]
					if h.ID != n.Object.ID ||
						math.Float64bits(float64(h.LB)) != math.Float64bits(n.LB) ||
						math.Float64bits(float64(h.UB)) != math.Float64bits(n.UB) {
						errs <- fmt.Errorf("neighbor %d diverged from direct MR3", i)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The serving-layer metric group must be live on /debug/vars.
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(vars, []byte(`"surfknn_server"`)) {
		t.Error("/debug/vars missing the surfknn_server group")
	}

	// SIGTERM must drain and exit zero with the shutdown banner.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("skserve exited non-zero after SIGTERM: %v", err)
	}
	if !strings.Contains(output.String(), "# bye") {
		t.Errorf("shutdown banner missing from output:\n%s", output.String())
	}

	// Saturation: a one-slot, no-queue server under concurrent fire must
	// answer every request promptly with 200 or 429 — never hang. (The
	// deterministic 429 path is pinned by the internal/server unit tests.)
	satCmd, satAddr, _ := startSkserve(t, bins["skserve"], "-snapshot", snap,
		"-addr", "127.0.0.1:0", "-max-inflight", "1", "-queue", "-1",
		"-queue-wait", "1ms", "-cache", "-1")
	satErrs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"x":%d,"y":%d,"k":3}`, 400+20*g, 700+10*g)
			resp, err := http.Post("http://"+satAddr+"/v1/knn", "application/json",
				strings.NewReader(body))
			if err != nil {
				satErrs <- err
				return
			}
			defer resp.Body.Close()
			if _, err := io.ReadAll(resp.Body); err != nil {
				satErrs <- err
				return
			}
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				satErrs <- fmt.Errorf("saturated server returned %d", resp.StatusCode)
			}
			if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				satErrs <- fmt.Errorf("429 without Retry-After")
			}
		}(g)
	}
	wg.Wait()
	close(satErrs)
	for err := range satErrs {
		t.Error(err)
	}
	if err := satCmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := satCmd.Wait(); err != nil {
		t.Fatalf("saturated skserve exited non-zero after SIGTERM: %v", err)
	}
}
