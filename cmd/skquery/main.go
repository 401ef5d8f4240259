// Command skquery answers a single surface k-NN query on a terrain,
// printing the result set, the distance ranges and the cost metrics.
//
// Usage:
//
//	skquery -dem bh.sdem -objects 200 -x 3200 -y 3200 -k 5 -algo mr3 -sched 1
//	skquery -preset EP -size 64 -k 10 -algo ea
//	skquery -snapshot bh.skdb -k 5
//	skquery -q "SELECT k=5 NEAREST (800, 800) USING s=2"
//	skquery -server http://127.0.0.1:8080 -q "EXPLAIN RANGE (800, 800) WITHIN 500"
//	skquery -repl
//
// When -x/-y are omitted the query point is the terrain centre. A
// -snapshot (from skgen -db) carries its own objects and resumes the
// saved object-store epoch, reported in the terrain line.
//
// -q executes one SKQL statement and exits (non-zero on any error, with a
// line:col caret diagnostic on parse errors); -repl starts an interactive
// shell reading one statement per line. Both work locally or against a
// running skserve/skcoord via -server.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/obs"
	"surfknn/internal/server/api"
	"surfknn/internal/server/client"
	"surfknn/internal/sklang"
	"surfknn/internal/sklang/skexec"
	"surfknn/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("skquery: ")
	var (
		snapPath = flag.String("snapshot", "", "TerrainDB snapshot from skgen -db (objects and epoch included; overrides -dem)")
		demPath  = flag.String("dem", "", "terrain file produced by skgen (overrides -preset/-size)")
		preset   = flag.String("preset", "BH", "synthesize preset when no -dem given: BH or EP")
		size     = flag.Int("size", 64, "synthesized grid size")
		cell     = flag.Float64("cell", 100, "synthesized sample spacing (m)")
		seed     = flag.Int64("seed", 2006, "seed for terrain and objects")
		objects  = flag.Int("objects", 150, "number of uniformly placed objects")
		qx       = flag.Float64("x", math.NaN(), "query x (default: terrain centre)")
		qy       = flag.Float64("y", math.NaN(), "query y (default: terrain centre)")
		k        = flag.Int("k", 5, "number of neighbours")
		algo     = flag.String("algo", "mr3", "algorithm: mr3, ea, brute, range or masked")
		sched    = flag.Int("sched", 1, "MR3 step-length schedule: 1, 2 or 3")
		radius   = flag.Float64("radius", 500, "surface range radius for -algo range (m)")
		slope    = flag.Float64("slope", 35, "max slope for -algo masked (degrees)")
		qstmt    = flag.String("q", "", "execute one SKQL statement (e.g. 'SELECT k=5 NEAREST (800, 800)') and exit; an EXPLAIN prefix prints the annotated plan")
		repl     = flag.Bool("repl", false, "interactive SKQL shell: read one statement per line from stdin (exit with \\q)")
		server   = flag.String("server", "", "query a running skserve/skcoord at this base URL (e.g. http://127.0.0.1:8080) instead of a local terrain")
		follow   = flag.Bool("follow", false, "with -server: register a continuous k-NN subscription at (-x, -y), then read \"x y\" move lines from stdin, printing each answer with its safe-region hit/miss disposition")
		timeout  = flag.Duration("timeout", 0, "abort the query after this long (0 = no limit)")
		debug    = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:8080)")
		trace    = flag.Bool("trace", false, "record the query's phase trace and print it as JSON")
		slowlog  = flag.Duration("slowlog", -1, "log queries slower than this to stderr as JSON (0 = every query, negative = off)")
	)
	// An unknown flag exits non-zero with a one-line error; the full flag
	// dump is reserved for an explicit -h/-help. A script typo should yield
	// one diagnosable line, not a screenful of usage.
	flag.CommandLine.Init("skquery", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	flag.Usage = func() {} // a parse error must not dump usage; see below
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "usage: skquery [flags]\n\nflags:\n")
			flag.CommandLine.SetOutput(os.Stderr)
			flag.PrintDefaults()
			os.Exit(0)
		}
		log.Fatalf("%v (run skquery -h for usage)", err)
	}

	if *qstmt != "" && *repl {
		log.Fatal("-q and -repl are mutually exclusive")
	}
	s, ok := skexec.Schedule(*sched)
	if !ok {
		log.Fatalf("-sched %d: must be 1, 2 or 3", *sched)
	}
	if *server != "" {
		if *snapPath != "" || *demPath != "" {
			log.Fatal("-server and -snapshot/-dem are mutually exclusive")
		}
		if *qstmt != "" || *repl {
			exec := remoteSKQL(*server, *timeout)
			if *repl {
				runREPL(exec)
				return
			}
			if !exec(*qstmt) {
				os.Exit(1)
			}
			return
		}
		if *follow {
			followRemote(*server, *qx, *qy, *k, *sched, *timeout)
			return
		}
		remoteQuery(*server, *algo, *qx, *qy, *k, *sched, *radius, *timeout)
		return
	}
	if *follow {
		log.Fatal("-follow needs a running service: pass -server")
	}

	var (
		db  *core.TerrainDB
		m   *mesh.Mesh
		err error
	)
	if *snapPath != "" {
		if *demPath != "" {
			log.Fatal("-snapshot and -dem are mutually exclusive")
		}
		db, err = core.LoadFile(*snapPath, core.Config{})
		if err != nil {
			log.Fatal(err)
		}
		m = db.Mesh
		fmt.Printf("terrain: %d vertices, %d faces, %d objects at epoch %d\n",
			m.NumVerts(), m.NumFaces(), len(db.Objects()), db.CurrentEpoch())
	} else {
		var g *dem.Grid
		g, err = loadOrSynthesize(*demPath, *preset, *size, *cell, *seed)
		if err != nil {
			log.Fatal(err)
		}
		m = mesh.FromGrid(g)
		fmt.Printf("terrain: %d vertices, %d faces (%.1f km²)\n", m.NumVerts(), m.NumFaces(), g.AreaKm2())
		db, err = core.BuildTerrainDB(m, core.Config{})
		if err != nil {
			log.Fatal(err)
		}
		var objs []workload.Object
		objs, err = workload.RandomObjects(m, db.Loc, *objects, *seed+1)
		if err != nil {
			log.Fatal(err)
		}
		db.SetObjects(objs)
	}
	if len(db.Objects()) == 0 {
		log.Fatal("terrain carries no objects; regenerate the snapshot with skgen -db -db-objects N")
	}
	reg := obs.NewRegistry()
	if *slowlog >= 0 {
		reg.SetSlowLog(obs.NewSlowQueryLog(os.Stderr, *slowlog))
	}
	db.Instrument(reg)
	if *debug != "" {
		if perr := reg.Publish("surfknn"); perr != nil {
			log.Fatal(perr)
		}
		_, addr, derr := obs.StartDebugServer(*debug)
		if derr != nil {
			log.Fatal(derr)
		}
		fmt.Printf("# debug server listening on %s\n", addr)
	}

	if *qstmt != "" || *repl {
		exec := localSKQL(db, *timeout, *trace)
		if *repl {
			runREPL(exec)
			return
		}
		if !exec(*qstmt) {
			os.Exit(1)
		}
		return
	}

	ext := m.Extent()
	p := ext.Center()
	if !math.IsNaN(*qx) {
		p.X = *qx
	}
	if !math.IsNaN(*qy) {
		p.Y = *qy
	}
	q, err := db.SurfacePointAt(geom.Vec2{X: p.X, Y: p.Y})
	if err != nil {
		log.Fatalf("query point: %v", err)
	}
	fmt.Printf("query: (%.1f, %.1f, %.1f), k=%d, algo=%s\n", q.Pos.X, q.Pos.Y, q.Pos.Z, *k, *algo)

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	sess := db.NewSession()
	sess.SetTracing(*trace)

	var res core.Result
	switch strings.ToLower(*algo) {
	case "mr3":
		res, err = sess.MR3Ctx(ctx, q, *k, s, core.Options{})
	case "ea":
		res, err = sess.EACtx(ctx, q, *k)
	case "brute":
		res.Neighbors = sess.BruteForce(q, *k)
	case "range":
		res, err = sess.SurfaceRangeCtx(ctx, q, *radius, s, core.Options{})
		fmt.Printf("objects within %.0f m of surface travel:\n", *radius)
	case "masked":
		var ns []core.Neighbor
		ns, err = sess.MaskedKNNCtx(ctx, q, *k, core.SlopeMask(m, *slope))
		res.Neighbors = ns
		fmt.Printf("k-NN over faces with slope ≤ %.0f°:\n", *slope)
	default:
		log.Fatalf("unknown algorithm %q", *algo)
	}
	if err != nil {
		log.Fatal(err)
	}
	for i, n := range res.Neighbors {
		fmt.Printf("%2d. object %-4d at (%.1f, %.1f, %.1f)  dS ∈ [%.2f, %.2f]\n",
			i+1, n.Object.ID, n.Object.Point.Pos.X, n.Object.Point.Pos.Y, n.Object.Point.Pos.Z,
			n.LB, n.UB)
	}
	if *algo == "mr3" || *algo == "ea" || *algo == "range" {
		fmt.Printf("cost: %s\n", res.Metrics())
		for _, p := range res.Cost.Phases {
			fmt.Printf("  %-8s %10v  pages=%d (pool %d+%d, rtree %d)\n",
				p.Phase, p.Wall.Round(time.Microsecond), p.Pages(),
				p.PoolHits, p.PoolMisses, p.RTreeVisits)
		}
	}
	if res.Trace != nil {
		js, jerr := res.Trace.JSON()
		if jerr != nil {
			log.Fatal(jerr)
		}
		fmt.Printf("trace: %s\n", js)
	}
}

// remoteQuery runs the query against a live skserve or skcoord over the
// typed client: the remote's answer is printed in the same shape as a
// local run, plus the store epoch (and cache disposition) the service
// reported. Remote mode supports the algorithms the public API exposes:
// mr3 (POST /v1/knn) and range (POST /v1/range). The query point must be
// given explicitly — there is no local terrain to take a centre from.
func remoteQuery(base, algo string, qx, qy float64, k, sched int, radius float64, timeout time.Duration) {
	if math.IsNaN(qx) || math.IsNaN(qy) {
		log.Fatal("-server mode needs an explicit query point: pass -x and -y")
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	cli := client.New(base)

	hz, err := cli.Healthz(ctx)
	if err != nil {
		log.Fatalf("reaching %s: %v", base, err)
	}
	if hz.ShardID != "" {
		fmt.Printf("remote: %s (shard %s), %d objects at epoch %d\n", base, hz.ShardID, hz.Objects, hz.Epoch)
	} else if len(hz.Shards) > 0 {
		fmt.Printf("remote: %s (coordinator, %d shards), %d objects at epoch %d\n", base, len(hz.Shards), hz.Objects, hz.Epoch)
	} else {
		fmt.Printf("remote: %s, %d objects at epoch %d\n", base, hz.Objects, hz.Epoch)
	}

	var (
		res  api.Result
		meta client.Meta
	)
	switch strings.ToLower(algo) {
	case "mr3":
		fmt.Printf("query: (%.1f, %.1f), k=%d, algo=mr3\n", qx, qy, k)
		res, meta, err = cli.KNN(ctx, api.KNNRequest{X: qx, Y: qy, K: k, Sched: sched})
	case "range":
		fmt.Printf("query: (%.1f, %.1f), radius=%.0f m, algo=range\n", qx, qy, radius)
		res, meta, err = cli.Range(ctx, api.RangeRequest{X: qx, Y: qy, Radius: radius, Sched: sched})
	default:
		log.Fatalf("algorithm %q is not served remotely (use mr3 or range)", algo)
	}
	if err != nil {
		log.Fatal(err)
	}
	for i, n := range res.Neighbors {
		fmt.Printf("%2d. object %-4d at (%.1f, %.1f, %.1f)  dS ∈ [%.2f, %.2f]\n",
			i+1, n.ID, n.X, n.Y, n.Z, float64(n.LB), float64(n.UB))
	}
	fmt.Printf("cost: %d pages, %d µs cpu, %d µs elapsed\n", res.Cost.Pages, res.Cost.CPUUs, res.Cost.ElapsedUs)
	if meta.Cache != "" {
		fmt.Printf("epoch %d, cache %s\n", meta.Epoch, meta.Cache)
	} else {
		fmt.Printf("epoch %d\n", meta.Epoch)
	}
}

// followRemote is the continuous-query client mode: it registers a
// subscription at (-x, -y), prints the initial top-k and safe radius, then
// treats every "x y" line on stdin as a move of the query point — each
// answer is printed with the service's safe-region disposition (hit = served
// from the subscription's safe region with zero engine work, miss =
// re-evaluated) and the epoch it is valid for. EOF unsubscribes.
func followRemote(base string, qx, qy float64, k, sched int, timeout time.Duration) {
	if math.IsNaN(qx) || math.IsNaN(qy) {
		log.Fatal("-follow needs an initial query point: pass -x and -y")
	}
	ctx := context.Background()
	cli := client.New(base)
	callCtx := func() (context.Context, context.CancelFunc) {
		if timeout > 0 {
			return context.WithTimeout(ctx, timeout)
		}
		return context.WithCancel(ctx)
	}

	sctx, cancel := callCtx()
	sub, _, err := cli.Subscribe(sctx, api.SubscribeRequest{X: qx, Y: qy, K: k, Sched: sched})
	cancel()
	if err != nil {
		log.Fatalf("subscribing at (%g, %g): %v", qx, qy, err)
	}
	printFollow := func(res api.SubscribeResponse, disposition string) {
		fmt.Printf("[%s] epoch %d, safe radius %.2f m around (%.1f, %.1f)\n",
			disposition, res.Epoch, float64(res.SafeRadius), res.AnchorX, res.AnchorY)
		for i, n := range res.Neighbors {
			fmt.Printf("%2d. object %-4d at (%.1f, %.1f, %.1f)  dS ∈ [%.2f, %.2f]\n",
				i+1, n.ID, n.X, n.Y, n.Z, float64(n.LB), float64(n.UB))
		}
	}
	fmt.Printf("subscription %d at (%.1f, %.1f), k=%d — reading \"x y\" moves from stdin\n", sub.ID, qx, qy, k)
	printFollow(sub, "subscribed")

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var x, y float64
		if _, err := fmt.Sscanf(line, "%f %f", &x, &y); err != nil {
			fmt.Fprintf(os.Stderr, "skipping %q: want \"x y\"\n", line)
			continue
		}
		mctx, cancel := callCtx()
		res, meta, err := cli.MoveSubscription(mctx, sub.ID, api.MoveRequest{X: x, Y: y})
		cancel()
		if err != nil {
			log.Fatalf("moving to (%g, %g): %v", x, y, err)
		}
		printFollow(res, meta.SafeRegion)
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("reading moves: %v", err)
	}
	uctx, cancel := callCtx()
	defer cancel()
	if _, _, err := cli.Unsubscribe(uctx, sub.ID); err != nil {
		log.Fatalf("unsubscribing %d: %v", sub.ID, err)
	}
	fmt.Printf("unsubscribed %d\n", sub.ID)
}

// --- SKQL (-q / -repl) ---

// stmtExec executes one SKQL statement, printing the answer or a
// diagnostic; the bool is false when the statement failed (the one-shot
// path exits non-zero on it, the REPL keeps going).
type stmtExec func(src string) bool

// printDiag renders an error for a statement; parse and plan errors get
// the one-line line:col diagnostic plus a caret under the offending token.
func printDiag(src string, err error) {
	var le *sklang.Error
	if errors.As(err, &le) {
		fmt.Fprintf(os.Stderr, "skquery: %v\n%s\n", le, sklang.Caret(src, le.Pos))
		return
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Line > 0 {
		fmt.Fprintf(os.Stderr, "skquery: %s\n%s\n", apiErr.Message,
			sklang.Caret(src, sklang.Position{Line: apiErr.Line, Col: apiErr.Col}))
		return
	}
	fmt.Fprintf(os.Stderr, "skquery: %v\n", err)
}

// runREPL reads one statement per line until EOF or \q, executing each.
func runREPL(exec stmtExec) {
	fmt.Println(`SKQL shell — one statement per line ("SELECT k=5 NEAREST (x, y)"), \q to quit`)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("skql> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch line {
		case "":
		case `\q`, "exit", "quit":
			return
		default:
			exec(line) // diagnostics printed; the shell continues either way
		}
		fmt.Print("skql> ")
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("reading statements: %v", err)
	}
	fmt.Println()
}

// localSKQL compiles and runs statements against the local TerrainDB —
// the same sklang → skexec path skserve uses, so answers match the service
// bit for bit.
func localSKQL(db *core.TerrainDB, timeout time.Duration, trace bool) stmtExec {
	cat := sklang.Catalog{
		Objects: len(db.Objects()),
		Faces:   db.Mesh.NumFaces(),
		Area:    db.Mesh.Extent().Area(),
	}
	return func(src string) bool {
		plan, err := sklang.Compile(src, cat)
		if err != nil {
			printDiag(src, err)
			return false
		}
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		sess := db.NewSession()
		sess.SetTracing(trace)
		out, err := skexec.Run(ctx, sess, plan)
		if err != nil {
			printDiag(src, err)
			return false
		}
		if plan.Explain {
			fmt.Print(sklang.RenderNode(plan.Root.Wire()))
			return true
		}
		switch plan.Form {
		case "distance":
			fmt.Printf("distance ∈ [%.2f, %.2f] m (accuracy %.4f, %d iterations)\n",
				out.Distance.LB, out.Distance.UB, out.Distance.Accuracy, out.Distance.Iterations)
		case "subscribe":
			fmt.Printf("one-shot evaluation (subscriptions need a running service; see -server -follow)\n")
			printLocalNeighbors(out.Result.Neighbors)
			fmt.Printf("safe radius %.2f m around (%.1f, %.1f)\n", out.Safe.Radius, plan.X, plan.Y)
		default:
			printLocalNeighbors(out.Result.Neighbors)
		}
		fmt.Printf("cost: %s\n", out.Result.Metrics())
		if out.Result.Trace != nil {
			if js, jerr := out.Result.Trace.JSON(); jerr == nil {
				fmt.Printf("trace: %s\n", js)
			}
		}
		return true
	}
}

func printLocalNeighbors(ns []core.Neighbor) {
	for i, n := range ns {
		fmt.Printf("%2d. object %-4d at (%.1f, %.1f, %.1f)  dS ∈ [%.2f, %.2f]\n",
			i+1, n.Object.ID, n.Object.Point.Pos.X, n.Object.Point.Pos.Y, n.Object.Point.Pos.Z,
			n.LB, n.UB)
	}
}

// remoteSKQL sends statements to a running skserve or skcoord: EXPLAIN
// statements via POST /v1/explain (printing the service-rendered plan),
// everything else via POST /v1/query.
func remoteSKQL(base string, timeout time.Duration) stmtExec {
	cli := client.New(base)
	return func(src string) bool {
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		if isExplain(src) {
			res, _, err := cli.Explain(ctx, api.ExplainRequest{Q: src})
			if err != nil {
				printDiag(src, err)
				return false
			}
			fmt.Print(res.Text)
			fmt.Printf("epoch %d\n", res.Epoch)
			return true
		}
		res, meta, err := cli.Query(ctx, api.QueryRequest{Q: src})
		if err != nil {
			printDiag(src, err)
			return false
		}
		switch {
		case res.Distance != nil:
			d := res.Distance
			fmt.Printf("distance ∈ [%.2f, %.2f] m (accuracy %.4f, %d iterations)\n",
				float64(d.LB), float64(d.UB), d.Accuracy, d.Iterations)
		case res.Subscription != nil:
			fmt.Printf("subscription %d registered, safe radius %.2f m\n",
				res.Subscription.ID, float64(res.Subscription.SafeRadius))
			printWireNeighbors(res.Neighbors)
		default:
			printWireNeighbors(res.Neighbors)
		}
		fmt.Printf("cost: %d pages, %d µs cpu, %d µs elapsed (%s)\n",
			res.Cost.Pages, res.Cost.CPUUs, res.Cost.ElapsedUs, res.Algorithm)
		if meta.Cache != "" {
			fmt.Printf("epoch %d, cache %s\n", meta.Epoch, meta.Cache)
		} else {
			fmt.Printf("epoch %d\n", meta.Epoch)
		}
		return true
	}
}

func printWireNeighbors(ns []api.Neighbor) {
	for i, n := range ns {
		fmt.Printf("%2d. object %-4d at (%.1f, %.1f, %.1f)  dS ∈ [%.2f, %.2f]\n",
			i+1, n.ID, n.X, n.Y, n.Z, float64(n.LB), float64(n.UB))
	}
}

// isExplain reports whether the statement's first keyword is EXPLAIN
// (case-insensitive), without a full parse — routing only; the service
// still authoritatively parses.
func isExplain(src string) bool {
	fields := strings.Fields(src)
	return len(fields) > 0 && strings.EqualFold(fields[0], "EXPLAIN")
}

func loadOrSynthesize(path, preset string, size int, cell float64, seed int64) (*dem.Grid, error) {
	if path != "" {
		return dem.ReadFile(path)
	}
	var p dem.Preset
	switch strings.ToUpper(preset) {
	case "BH":
		p = dem.BH
	case "EP":
		p = dem.EP
	default:
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	return dem.Synthesize(p, size, cell, seed), nil
}
