// Command skserve is the surface k-NN query service: it loads a terrain —
// a TerrainDB snapshot produced by `skgen -db` (or a raw .sdem grid plus
// generated objects) — once at startup and serves queries over HTTP until
// SIGTERM/SIGINT, draining in-flight requests before exit.
//
// Usage:
//
//	skgen -preset BH -size 64 -db bh.skdb -db-objects 200
//	skserve -snapshot bh.skdb -addr 127.0.0.1:8080
//	curl -s localhost:8080/v1/knn -d '{"x":3200,"y":3200,"k":5}'
//
// Endpoints: POST /v1/knn, POST /v1/range, POST /v1/distance,
// POST/DELETE /v1/objects (epoch-versioned object updates),
// GET /v1/healthz, GET /debug/vars (the "surfknn" engine and
// "surfknn_server" serving-layer metric groups). With -debug-addr a second
// listener serves /debug/vars and /debug/pprof/* for profiling.
//
// A snapshot taken after object updates carries its epoch: a restarted
// skserve resumes the epoch sequence where the saved process left it (the
// startup line and /v1/healthz both report it).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/mesh"
	"surfknn/internal/obs"
	"surfknn/internal/server"
	"surfknn/internal/server/front"
	"surfknn/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("skserve: ")
	fs := flag.NewFlagSet("skserve", flag.ContinueOnError)
	var (
		snapshot = fs.String("snapshot", "", "TerrainDB snapshot produced by skgen -db (preferred)")
		demPath  = fs.String("dem", "", "raw .sdem terrain; objects are generated with -objects/-seed")
		objects  = fs.Int("objects", 150, "objects to generate when loading a raw -dem")
		seed     = fs.Int64("seed", 2006, "object placement seed for -dem")
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		poolPgs  = fs.Int("pool-pages", 0, "buffer-pool capacity in pages (0 = library default)")
		inflight = fs.Int("max-inflight", 0, "max concurrently executing queries (0 = 2x GOMAXPROCS)")
		queue    = fs.Int("queue", 0, "admission wait-queue depth (0 = 4x max-inflight)")
		wait     = fs.Duration("queue-wait", 0, "max time a request may wait for a slot (0 = 250ms)")
		timeout  = fs.Duration("timeout", 0, "default per-query deadline (0 = 5s)")
		maxTime  = fs.Duration("max-timeout", 0, "cap on client-requested timeouts (0 = 30s)")
		cacheN   = fs.Int("cache", 0, "result-cache entries, negative disables (0 = 1024)")
		grace    = fs.Duration("grace", 30*time.Second, "shutdown drain deadline")
		shardID  = fs.String("shard-id", "", `shard identity when serving one tile of a sharded deployment (e.g. "tile-0-1"; see skgen -tiles)`)
		access   = fs.String("access-log", "", `access-log destination: "stderr", a file path, or empty for off`)
		slowlog  = fs.Duration("slowlog", -1, "log queries slower than this to stderr as JSON (0 = every query, negative = off)")
		debug    = fs.String("debug-addr", "", "also serve /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
	)
	fs.SetOutput(io.Discard) // parse errors are reported as one line below
	fs.Usage = func() {}     // a parse error must not dump usage; see below
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "usage: skserve -snapshot file.skdb [flags]\n\nflags:\n")
			fs.SetOutput(os.Stderr)
			fs.PrintDefaults()
			os.Exit(0)
		}
		log.Fatalf("%v (run skserve -h for usage)", err)
	}

	db, err := loadDatabase(*snapshot, *demPath, *objects, *seed, core.Config{PoolPages: *poolPgs})
	if err != nil {
		log.Fatal(err)
	}
	if len(db.Objects()) == 0 && *shardID == "" {
		// A shard tile may legitimately own zero objects; a standalone
		// server with none is a misbuilt snapshot.
		log.Fatalf("snapshot carries no objects; regenerate it with skgen -db -db-objects N")
	}

	reg := obs.NewRegistry()
	if *slowlog >= 0 {
		reg.SetSlowLog(obs.NewSlowQueryLog(os.Stderr, *slowlog))
	}
	db.Instrument(reg)
	if err := reg.Publish("surfknn"); err != nil {
		log.Fatal(err)
	}
	stats := obs.NewServerStats()
	if err := stats.Publish("surfknn_server"); err != nil {
		log.Fatal(err)
	}
	contStats := obs.NewContinuousStats()
	if err := contStats.Publish("surfknn_continuous"); err != nil {
		log.Fatal(err)
	}

	accessW, err := front.OpenAccessLog(*access)
	if err != nil {
		log.Fatal(err)
	}
	srv := server.New(db, server.Config{
		MaxInFlight:     *inflight,
		QueueDepth:      *queue,
		QueueWait:       *wait,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTime,
		CacheEntries:    *cacheN,
		ShardID:         *shardID,
		AccessLog:       accessW,
		Stats:           stats,
		ContinuousStats: contStats,
	})

	if *debug != "" {
		dbg, daddr, err := obs.StartDebugServer(*debug)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("# debug server listening on %s\n", daddr)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("terrain: %d vertices, %d faces, %d objects at epoch %d\n",
		db.Mesh.NumVerts(), db.Mesh.NumFaces(), len(db.Objects()), db.CurrentEpoch())
	if *shardID != "" {
		fmt.Printf("serving shard %s\n", *shardID)
	}
	// The announce line is the machine-readable contract scripts/check.sh
	// and the e2e test scrape (same pattern as skbench's debug server).
	fmt.Printf("# skserve listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// Listener died before any signal; nothing to drain.
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Printf("# shutting down: draining in-flight requests (grace %v)\n", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	fmt.Println("# bye")
}

// loadDatabase builds the TerrainDB the server owns: from a snapshot
// (objects and their epoch included) or from a raw DEM plus generated
// objects (starting at epoch 0).
func loadDatabase(snapshot, demPath string, objects int, seed int64, cfg core.Config) (*core.TerrainDB, error) {
	switch {
	case snapshot != "" && demPath != "":
		return nil, errors.New("-snapshot and -dem are mutually exclusive")
	case snapshot != "":
		return core.LoadFile(snapshot, cfg)
	case demPath != "":
		g, err := dem.ReadFile(demPath)
		if err != nil {
			return nil, err
		}
		m := mesh.FromGrid(g)
		db, err := core.BuildTerrainDB(m, cfg)
		if err != nil {
			return nil, err
		}
		objs, err := workload.RandomObjects(m, db.Loc, objects, seed)
		if err != nil {
			return nil, err
		}
		db.SetObjects(objs)
		return db, nil
	default:
		return nil, errors.New("no terrain given: pass -snapshot file.skdb (from skgen -db) or -dem file.sdem")
	}
}
