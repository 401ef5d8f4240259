// Command skcoord is the scatter-gather front of a sharded surfknn
// deployment: it loads a shard manifest (written by skgen -tiles), verifies
// every shard answers as the tile the manifest claims, and serves the same
// public HTTP API as a standalone skserve — answers assembled across the
// fleet, bit-identical to an unsharded server over the union of the
// objects.
//
// Usage:
//
//	skgen -preset BH -size 64 -db bh.skdb -db-objects 200 -tiles 2x2
//	skserve -snapshot bh-tile-0-0.skdb -shard-id tile-0-0 -addr 127.0.0.1:8081 &
//	skserve -snapshot bh-tile-1-0.skdb -shard-id tile-1-0 -addr 127.0.0.1:8082 &
//	... one skserve per tile ...
//	skcoord -manifest bh.manifest.json -addrs 127.0.0.1:8081,127.0.0.1:8082,... -addr 127.0.0.1:8080
//	curl -s localhost:8080/v1/knn -d '{"x":3200,"y":3200,"k":5}'
//
// -addrs assigns shard addresses in manifest order (row-major by tile, so
// tile-0-0, tile-1-0, ..., tile-0-1, ...); a manifest whose entries already
// carry addresses needs no -addrs. Updates through the coordinator are
// routed to the owning tile under fleet-wide lockstep epochs; when a shard
// is down, queries that need it answer 503 shard_unavailable rather than a
// silently partial result. Metrics are at /debug/vars under
// "surfknn_coord"; with -debug-addr a second listener serves /debug/vars and
// /debug/pprof/* for profiling.
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
	"strings"
	"syscall"
	"time"

	"surfknn/internal/obs"
	"surfknn/internal/server/front"
	"surfknn/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("skcoord: ")
	fs := flag.NewFlagSet("skcoord", flag.ContinueOnError)
	var (
		manifest = fs.String("manifest", "", "shard manifest written by skgen -tiles (required)")
		addrs    = fs.String("addrs", "", "comma-separated shard addresses, assigned in manifest order")
		addr     = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		timeout  = fs.Duration("shard-timeout", 0, "per-shard call deadline (0 = 10s)")
		retries  = fs.Int("retries", 2, "retries per saturated (429) shard call")
		grace    = fs.Duration("grace", 30*time.Second, "shutdown drain deadline")
		access   = fs.String("access-log", "", `access-log destination: "stderr", a file path, or empty for off`)
		debug    = fs.String("debug-addr", "", "also serve /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
	)
	fs.SetOutput(io.Discard)
	fs.Usage = func() {}
	if err := fs.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "usage: skcoord -manifest fleet.manifest.json [-addrs a,b,...] [flags]\n\nflags:\n")
			fs.SetOutput(os.Stderr)
			fs.PrintDefaults()
			os.Exit(0)
		}
		log.Fatalf("%v (run skcoord -h for usage)", err)
	}
	if *manifest == "" {
		log.Fatal("no manifest given: pass -manifest fleet.manifest.json (from skgen -tiles)")
	}

	man, err := shard.ReadManifest(*manifest)
	if err != nil {
		log.Fatal(err)
	}
	if *addrs != "" {
		list := strings.Split(*addrs, ",")
		if len(list) != len(man.Shards) {
			log.Fatalf("-addrs names %d shards, manifest has %d", len(list), len(man.Shards))
		}
		for i := range man.Shards {
			man.Shards[i].Addr = strings.TrimSpace(list[i])
		}
	}

	accessW, err := front.OpenAccessLog(*access)
	if err != nil {
		log.Fatal(err)
	}
	stats := obs.NewCoordStats()
	if err := stats.Publish("surfknn_coord"); err != nil {
		log.Fatal(err)
	}
	coord, err := shard.New(shard.Config{
		Manifest:     man,
		ShardTimeout: *timeout,
		Retries:      *retries,
		Stats:        stats,
		AccessLog:    accessW,
	})
	if err != nil {
		log.Fatal(err)
	}
	verifyCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = coord.Verify(verifyCtx)
	cancel()
	if err != nil {
		log.Fatalf("fleet verification failed: %v", err)
	}
	fmt.Printf("fleet: %dx%d tiles, %d shards verified\n", man.NX, man.NY, len(man.Shards))

	if *debug != "" {
		dbg, daddr, err := obs.StartDebugServer(*debug)
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		fmt.Printf("# debug server listening on %s\n", daddr)
	}

	mux := http.NewServeMux()
	mux.Handle("/debug/vars", http.DefaultServeMux) // expvar registers there
	mux.Handle("/", coord.Handler())
	hs := &http.Server{Handler: mux}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	// The announce line is the machine-readable contract scripts/check.sh
	// scrapes, mirroring skserve's.
	fmt.Printf("# skcoord listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Printf("# shutting down: draining in-flight requests (grace %v)\n", *grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	fmt.Println("# bye")
}
