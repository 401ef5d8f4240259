#!/usr/bin/env bash
# check.sh — the full verification gate, exactly what CI runs.
#
#   build → vet → benchmark record → sklint (self-hosted lint) → race tests → parallel-bench
#   smoke → debug endpoint smoke → server smoke → shard fleet smoke → snapshot
#   determinism → fuzz smoke → line count
#
# Fail-fast: the first failing stage aborts the run with its exit code.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== build =="
go build ./...

echo "== vet =="
go vet ./...

echo "== benchmark record =="
# The ROADMAP ordering rule: every PR commits its benchmark record. The
# newest "PR <n>" named in CHANGES.md must have results/BENCH_<n>.json.
newest_pr=$(grep -o 'PR [0-9]\+' CHANGES.md | awk '{print $2}' | sort -n | tail -1)
if [ -n "$newest_pr" ] && [ ! -f "results/BENCH_${newest_pr}.json" ]; then
    echo "CHANGES.md names PR $newest_pr but results/BENCH_${newest_pr}.json is missing" >&2
    exit 1
fi

echo "== sklint =="
# Machine-readable diagnostics; on GitHub CI each finding is also emitted
# as a ::error annotation routed to the offending file and line. Any
# finding fails the gate.
sklint_flags=(-json)
if [ -n "${GITHUB_ACTIONS:-}" ]; then
    sklint_flags+=(-github)
fi
go run ./cmd/sklint "${sklint_flags[@]}" ./...

echo "== sklint self-test (negative fixtures must fail) =="
# Each fixture package contains known findings; sklint exiting 0 on one
# would mean a rule silently stopped detecting anything. Recursive: the
# path-scoped rules' fixtures nest the directory shape they scope on.
for fixture in internal/lint/testdata/src/*/; do
    if go run ./cmd/sklint "./${fixture}..." >/dev/null 2>&1; then
        echo "sklint reported no findings on negative fixture $fixture" >&2
        exit 1
    fi
done

echo "== tests (race) =="
go test -race ./...

echo "== parallel benchmark smoke =="
# One iteration of the concurrent-query benchmarks: proves the session API
# still runs the parallel path (the race tests above prove it is safe), of
# the serving-layer benchmarks (handler chain cold and cache-hit), of the
# update-mix benchmark (queries interleaved with epoch publications), and
# of the continuous-subscription benchmark (safe-region hit rate vs step).
go test -run '^$' -bench 'SequentialKNN|ParallelKNN|ServerKNN|KNNUnderUpdates|ContinuousKNN' -benchtime=1x .

echo "== allocation budget =="
# The warm query path must stay allocation-free: the benchmarks below warm
# their session/workspace before ResetTimer, so any allocs/op they report
# is a steady-state regression (a fresh closure, a map, an append past
# capacity), not cold growth. The AllocsPerRun tests pin the same property
# per query; this stage pins it on the benchmark workload CI already runs,
# and KNNUniformScale on the knn_uniform workload's own terrain and objects.
alloc_out=$(go test -run '^$' -bench 'SequentialKNN$|DijkstraCSR$|LowerBoundChain|SharedSource|UpperBoundNet|KNNUniformScale' \
    -benchtime=50x -benchmem . ./internal/core)
printf '%s\n' "$alloc_out"
bad=$(printf '%s\n' "$alloc_out" | awk '/allocs\/op/ && $(NF-1) != 0 {print $1, $(NF-1)}')
if [ -n "$bad" ]; then
    echo "warm-path benchmarks allocate:" >&2
    printf '%s\n' "$bad" >&2
    exit 1
fi

echo "== debug endpoint smoke =="
# skbench -debug-addr must serve the published surfknn counter group on
# /debug/vars while a run executes. The run itself is tiny (fig 7, 16×16
# grid); -debug-hold keeps the server up long enough to probe it.
go build -o /tmp/skbench.check ./cmd/skbench
rm -f /tmp/skbench.check.out
/tmp/skbench.check -fig 7 -size 16 -queries 1 \
    -debug-addr 127.0.0.1:0 -debug-hold 30s > /tmp/skbench.check.out &
skbench_pid=$!
trap 'kill "$skbench_pid" 2>/dev/null; wait "$skbench_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^# debug server listening on //p' /tmp/skbench.check.out | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "skbench never announced its debug server" >&2
    cat /tmp/skbench.check.out >&2
    exit 1
fi
vars=$(curl -fsS "http://$addr/debug/vars")
for needle in '"surfknn"' '"queries"' '"pool"' '"work"'; do
    if ! printf '%s' "$vars" | grep -q "$needle"; then
        echo "/debug/vars is missing $needle" >&2
        printf '%s\n' "$vars" >&2
        exit 1
    fi
done
kill "$skbench_pid" 2>/dev/null
wait "$skbench_pid" 2>/dev/null || true
trap - EXIT
# skserve -debug-addr must serve the profiler index on its second listener.
go build -o /tmp/skgen.check ./cmd/skgen
go build -o /tmp/skserve.check ./cmd/skserve
/tmp/skgen.check -preset EP -size 16 -o /tmp/skserve.check.sdem \
    -db /tmp/skserve.check.skdb -db-objects 30 > /dev/null
rm -f /tmp/skserve.check.out
/tmp/skserve.check -snapshot /tmp/skserve.check.skdb -addr 127.0.0.1:0 \
    -debug-addr 127.0.0.1:0 > /tmp/skserve.check.out &
skserve_pid=$!
trap 'kill "$skserve_pid" 2>/dev/null; wait "$skserve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^# debug server listening on //p' /tmp/skserve.check.out | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "skserve never announced its debug server" >&2
    cat /tmp/skserve.check.out >&2
    exit 1
fi
pprof=$(curl -fsS "http://$addr/debug/pprof/")
if ! printf '%s' "$pprof" | grep -q 'goroutine'; then
    echo "skserve -debug-addr does not serve /debug/pprof/" >&2
    exit 1
fi
kill "$skserve_pid" 2>/dev/null
wait "$skserve_pid" 2>/dev/null || true
trap - EXIT

echo "== server smoke =="
# The full serving path end to end: skgen -db snapshots a query-ready
# terrain, skserve loads it and answers over HTTP, and /debug/vars exposes
# the surfknn_server metric group. SIGTERM must drain and exit zero.
rm -f /tmp/skserve.check.out
/tmp/skserve.check -snapshot /tmp/skserve.check.skdb \
    -addr 127.0.0.1:0 > /tmp/skserve.check.out &
skserve_pid=$!
trap 'kill "$skserve_pid" 2>/dev/null; wait "$skserve_pid" 2>/dev/null || true' EXIT
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^# skserve listening on //p' /tmp/skserve.check.out | head -1)
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "skserve never announced its address" >&2
    cat /tmp/skserve.check.out >&2
    exit 1
fi
healthz=$(curl -fsS "http://$addr/v1/healthz")
printf '%s' "$healthz" | grep -q '"status":"ok"'
printf '%s' "$healthz" | grep -q '"epoch"'
knn=$(curl -fsS -X POST "http://$addr/v1/knn" -d '{"x":800,"y":800,"k":3}')
if ! printf '%s' "$knn" | grep -q '"neighbors"'; then
    echo "/v1/knn returned no neighbors: $knn" >&2
    exit 1
fi
# SKQL end to end, still at epoch 0: POST /v1/query must answer the same
# statement with byte-identical neighbors to the typed /v1/knn route
# (same engine call, same JSON encoder — any drift means the planner
# changed the query), and POST /v1/explain must name the chosen
# algorithm at the plan root without executing anything.
query=$(curl -fsS -X POST "http://$addr/v1/query" \
    -d '{"q":"SELECT k=3 NEAREST (800, 800)"}')
knn_neighbors=$(printf '%s' "$knn" | grep -o '"neighbors":\[[^]]*\]')
query_neighbors=$(printf '%s' "$query" | grep -o '"neighbors":\[[^]]*\]')
if [ -z "$knn_neighbors" ] || [ "$knn_neighbors" != "$query_neighbors" ]; then
    echo "/v1/query neighbors differ from /v1/knn:" >&2
    echo "  knn:   $knn_neighbors" >&2
    echo "  query: $query_neighbors" >&2
    exit 1
fi
explain=$(curl -fsS -X POST "http://$addr/v1/explain" \
    -d '{"q":"SELECT k=3 NEAREST (800, 800)"}')
if ! printf '%s' "$explain" | grep -q '"algorithm":"mr3"'; then
    echo "/v1/explain did not pick the mr3 algorithm: $explain" >&2
    exit 1
fi
if ! printf '%s' "$explain" | grep -q '"plan":{"op":"mr3"'; then
    echo "/v1/explain plan root does not name the algorithm: $explain" >&2
    exit 1
fi
# Dynamic objects over HTTP: an upsert must bump the epoch, and the next
# query — served against the new epoch, not the cached epoch-0 entry —
# must both see the new object and carry the newer epoch in X-Epoch.
epoch0=$(curl -fsSi -X POST "http://$addr/v1/knn" -d '{"x":800,"y":800,"k":3}' \
    | tr -d '\r' | sed -n 's/^X-Epoch: //p')
curl -fsS -X POST "http://$addr/v1/objects" \
    -d '{"objects":[{"id":9001,"x":800,"y":800}]}' | grep -q '"epoch":1'
knn2=$(curl -fsSi -X POST "http://$addr/v1/knn" -d '{"x":800,"y":800,"k":3}')
epoch1=$(printf '%s' "$knn2" | tr -d '\r' | sed -n 's/^X-Epoch: //p')
if [ "${epoch0:-}" != "0" ] || [ "${epoch1:-}" != "1" ]; then
    echo "X-Epoch did not advance across an upsert (before=$epoch0 after=$epoch1)" >&2
    exit 1
fi
if ! printf '%s' "$knn2" | grep -q '"id":9001'; then
    echo "post-upsert /v1/knn does not see object 9001: $knn2" >&2
    exit 1
fi
# Continuous subscriptions end to end: subscribe → move to a point inside
# the safe region (hit: served from the cached top-k without engine work) →
# upsert at the anchor (the epoch bump invalidates the cache) → move again
# (miss: re-evaluated at the new epoch, X-Epoch advances) → unsubscribe
# (second move 404s). X-Safe-Region carries the per-move disposition.
sub=$(curl -fsSi -X POST "http://$addr/v1/subscribe" -d '{"x":830,"y":770,"k":3}')
sub_id=$(printf '%s' "$sub" | grep -o '"id":[0-9]*' | head -1 | cut -d: -f2)
if [ -z "$sub_id" ]; then
    echo "/v1/subscribe returned no id: $sub" >&2
    exit 1
fi
printf '%s' "$sub" | tr -d '\r' | grep -q '^X-Safe-Region: miss'
mv1=$(curl -fsSi -X POST "http://$addr/v1/subscribe/$sub_id/move" -d '{"x":830,"y":770}')
if ! printf '%s' "$mv1" | tr -d '\r' | grep -q '^X-Safe-Region: hit'; then
    echo "move inside the safe region was not a hit: $mv1" >&2
    exit 1
fi
mv1_epoch=$(printf '%s' "$mv1" | tr -d '\r' | sed -n 's/^X-Epoch: //p')
curl -fsS -X POST "http://$addr/v1/objects" \
    -d '{"objects":[{"id":9002,"x":830,"y":770}]}' | grep -q '"epoch":2'
mv2=$(curl -fsSi -X POST "http://$addr/v1/subscribe/$sub_id/move" -d '{"x":830,"y":770}')
if ! printf '%s' "$mv2" | tr -d '\r' | grep -q '^X-Safe-Region: miss'; then
    echo "post-upsert move was not re-evaluated: $mv2" >&2
    exit 1
fi
mv2_epoch=$(printf '%s' "$mv2" | tr -d '\r' | sed -n 's/^X-Epoch: //p')
if [ "${mv2_epoch:-0}" -le "${mv1_epoch:-0}" ]; then
    echo "X-Epoch did not advance across the invalidating upsert (before=$mv1_epoch after=$mv2_epoch)" >&2
    exit 1
fi
curl -fsS -X DELETE "http://$addr/v1/subscribe/$sub_id" | grep -q '"removed":true'
if curl -fsS -X POST "http://$addr/v1/subscribe/$sub_id/move" \
    -d '{"x":830,"y":770}' >/dev/null 2>&1; then
    echo "move on an unsubscribed id did not 404" >&2
    exit 1
fi
vars=$(curl -fsS "http://$addr/debug/vars")
for needle in '"surfknn_server"' '"requests"' '"cache"' '"objects"' '"epochs_created"' \
    '"surfknn_continuous"' '"region_hits"'; do
    if ! printf '%s' "$vars" | grep -q "$needle"; then
        echo "/debug/vars is missing $needle" >&2
        printf '%s\n' "$vars" >&2
        exit 1
    fi
done
kill -TERM "$skserve_pid"
if ! wait "$skserve_pid"; then
    echo "skserve exited non-zero after SIGTERM" >&2
    cat /tmp/skserve.check.out >&2
    exit 1
fi
grep -q '# bye' /tmp/skserve.check.out
trap - EXIT

echo "== shard fleet smoke =="
# Sharded serving end to end: skgen -tiles cuts the snapshot into a 2x1
# shard grid plus a manifest, two skserve processes each load one tile
# with their shard identity, and skcoord scatters queries across them.
# The coordinator must answer kNN exactly as one skserve over the uncut
# snapshot does, route an upsert to the owning tile while advancing one
# fleet-wide epoch (X-Epoch), and drain on SIGTERM.
go build -o /tmp/skcoord.check ./cmd/skcoord
/tmp/skgen.check -preset EP -size 16 -o /tmp/skfleet.check.sdem \
    -db /tmp/skfleet.check.skdb -db-objects 30 -tiles 2x1 > /dev/null
rm -f /tmp/skfleet.check.s0.out /tmp/skfleet.check.s1.out /tmp/skcoord.check.out
/tmp/skserve.check -snapshot /tmp/skfleet.check-tile-0-0.skdb \
    -shard-id tile-0-0 -addr 127.0.0.1:0 > /tmp/skfleet.check.s0.out &
shard0_pid=$!
/tmp/skserve.check -snapshot /tmp/skfleet.check-tile-1-0.skdb \
    -shard-id tile-1-0 -addr 127.0.0.1:0 > /tmp/skfleet.check.s1.out &
shard1_pid=$!
coord_pid=""
trap 'kill "$shard0_pid" "$shard1_pid" $coord_pid 2>/dev/null; wait 2>/dev/null || true' EXIT
shard0_addr=""
shard1_addr=""
for _ in $(seq 1 100); do
    shard0_addr=$(sed -n 's/^# skserve listening on //p' /tmp/skfleet.check.s0.out | head -1)
    shard1_addr=$(sed -n 's/^# skserve listening on //p' /tmp/skfleet.check.s1.out | head -1)
    [ -n "$shard0_addr" ] && [ -n "$shard1_addr" ] && break
    sleep 0.1
done
if [ -z "$shard0_addr" ] || [ -z "$shard1_addr" ]; then
    echo "shard servers never announced their addresses" >&2
    cat /tmp/skfleet.check.s0.out /tmp/skfleet.check.s1.out >&2
    exit 1
fi
/tmp/skcoord.check -manifest /tmp/skfleet.check.manifest.json \
    -addrs "$shard0_addr,$shard1_addr" -addr 127.0.0.1:0 \
    > /tmp/skcoord.check.out &
coord_pid=$!
coord_addr=""
for _ in $(seq 1 100); do
    coord_addr=$(sed -n 's/^# skcoord listening on //p' /tmp/skcoord.check.out | head -1)
    [ -n "$coord_addr" ] && break
    sleep 0.1
done
if [ -z "$coord_addr" ]; then
    echo "skcoord never announced its address" >&2
    cat /tmp/skcoord.check.out >&2
    exit 1
fi
healthz=$(curl -fsS "http://$coord_addr/v1/healthz")
printf '%s' "$healthz" | grep -q '"status":"ok"'
printf '%s' "$healthz" | grep -q '"id":"tile-0-0"'
printf '%s' "$healthz" | grep -q '"id":"tile-1-0"'
knn=$(curl -fsSi -X POST "http://$coord_addr/v1/knn" -d '{"x":800,"y":800,"k":3}')
if ! printf '%s' "$knn" | grep -q '"neighbors"'; then
    echo "coordinator /v1/knn returned no neighbors: $knn" >&2
    exit 1
fi
# Error parity: a client error is the same 400 from a shard server and from
# the coordinator (one shared front validates both), never a retryable 503.
for target in "$shard0_addr" "$coord_addr"; do
    bad=$(curl -sS -w ' status=%{http_code}' -X POST "http://$target/v1/knn" \
        -d '{"x":800,"y":800,"k":3,"sched":7}')
    if ! printf '%s' "$bad" | grep -q '"code":"bad_request"' ||
        ! printf '%s' "$bad" | grep -q ' status=400$'; then
        echo "$target: POST /v1/knn sched=7 is not a 400 bad_request: $bad" >&2
        exit 1
    fi
done
# SKQL through the coordinator: /v1/query must scatter-gather to the
# same byte-identical neighbors as the typed route, and /v1/explain must
# render the distributed plan — the root names the algorithm and the
# scatter nodes carry the tile IDs they touched.
query=$(curl -fsS -X POST "http://$coord_addr/v1/query" \
    -d '{"q":"SELECT k=3 NEAREST (800, 800)"}')
knn_neighbors=$(printf '%s' "$knn" | grep -o '"neighbors":\[[^]]*\]')
query_neighbors=$(printf '%s' "$query" | grep -o '"neighbors":\[[^]]*\]')
if [ -z "$knn_neighbors" ] || [ "$knn_neighbors" != "$query_neighbors" ]; then
    echo "coordinator /v1/query neighbors differ from /v1/knn:" >&2
    echo "  knn:   $knn_neighbors" >&2
    echo "  query: $query_neighbors" >&2
    exit 1
fi
explain=$(curl -fsS -X POST "http://$coord_addr/v1/explain" \
    -d '{"q":"SELECT k=3 NEAREST (800, 800)"}')
if ! printf '%s' "$explain" | grep -q '"plan":{"op":"mr3"'; then
    echo "coordinator /v1/explain plan root does not name the algorithm: $explain" >&2
    exit 1
fi
# (800, 800) lies on the tile edge, in tile-1-0: the other tile answers
# knn2d and the query tile runs MR3 over its objects and the shipped ones.
if ! printf '%s' "$explain" | grep -q '"op":"scatter:knn2d"[^}]*"tiles":\["tile-0-0"\]' ||
    ! printf '%s' "$explain" | grep -q '"op":"rank:mr3"[^}]*"tiles":\["tile-1-0"\]'; then
    echo "coordinator /v1/explain k-NN nodes are missing their tile IDs: $explain" >&2
    exit 1
fi
# Bit-identity end to end: a standalone skserve over the uncut snapshot
# must answer the same neighbour ids, positions and bounds as the
# coordinator, at a point inside a tile and at one 10 m from the tile edge.
rm -f /tmp/skfleet.check.whole.out
/tmp/skserve.check -snapshot /tmp/skfleet.check.skdb -addr 127.0.0.1:0 \
    > /tmp/skfleet.check.whole.out &
whole_pid=$!
trap 'kill "$shard0_pid" "$shard1_pid" "$whole_pid" $coord_pid 2>/dev/null; wait 2>/dev/null || true' EXIT
whole_addr=""
for _ in $(seq 1 100); do
    whole_addr=$(sed -n 's/^# skserve listening on //p' /tmp/skfleet.check.whole.out | head -1)
    [ -n "$whole_addr" ] && break
    sleep 0.1
done
if [ -z "$whole_addr" ]; then
    echo "the uncut skserve never announced its address" >&2
    cat /tmp/skfleet.check.whole.out >&2
    exit 1
fi
for body in '{"x":1200,"y":600,"k":5}' '{"x":790,"y":900,"k":5}'; do
    want=$(curl -fsS -X POST "http://$whole_addr/v1/knn" -d "$body" | grep -o '"neighbors":\[[^]]*\]')
    got=$(curl -fsS -X POST "http://$coord_addr/v1/knn" -d "$body" | grep -o '"neighbors":\[[^]]*\]')
    if [ -z "$want" ] || [ "$got" != "$want" ]; then
        echo "coordinator /v1/knn $body differs from the uncut server:" >&2
        echo "  uncut:       $want" >&2
        echo "  coordinator: $got" >&2
        exit 1
    fi
done
kill -TERM "$whole_pid"
wait "$whole_pid"
epoch0=$(printf '%s' "$knn" | tr -d '\r' | sed -n 's/^X-Epoch: //p')
curl -fsS -X POST "http://$coord_addr/v1/objects" \
    -d '{"objects":[{"id":9001,"x":800,"y":800}]}' | grep -q '"epoch":1'
knn2=$(curl -fsSi -X POST "http://$coord_addr/v1/knn" -d '{"x":800,"y":800,"k":3}')
epoch1=$(printf '%s' "$knn2" | tr -d '\r' | sed -n 's/^X-Epoch: //p')
if [ "${epoch0:-}" != "0" ] || [ "${epoch1:-}" != "1" ]; then
    echo "coordinator X-Epoch did not advance across an upsert (before=$epoch0 after=$epoch1)" >&2
    exit 1
fi
if ! printf '%s' "$knn2" | grep -q '"id":9001'; then
    echo "post-upsert coordinator /v1/knn does not see object 9001: $knn2" >&2
    exit 1
fi
kill -TERM "$coord_pid"
if ! wait "$coord_pid"; then
    echo "skcoord exited non-zero after SIGTERM" >&2
    cat /tmp/skcoord.check.out >&2
    exit 1
fi
grep -q '# bye' /tmp/skcoord.check.out
kill -TERM "$shard0_pid" "$shard1_pid"
wait "$shard0_pid" "$shard1_pid"
trap - EXIT

echo "== snapshot determinism =="
# skgen builds on every core: the DDM, MSDN and pathnet stages run
# concurrently and the tile snapshots are written concurrently. None of it
# may move a byte. The benchmark's terrain, cut into the fleet's 2x1 tiles,
# is generated once on one core and once on two; every snapshot and the
# manifest must compare equal.
go build -o /tmp/skgen.check ./cmd/skgen
rm -rf /tmp/skdet.check.1 /tmp/skdet.check.2
for procs in 1 2; do
    mkdir -p "/tmp/skdet.check.$procs"
    GOMAXPROCS=$procs /tmp/skgen.check -preset BH -size 64 -cell 100 -seed 2006 \
        -o "/tmp/skdet.check.$procs/bh.sdem" -db "/tmp/skdet.check.$procs/bh.skdb" \
        -db-objects 160 -tiles 2x1 > /dev/null
done
for f in bh.skdb bh-tile-0-0.skdb bh-tile-1-0.skdb bh.manifest.json; do
    if ! cmp "/tmp/skdet.check.1/$f" "/tmp/skdet.check.2/$f"; then
        echo "$f differs between GOMAXPROCS=1 and GOMAXPROCS=2" >&2
        exit 1
    fi
done
rm -rf /tmp/skdet.check.1 /tmp/skdet.check.2

echo "== fuzz smoke =="
# A few seconds per target: enough to catch regressions in the seeds and
# shallow mutations without stalling the gate. -fuzzminimizetime is capped
# because minimising a large interesting input re-runs the target
# thousands of times (see internal/core/fuzz_targets_test.go).
for spec in \
    internal/core:FuzzLoadSnapshot \
    internal/core:FuzzMR3Invariants \
    internal/core:FuzzDistanceRangeInvariants \
    internal/core:FuzzObjstoreEquivalence \
    internal/objstore:FuzzStoreModel \
    internal/core:FuzzUpperBoundOracle \
    internal/core:FuzzLowerBoundOracle \
    internal/sdn:FuzzChainKernel \
    internal/pathnet:FuzzSharedSourceMatchesClipped \
    internal/multires:FuzzSharedUpperBound \
    internal/sklang:FuzzParseRoundTrip; do
    dir=${spec%:*}
    target=${spec#*:}
    go test "./$dir" -run '^$' -fuzz "^${target}\$" -fuzztime 5s -fuzzminimizetime=5x
done

echo "== non-test Go lines (delta vs the previous commit) =="
./scripts/loc.sh HEAD~1

echo "== all checks passed =="
