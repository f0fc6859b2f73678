#!/usr/bin/env bash
# Smoke test for the live sampling service: start gps-serve, ingest a
# generated graph (binary framing), query an estimate, and require it to
# equal the exact triangle count — with uniform weights and a reservoir
# larger than the graph the snapshot estimate is exact, so any drift is a
# bug, not noise. Along the way it scrapes /metrics mid-ingest and runs
# the scrape through the in-repo exposition checker (gps-bench -lint), so
# a malformed metric line fails the smoke before any dashboard sees it.
# The second act is the durability story: checkpoint mid-ingest, kill -9
# the server, restart with -restore, re-ingest, and require flush→estimate
# to equal the exact count again. CI runs this after the unit tests; it
# needs only curl.
# Induced failures are asserted to fail LOUDLY: flag misuse and corrupted
# restore sources must exit non-zero with an error message, and malformed
# requests must answer 4xx with a JSON error body — never a silent 200 or
# an empty crash.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill -9 "${server_pid:-}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

# expect_http METHOD URL WANT_STATUS [curl args...]: the induced failure
# must produce exactly the expected status and a JSON error message.
expect_http() {
    local method=$1 url=$2 want=$3; shift 3
    local code
    code=$(curl -sS -o "$workdir/err.json" -w '%{http_code}' -X "$method" "$@" "$url")
    [ "$code" = "$want" ] || fail "$method $url: status $code, want $want ($(cat "$workdir/err.json"))"
    grep -q '"error"' "$workdir/err.json" || fail "$method $url: $code without a JSON error body"
}

echo "== build"
go build -o "$workdir" ./cmd/gps-gen ./cmd/gps-sample ./cmd/gps-serve ./cmd/gps-bench

echo "== generate graph (binary framing)"
"$workdir/gps-gen" -type hk -n 2000 -k 6 -p 0.5 -seed 42 -format binary -out "$workdir/g.gpsb"
"$workdir/gps-gen" -type hk -n 2000 -k 6 -p 0.5 -seed 42 -out "$workdir/g.txt"

echo "== exact counts"
exact_line=$("$workdir/gps-sample" -in "$workdir/g.gpsb" -m 100000 -weight uniform -exact | grep '^exact:')
echo "$exact_line"
exact_triangles=$(echo "$exact_line" | sed -E 's/.*triangles=([0-9]+).*/\1/')
edges=$(wc -l < "$workdir/g.txt")

echo "== induced misuse must exit non-zero with an error message"
if "$workdir/gps-serve" -restore "$workdir/no-such-dir" 2> "$workdir/restore.err"; then
    fail "gps-serve accepted a nonexistent -restore source"
fi
[ -s "$workdir/restore.err" ] || fail "bad -restore produced no error message"
if "$workdir/gps-serve" -m 0 2> "$workdir/badm.err"; then
    fail "gps-serve accepted -m 0"
fi
[ -s "$workdir/badm.err" ] || fail "bad -m produced no error message"

echo "== start gps-serve"
"$workdir/gps-serve" -addr 127.0.0.1:18423 -m $((edges + 100)) -weight uniform -staleness 0s &
server_pid=$!
for _ in $(seq 1 50); do
    curl -fsS http://127.0.0.1:18423/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS http://127.0.0.1:18423/healthz >/dev/null

echo "== ingest ${edges} edges + flush (scraping /metrics mid-ingest)"
curl -fsS -X POST -H 'Content-Type: application/x-gps-edges' \
    --data-binary "@$workdir/g.gpsb" http://127.0.0.1:18423/v1/ingest
echo
# Scrape while the pipeline may still be draining: the exposition must lint
# clean at any instant, not just at rest.
curl -fsS http://127.0.0.1:18423/metrics > "$workdir/scrape-mid.prom"
"$workdir/gps-bench" -lint "$workdir/scrape-mid.prom"
curl -fsS -X POST http://127.0.0.1:18423/v1/flush
echo

echo "== query estimate"
estimate_json=$(curl -fsS 'http://127.0.0.1:18423/v1/estimate?max_stale=0s')
echo "$estimate_json"
served_triangles=$(echo "$estimate_json" | sed -E 's/.*"triangles":([0-9]+(\.[0-9]+)?).*/\1/')
curl -fsS http://127.0.0.1:18423/v1/stats
echo

echo "== compare: served=$served_triangles exact=$exact_triangles"
if [ "${served_triangles%.*}" != "$exact_triangles" ]; then
    echo "FAIL: served triangle estimate $served_triangles != exact $exact_triangles" >&2
    exit 1
fi
echo "OK: live service estimate matches exact triangle count"

echo "== /metrics after flush: lint + cross-check against the stream"
curl -fsS http://127.0.0.1:18423/metrics > "$workdir/scrape-post.prom"
"$workdir/gps-bench" -lint "$workdir/scrape-post.prom"
processed=$(awk '$1 == "gps_serve_edges_processed_total" { print int($2) }' "$workdir/scrape-post.prom")
if [ "$processed" != "$edges" ]; then
    echo "FAIL: gps_serve_edges_processed_total $processed != ingested $edges" >&2
    exit 1
fi
echo "OK: /metrics lints clean and agrees with the ingested stream"

echo "== induced request failures must answer 4xx with an error body"
printf 'not a binary frame' > "$workdir/garbage.bin"
expect_http POST "http://127.0.0.1:18423/v1/ingest" 400 \
    -H 'Content-Type: application/x-gps-edges' --data-binary "@$workdir/garbage.bin"
expect_http POST "http://127.0.0.1:18423/v1/ingest" 400 \
    -H 'X-GPS-Source: smoke' -H 'X-GPS-Seq: not-a-number' --data-binary 'a b'
expect_http GET "http://127.0.0.1:18423/v1/estimate?max_stale=bogus" 400
expect_http POST "http://127.0.0.1:18423/v1/estimate/subgraph" 400 \
    -H 'Content-Type: application/json' -d '{"edges":[[7,7]]}'
# None of those may have perturbed the stream position.
post_fail=$(curl -fsS http://127.0.0.1:18423/v1/stats | sed -E 's/.*"gps_serve_edges_processed_total":([0-9]+).*/\1/')
[ "$post_fail" = "$edges" ] || fail "rejected requests changed gps_serve_edges_processed_total: $post_fail != $edges"
echo "OK: malformed requests are rejected loudly and change nothing"

echo "== durability: checkpoint, crash, restore"
ckptdir="$workdir/ckpt"
mkdir -p "$ckptdir"
kill "$server_pid" && wait "$server_pid" 2>/dev/null || true

# Fresh server with checkpointing on; ingest the first half of the stream,
# persist, keep ingesting, then die without warning.
half=$((edges / 2))
head -n "$half" "$workdir/g.txt" > "$workdir/g-half.txt"
"$workdir/gps-serve" -addr 127.0.0.1:18424 -m $((edges + 100)) -weight uniform \
    -staleness 0s -checkpoint-dir "$ckptdir" &
server_pid=$!
for _ in $(seq 1 50); do
    curl -fsS http://127.0.0.1:18424/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS -X POST --data-binary "@$workdir/g-half.txt" http://127.0.0.1:18424/v1/ingest >/dev/null
curl -fsS -X POST http://127.0.0.1:18424/v1/checkpoint
echo
curl -fsS -X POST --data-binary "@$workdir/g.txt" http://127.0.0.1:18424/v1/ingest >/dev/null
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true

# Restart from the checkpoint directory and re-ingest the whole stream:
# edges the checkpoint already covers are ignored as duplicates (nothing
# was evicted at this capacity), edges lost in the crash are sampled now,
# so the estimate must equal the exact count again.
"$workdir/gps-serve" -addr 127.0.0.1:18425 -m $((edges + 100)) -weight uniform \
    -staleness 0s -restore "$ckptdir" &
server_pid=$!
for _ in $(seq 1 50); do
    curl -fsS http://127.0.0.1:18425/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
stats_json=$(curl -fsS http://127.0.0.1:18425/v1/stats)
restored_position=$(echo "$stats_json" | sed -E 's/.*"restored_position":([0-9]+).*/\1/')
echo "restored at position $restored_position (expected $half)"
if [ "$restored_position" != "$half" ]; then
    echo "FAIL: restored position $restored_position != checkpointed $half" >&2
    exit 1
fi
curl -fsS -X POST -H 'Content-Type: application/x-gps-edges' \
    --data-binary "@$workdir/g.gpsb" http://127.0.0.1:18425/v1/ingest >/dev/null
curl -fsS -X POST http://127.0.0.1:18425/v1/flush >/dev/null
restored_json=$(curl -fsS 'http://127.0.0.1:18425/v1/estimate?max_stale=0s')
restored_triangles=$(echo "$restored_json" | sed -E 's/.*"triangles":([0-9]+(\.[0-9]+)?).*/\1/')
echo "== compare after crash+restore: served=$restored_triangles exact=$exact_triangles"
if [ "${restored_triangles%.*}" != "$exact_triangles" ]; then
    echo "FAIL: restored estimate $restored_triangles != exact $exact_triangles" >&2
    exit 1
fi
echo "OK: crash + restore + re-ingest reproduces the exact triangle count"

echo "== a corrupted checkpoint must fail restore loudly"
kill "$server_pid" && wait "$server_pid" 2>/dev/null || true
ckpt_file=$(ls "$ckptdir"/*.gpsc | head -n 1)
head -c 100 "$ckpt_file" > "$workdir/torn.gpsc"
mkdir -p "$workdir/torn-dir"
cp "$workdir/torn.gpsc" "$workdir/torn-dir/ckpt-000001.gpsc"
if "$workdir/gps-serve" -addr 127.0.0.1:18426 -restore "$workdir/torn-dir" 2> "$workdir/torn.err"; then
    fail "gps-serve restored from a truncated checkpoint"
fi
[ -s "$workdir/torn.err" ] || fail "truncated-checkpoint restore produced no error message"
echo "OK: corrupted checkpoint rejected with: $(head -c 120 "$workdir/torn.err")"
