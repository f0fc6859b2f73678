#!/usr/bin/env bash
# Chaos drill for the live sampling service, out of process. Act 1 runs
# the in-process equivalence experiment (gps-bench -exp chaos): a faulted
# life — transient 503s, lost ingest acks, a checkpoint fsync error, a
# shard panic — must converge to estimates bit-identical to a fault-free
# baseline through the at-least-once client. Act 2 replays the same story
# against a real gps-serve process armed via -faults: a lost ack is
# retried under the same sequence number and deduplicated, a shard panic
# is healed by the supervisor with zero loss, a checkpoint refuses
# cleanly under an injected fsync error and leaves no torn file, and a
# kill -9 mid-ingest followed by -restore + re-ingest reproduces the
# exact triangle count. Failures along the way must be loud: wrong flag
# combinations exit non-zero and injected faults surface as transient
# HTTP classes with JSON error bodies, never as silent corruption.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill -9 "${server_pid:-}" 2>/dev/null || true; rm -rf "$workdir"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

echo "== build"
go build -o "$workdir" ./cmd/gps-gen ./cmd/gps-sample ./cmd/gps-serve ./cmd/gps-bench

echo "== act 1: in-process equivalence drill (gps-bench -exp chaos)"
"$workdir/gps-bench" -exp chaos -edges 40000 -sample 4000 | tee "$workdir/chaos.txt"
grep -q 'BIT-IDENTICAL' "$workdir/chaos.txt" || fail "equivalence drill did not certify bit-identical estimates"

echo "== induced misuse must exit non-zero with an error message"
if "$workdir/gps-serve" -faults 'not-a-spec' 2> "$workdir/badspec.err"; then
    fail "gps-serve accepted a malformed -faults spec"
fi
grep -qi 'faults' "$workdir/badspec.err" || fail "malformed -faults spec produced no error message"
if "$workdir/gps-serve" -checkpoint-on-shutdown 2> "$workdir/badshutdown.err"; then
    fail "gps-serve accepted -checkpoint-on-shutdown without -checkpoint-dir"
fi
grep -qi 'checkpoint' "$workdir/badshutdown.err" || fail "-checkpoint-on-shutdown misuse produced no error message"

echo "== generate graph + exact counts"
"$workdir/gps-gen" -type hk -n 2000 -k 6 -p 0.5 -seed 42 -format binary -out "$workdir/g.gpsb"
"$workdir/gps-gen" -type hk -n 2000 -k 6 -p 0.5 -seed 42 -out "$workdir/g.txt"
exact_line=$("$workdir/gps-sample" -in "$workdir/g.gpsb" -m 100000 -weight uniform -exact | grep '^exact:')
echo "$exact_line"
exact_triangles=$(echo "$exact_line" | sed -E 's/.*triangles=([0-9]+).*/\1/')
edges=$(wc -l < "$workdir/g.txt")
half=$((edges / 2))
head -n "$half" "$workdir/g.txt" > "$workdir/g-half1.txt"
tail -n +"$((half + 1))" "$workdir/g.txt" > "$workdir/g-half2.txt"

base=http://127.0.0.1:18427
ckptdir="$workdir/ckpt"
mkdir -p "$ckptdir"

echo "== act 2: start gps-serve ARMED (lost ack + shard panic + checkpoint fsync error)"
"$workdir/gps-serve" -addr 127.0.0.1:18427 -m $((edges + 100)) -weight uniform -staleness 0s \
    -checkpoint-dir "$ckptdir" \
    -faults 'serve.ingest.ack:error:times=1;engine.shard.drain:panic:times=1;checkpoint.fsync:error:times=1' \
    -fault-seed 7 2> "$workdir/serve.log" &
server_pid=$!
for _ in $(seq 1 50); do
    curl -fsS "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS "$base/healthz" >/dev/null
grep -q 'FAULT INJECTION ARMED' "$workdir/serve.log" || fail "armed server did not announce fault injection"

# ingest_seq posts one batch under a fixed sequence number, retrying the
# transient classes (429/5xx) with the SAME sequence — the shell version
# of the at-least-once contract. Anything else is a hard failure and must
# carry a JSON error message.
ingest_seq() { # file seq
    local code attempt
    for attempt in $(seq 1 8); do
        code=$(curl -sS -o "$workdir/resp.json" -w '%{http_code}' -X POST \
            -H "X-GPS-Source: chaos-sh" -H "X-GPS-Seq: $2" \
            --data-binary "@$1" "$base/v1/ingest")
        case "$code" in
            202) return 0 ;;
            429 | 5??)
                grep -q '"error"' "$workdir/resp.json" || fail "transient $code without a JSON error body"
                sleep 0.2 ;;
            *) fail "ingest seq $2: status $code: $(cat "$workdir/resp.json")" ;;
        esac
    done
    fail "ingest seq $2 not acknowledged within 8 attempts"
}

echo "== ingest first half under the injected lost ack (+ shard panic on first drain)"
ingest_seq "$workdir/g-half1.txt" 1
grep -q '"duplicate":true' "$workdir/resp.json" \
    || fail "lost-ack retry was not deduplicated: $(cat "$workdir/resp.json")"
curl -fsS -X POST "$base/v1/flush" >/dev/null

stats=$(curl -fsS "$base/v1/stats")
echo "$stats" | grep -q '"gps_engine_shard_restarts_total":1[,}]' || fail "supervisor restart not visible in /v1/stats: $stats"
echo "$stats" | grep -q '"gps_engine_shard_lost_edges_total":0[,}]' || fail "shard recovery lost edges: $stats"
echo "$stats" | grep -q '"gps_engine_shards_degraded":0[,}]' || fail "exact recovery left the engine degraded: $stats"
echo "$stats" | grep -q '"fault_points"' || fail "armed server does not report fault_points in /v1/stats"
echo "OK: lost ack deduplicated; shard panic healed with zero loss"

echo "== checkpoint under the injected fsync error: transient refusal, no torn file"
code=$(curl -sS -o "$workdir/ckpt.json" -w '%{http_code}' -X POST "$base/v1/checkpoint")
[ "$code" = 503 ] || fail "checkpoint under fsync fault: status $code, want 503"
grep -q '"error"' "$workdir/ckpt.json" || fail "checkpoint refusal carried no error message"
leftovers=$(find "$ckptdir" -type f ! -name '*.gpsc' | wc -l)
[ "$leftovers" = 0 ] || fail "torn checkpoint artifacts left behind: $(ls "$ckptdir")"
curl -fsS -X POST "$base/v1/checkpoint" >/dev/null || fail "checkpoint did not recover once the fault cleared"
echo "OK: fsync fault refused with 503, retry persisted cleanly"

echo "== /metrics under chaos: lint + restart counter"
curl -fsS "$base/metrics" > "$workdir/scrape.prom"
"$workdir/gps-bench" -lint "$workdir/scrape.prom"
restarts=$(awk '$1 == "gps_engine_shard_restarts_total" { print int($2) }' "$workdir/scrape.prom")
[ "$restarts" = 1 ] || fail "gps_engine_shard_restarts_total = $restarts, want 1"

echo "== kill -9 mid-ingest, then restore"
curl -sS -X POST --data-binary "@$workdir/g-half2.txt" "$base/v1/ingest" >/dev/null || true
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true

"$workdir/gps-serve" -addr 127.0.0.1:18428 -m $((edges + 100)) -weight uniform -staleness 0s \
    -restore "$ckptdir" 2>> "$workdir/serve.log" &
server_pid=$!
base=http://127.0.0.1:18428
for _ in $(seq 1 50); do
    curl -fsS "$base/healthz" >/dev/null 2>&1 && break
    sleep 0.1
done
stats=$(curl -fsS "$base/v1/stats")
restored_position=$(echo "$stats" | sed -E 's/.*"restored_position":([0-9]+).*/\1/')
[ "$restored_position" = "$half" ] || fail "restored position $restored_position != checkpointed $half"
if echo "$stats" | grep -q '"fault_points"'; then
    fail "restored server reports fault_points while disarmed"
fi

echo "== re-ingest full stream; estimate must equal exact count"
curl -fsS -X POST -H 'Content-Type: application/x-gps-edges' \
    --data-binary "@$workdir/g.gpsb" "$base/v1/ingest" >/dev/null
curl -fsS -X POST "$base/v1/flush" >/dev/null
estimate_json=$(curl -fsS "$base/v1/estimate?max_stale=0s")
served_triangles=$(echo "$estimate_json" | sed -E 's/.*"triangles":([0-9]+(\.[0-9]+)?).*/\1/')
echo "served=$served_triangles exact=$exact_triangles"
[ "${served_triangles%.*}" = "$exact_triangles" ] \
    || fail "post-chaos estimate $served_triangles != exact $exact_triangles"
echo "$estimate_json" | grep -q '"degraded":true' && fail "post-restore estimate flagged degraded"

echo "OK: chaos drill complete — faults healed, crash restored, counts exact"
