#!/bin/sh
# serve-smoke: end-to-end proof of the whirld serving pipeline.
#
#  1. start whirld on an ephemeral port with a fresh result store
#  2. submit a sweep over HTTP and await its SSE stream (4 row events
#     + the final done event)
#  3. diff the job's CSV rows (timing/error columns stripped) against a
#     direct whirlsweep run — the daemon must be bit-identical to the CLI
#  4. resubmit the same sweep: every cell must be served from the warm
#     store with zero re-simulations (the job counters prove it)
#  5. read the same store from whirlsweep -store: the CLI and the
#     daemon share one result universe
#  6. SIGTERM must shut the daemon down gracefully (exit 0)
#
# Invoked by `make serve-smoke` (part of `make ci`).
set -eu

GO=${GO:-go}
dir=.serve-smoke
rm -rf "$dir" && mkdir -p "$dir"

fail() {
    echo "serve-smoke: $*" >&2
    [ -f "$dir/whirld.err" ] && sed 's/^/serve-smoke: whirld: /' "$dir/whirld.err" >&2
    exit 1
}

$GO build -o "$dir/whirld" ./cmd/whirld
$GO build -o "$dir/whirlsweep" ./cmd/whirlsweep

"$dir/whirld" -addr 127.0.0.1:0 -store "$dir/store" -parallel 2 \
    > "$dir/whirld.out" 2> "$dir/whirld.err" &
pid=$!
trap 'kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null' EXIT

addr=
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^whirld: listening on //p' "$dir/whirld.out")
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || fail "whirld died during startup"
    sleep 0.1
    i=$((i + 1))
done
[ -n "$addr" ] || fail "whirld never reported its listen address"
base="http://$addr"

curl -fsS "$base/healthz" > /dev/null || fail "healthz unreachable"

req='{"apps":["delaunay","MIS"],"schemes":["jigsaw","snuca-lru"],"scale":0.05}'
submit() {
    curl -fsS -X POST -H 'Content-Type: application/json' -d "$req" "$base/v1/sweeps" \
        | sed -n 's/.*"id": *"\([^"]*\)".*/\1/p'
}

# Cold run: submit, then follow the SSE stream to completion.
id=$(submit)
[ -n "$id" ] || fail "submit returned no job id"
stream=$( (curl -fsS -N --max-time 300 "$base/v1/jobs/$id/stream" || true) | sed '/^event: done/q')
rows=$(printf '%s\n' "$stream" | grep -c '^event: row') || true
[ "$rows" -eq 4 ] || fail "SSE stream delivered $rows row events, want 4"
printf '%s\n' "$stream" | grep -q '^event: done' || fail "SSE stream never sent done"

# The HTTP-computed grid must be bit-identical to the direct CLI run
# (wall-clock and error columns stripped: fields 17-18).
curl -fsS "$base/v1/jobs/$id/rows?format=csv" | cut -d, -f1-16 > "$dir/http.csv"
"$dir/whirlsweep" -apps delaunay,MIS -schemes jigsaw,snuca-lru -scale 0.05 -format csv -q \
    | cut -d, -f1-16 > "$dir/direct.csv"
diff "$dir/http.csv" "$dir/direct.csv" || fail "HTTP rows differ from the direct whirlsweep run"

# Warm resubmit: all 4 cells served from the store, zero re-simulations.
id2=$(submit)
(curl -fsS -N --max-time 300 "$base/v1/jobs/$id2/stream" || true) | grep -q '^event: done' \
    || fail "resubmitted job never finished"
status=$(curl -fsS "$base/v1/jobs/$id2")
printf '%s\n' "$status" | grep -q '"served": 4' || fail "warm resubmit did not serve 4 rows: $status"
printf '%s\n' "$status" | grep -q '"computed": 0' || fail "warm resubmit re-simulated cells: $status"

# The CLI reads the same universe: whirlsweep -store serves everything.
"$dir/whirlsweep" -apps delaunay,MIS -schemes jigsaw,snuca-lru -scale 0.05 -format csv \
    -store "$dir/store" -o /dev/null 2> "$dir/sweep.err" \
    || fail "whirlsweep -store run failed"
grep -q 'results: 4 served from' "$dir/sweep.err" \
    || fail "whirlsweep -store did not serve from the daemon's store: $(cat "$dir/sweep.err")"

# Graceful shutdown: SIGTERM, clean exit.
kill -TERM "$pid"
wait "$pid" || fail "whirld exited non-zero on SIGTERM"
trap - EXIT

rm -rf "$dir"
echo "serve-smoke OK"
