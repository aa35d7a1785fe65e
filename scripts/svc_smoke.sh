#!/bin/sh
# Service smoke: one nowlabd over a temporary store takes a short
# storm, then a SIGTERM. Passes only if the storm settled every
# accepted submit ("lost": 0) with no failed job, and the daemon then
# drained and said goodbye. Run it against an ASan build (CI does) and
# it doubles as a leak/UB check on the request and drain paths.
#
# Usage: scripts/svc_smoke.sh [path/to/nowlab]
set -eu
cd "$(dirname "$0")/.."

NOWLAB=${1:-./build/tools/nowlab}
[ -x "$NOWLAB" ] || { echo "svc_smoke: $NOWLAB not built" >&2; exit 1; }

WORK=$(mktemp -d /tmp/nowsvc-smoke-XXXXXX)
PID=""

cleanup() {
    [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
    echo "svc_smoke: FAIL -- $1"
    cat "$WORK/storm.log" "$WORK/nowlabd.log" 2>/dev/null || true
    exit 1
}

"$NOWLAB" serve --port 0 --jobs 2 --cache-dir "$WORK/store" \
    > "$WORK/nowlabd.log" 2>&1 &
PID=$!

PORT=""
for _ in $(seq 1 50); do
    PORT=$(sed -n 's/^nowlabd on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' \
        "$WORK/nowlabd.log" 2>/dev/null | head -1)
    [ -n "$PORT" ] && break
    sleep 0.1
done
[ -n "$PORT" ] || fail "no banner from nowlabd"

"$NOWLAB" storm --port "$PORT" --conns 8 --ops 400 --seeds 12 \
    --out "$WORK/storm.json" > "$WORK/storm.log" 2>&1 ||
    fail "storm exited non-zero"
grep -q '"lost": 0' "$WORK/storm.json" || fail "storm lost jobs"
grep -q '"failed": 0' "$WORK/storm.json" || fail "jobs failed"
cat "$WORK/storm.log"

kill -TERM "$PID"
wait "$PID" || fail "nowlabd exited non-zero after SIGTERM"
PID=""
grep -q 'nowlabd drained, bye' "$WORK/nowlabd.log" ||
    fail "nowlabd did not drain on SIGTERM"
echo "svc_smoke: PASS -- storm lost nothing, nowlabd drained on SIGTERM"
