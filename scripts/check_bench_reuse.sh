#!/bin/sh
# Reuse guard for the paper artifacts that share simulation points.
# Tables 4-6 and Figure 4 read points that Table 3, Figure 5 and
# Figure 6 already simulate. Run in paper order over one fresh result
# store, each of the four must be served entirely from the store
# ("0 misses"), and its output must be byte-identical to a run with no
# store (the cache tally line aside). Barnes times out at high
# overhead, so its N/A points (ok=false) round-trip through the store
# too. Figure 4's PGM images are compared as well.
#
# Usage: scripts/check_bench_reuse.sh [build-dir] (default: build)
set -eu

BUILD=$(cd "${1:-build}" && pwd)
BIN="$BUILD/bench"
export NOW_SCALE=0.01
unset NOW_CACHE_DIR

WORK=$(mktemp -d "${TMPDIR:-/tmp}/nowreuse-XXXXXX")
trap 'rm -rf "$WORK"' EXIT INT TERM
mkdir "$WORK/stored" "$WORK/plain"

# The artifacts that must be served from Table 3's, Figure 5's and
# Figure 6's points.
CONSUMERS="table4_comm_summary fig4_balance table5_overhead_model
table6_gap_model"

run() { # dir artifact [args...]
    dir=$1 name=$2
    shift 2
    (cd "$WORK/$dir" && "$BIN/bench_$name" "$@" > "$name.txt" 2>/dev/null) \
        || { echo "check_bench_reuse: bench_$name failed" >&2; exit 1; }
}

# Paper order: each consumer runs after the producer it reads.
for a in table3_apps_baseline fig5_overhead table4_comm_summary \
    fig4_balance table5_overhead_model fig6_gap table6_gap_model; do
    run stored "$a" --cache-dir "$WORK/store"
done

status=0
for a in $CONSUMERS; do
    tally=$(grep '^cache: ' "$WORK/stored/$a.txt" || true)
    echo "$a: ${tally:-no cache tally}"
    case "$tally" in
    *" 0 misses"*) ;;
    *)
        echo "check_bench_reuse: $a re-simulated points the" \
            "producers already stored" >&2
        status=1
        ;;
    esac

    run plain "$a"
    if ! grep -v '^cache: ' "$WORK/stored/$a.txt" |
        cmp -s - "$WORK/plain/$a.txt"; then
        echo "check_bench_reuse: $a differs when served from the store" >&2
        grep -v '^cache: ' "$WORK/stored/$a.txt" |
            diff - "$WORK/plain/$a.txt" | head -20 >&2
        status=1
    fi
done
if ! diff -r "$WORK/stored/fig4" "$WORK/plain/fig4" > /dev/null; then
    echo "check_bench_reuse: Figure 4 images differ when served" >&2
    status=1
fi
# The guard is only as good as its coverage: it must include points
# that blew their time budget (Barnes under high overhead).
grep -q 'N/A' "$WORK/stored/table5_overhead_model.txt" || {
    echo "check_bench_reuse: Table 5 has no N/A point to round-trip" >&2
    status=1
}

[ "$status" -eq 0 ] && echo "check_bench_reuse: ok"
exit "$status"
