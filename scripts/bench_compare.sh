#!/bin/sh
# Wall-clock regression guard: compare the freshly written
# BENCH_smoke.json against the committed baseline
# (git show HEAD:BENCH_smoke.json).
#
#   - bench.plot_ms sum        wall-clock for the whole smoke workload
#   - phase.fetch_ms p95       per-plot target-read tail
#   - phase.interp_ms p95      per-plot interpretation tail
#
# Each fails when the new value exceeds the baseline by more than 25%,
# with a 100 ms absolute slack floor so timer noise cannot trip it on a
# fast machine (upper bounds only: getting faster always passes).  A
# missing artifact, baseline or field fails too.  This is the one gate
# that compares two runs; every check on a single run is a row of the
# gate table that its bench mode writes into its BENCH_<mode>.json.
set -eu

BUDGET_PCT=25
SLACK_MS=100
FILE=BENCH_smoke.json

# histo_field NAME FIELD < json: one numeric field of one histogram
histo_field() {
    grep -o "\"$1\":{[^}]*}" | sed -n "s/.*\"$2\":\([0-9.eE+-]*\).*/\1/p"
}

[ -f "$FILE" ] || { echo "bench-compare: $FILE missing (run make bench-smoke first)"; exit 1; }
baseline=$(git show HEAD:"$FILE" 2>/dev/null) \
    || { echo "bench-compare: no committed baseline for $FILE"; exit 1; }

fail=0

# gate NAME FIELD: upper-bound compare of one histogram field
gate() {
    base=$(printf '%s' "$baseline" | histo_field "$1" "$2")
    cur=$(histo_field "$1" "$2" < "$FILE")
    if [ -z "$base" ] || [ -z "$cur" ]; then
        echo "bench-compare: $1 $2 missing (baseline '${base}', fresh '${cur}')"
        fail=1
        return 0
    fi
    awk -v base="$base" -v cur="$cur" -v pct="$BUDGET_PCT" -v slack="$SLACK_MS" -v label="$1 $2" 'BEGIN {
        budget = base * (1 + pct / 100);
        if (budget < base + slack) budget = base + slack;
        printf "bench-compare: %-22s %10.2f ms vs baseline %10.2f ms (budget %10.2f ms)\n",
            label, cur, base, budget;
        exit (cur > budget) ? 1 : 0;
    }' || fail=1
}

gate "bench.plot_ms" "sum"
gate "phase.fetch_ms" "p95"
gate "phase.interp_ms" "p95"

exit "$fail"
