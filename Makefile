# Tier-1 verification gate.
#
# `make check` is what CI (and the next contributor) should run: it
# builds everything including the examples, runs the full test suite,
# exercises the fault-injected transport path (bench smoke at two fault
# rates), lints formatting, and does one full bench iteration so that a
# broken build or a broken evaluation shape is caught mechanically.
#
# Every bench mode ends in one gate table: it prints the rows (name,
# value, bound, ok), writes them into its BENCH_<mode>.json as "gates",
# and exits 1 after writing if any row failed.  The smoke targets below
# therefore only run the bench; the checks live in bench/main.ml.

.PHONY: all test bench bench-smoke chaos-smoke perf-smoke session-smoke campaign-smoke crash-smoke obs-smoke bench-compare fmt-check ci check clean

all:
	dune build @all

test: all
	dune runtest

bench:
	dune exec bench/main.exe

# Degradation table only: the Table 2 workload over a faulty serial
# link at a clean and a lossy rate. Gates that every plot completes and
# that the read-cache counters are exported; prints the
# breaker/retry/budget counters.
bench-smoke: all
	dune exec bench/main.exe -- --fault-rate 0.0,0.05 --profile kgdb_rpi400 --deadline-ms 500 --seed 7

# Chaos smoke: the Table 2 figures extracted while seeded mutators race
# the walk (clean, 5%, 20%). The bench gates zero uncaught exceptions
# and cached-vs-cold render identity at every rate, at least one torn
# section at every nonzero rate, and a nonzero sanity.checked counter,
# so neither the harness nor the sanitizer can go silently vacuous.
chaos-smoke: all
	dune exec bench/main.exe -- --chaos-rate 0.0,0.05,0.2 --seed 803845
	@echo "chaos-smoke: ok"

# Perf smoke (ISSUE 5): the repeat-plot workload over the slow KGDB
# link profile. The bench gates the caches: box hit-rate >= 50%, wire
# fetches per warm refresh at least 5x below the uncached control,
# warm-refresh p50 at least 3x under the cold plot p50, and written-
# kernel refreshes that render like cold plots with the planner firing.
perf-smoke: all
	dune exec bench/main.exe -- --repeat-plot 5 --seed 7
	@echo "perf-smoke: ok"

# Session smoke (ISSUE 6): the multi-session isolation bench.  The
# bench gates: one session storming at the given fault rate (plus one
# forced breaker-Open round) leaves the healthy sessions' p95 within
# 25% of an identically-seeded all-healthy twin fleet, their renders
# byte-identical to cache-off solo extractions, every refusal a typed
# Rejected (capacity included), the cold-plot read cache actually
# shared across sessions, a killed fleet replayed from its journal
# snapshot with pane/box ids reproduced, per-session counters that
# are >= 0 and add up, and the SLO split (ISSUE 8): the sick session
# burns its clean_reads budget >= 1x, every healthy one < 1x, and a
# histogram exemplar carries a trace id.  Writes the committed
# BENCH_sessions.json.
session-smoke: all
	dune exec bench/main.exe -- --sessions 4 --fault-rate 0.2 --seed 7
	@echo "session-smoke: ok"

# Campaign smoke (ISSUE 7/9): the committed chaos campaigns, with
# their expect lines as gate rows — crash_storm (a bit-flipped
# WAL record and two full crash-recoveries from the durable journal,
# one mid-outage), flap_recover (hard outages on a replica-less
# target: quarantine, [STALE] service, bounded TTR) then gray_ramp (a
# gray-failure ramp hedged to a healthy replica before the breaker
# opens, byte-identity gated).  Every campaign also gates p95 ratio
# <= 1.30 against its healthy twin and the export of its TTR, health,
# SLO and exemplar metrics.  gray_ramp runs last, so the committed
# BENCH_campaign.json holds its numbers.
campaign-smoke: all
	dune exec bench/main.exe -- --campaign campaigns/crash_storm.campaign --seed 7
	dune exec bench/main.exe -- --campaign campaigns/flap_recover.campaign --seed 7
	dune exec bench/main.exe -- --campaign campaigns/gray_ramp.campaign --seed 7
	@echo "campaign-smoke: ok"

# Crash-point torture (ISSUE 9): record a run of journaled panel ops,
# then crash at EVERY record boundary and recover three ways per point
# (exact prefix, torn final record, bit-flipped earlier record).  The
# bench gates: every clean prefix recovers bit-identically (pane ids,
# box ids, rendered text), torn tails are dropped not tripped over, a
# flipped bit degrades only the owning session (typed salvage), an
# unsalvageable snapshot quarantines every session rather than
# raising, and (non-vacuity) at least one crash point and one salvage.
crash-smoke: all
	dune exec bench/main.exe -- --crash campaigns/crash_storm.campaign --seed 7
	@echo "crash-smoke: ok"

# Wall-clock regression guard, the one gate across two runs: fresh
# BENCH_smoke.json vs. the committed baseline (25% relative budget
# with a 100 ms absolute slack floor).
bench-compare:
	sh scripts/bench_compare.sh

# Observability overhead guard: bench smoke with tracing off vs. on,
# twice each; fails if the enabled-mode geomean slowdown exceeds 2x.
obs-smoke: all
	sh scripts/obs_smoke.sh

# No ocamlformat in the build image, so the formatting gate is a
# whitespace lint: no tabs or trailing blanks in source files.
fmt-check:
	@if grep -rnP '[ \t]+$$|\t' --include='*.ml' --include='*.mli' lib bin bench test; then \
		echo "fmt-check: tabs or trailing whitespace found (see above)"; exit 1; \
	else echo "fmt-check: clean"; fi

ci: all test bench-smoke session-smoke campaign-smoke crash-smoke bench-compare chaos-smoke perf-smoke obs-smoke fmt-check

check: ci bench

clean:
	dune clean
