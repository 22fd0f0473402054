#!/usr/bin/env bash
# CI gate: formatting, vet, build, race-enabled tests, and the static
# verifier over every example MC program (both management modes).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...
# gencorpus.go is //go:build ignore, so ./... never compiles it.
go vet gencorpus.go

echo "== go build =="
go build ./...
# One strict reader for every JSON artifact: `unibench -verify FILE...`
# picks each file's checks by its schema tag.
go build -o /tmp/unibench-verify-ci ./cmd/unibench

echo "== lint-smoke (unilint: determinism/panic/cancellation invariants) =="
# The stdlib-only static-analysis suite (internal/lint) must prove its
# own analyzers against the planted-bug fixtures, then run clean over the
# whole tree: zero unsuppressed findings, and the unicache-lint/v1
# artifact it emits must verify. Budgeted like replay-smoke: the loader
# type-checks the module plus the stdlib closure from source in a few
# seconds, so 60s catches any wholesale regression.
LINT_T0=$SECONDS
go build -o /tmp/unilint-ci ./cmd/unilint
go test -count=1 -run 'TestFixtures' ./internal/lint
/tmp/unilint-ci -q -json /tmp/lint-ci.json ./...
/tmp/unibench-verify-ci -verify /tmp/lint-ci.json
LINT_SEC=$((SECONDS - LINT_T0))
echo "lint-smoke: ${LINT_SEC}s"
if [ "$LINT_SEC" -gt 60 ]; then
    echo "lint-smoke took ${LINT_SEC}s, budget is 60s" >&2
    exit 1
fi
rm -f /tmp/unilint-ci /tmp/lint-ci.json

echo "== go test -race =="
go test -race ./...

echo "== bench-smoke (webs pass, liveness, register allocator, compile layer, prefilter, exact analysis, VM and replay micro-benchmarks compile and run) =="
go test -run '^$' -bench SplitWebs -benchtime 1x ./internal/dataflow
go test -run '^$' -bench LivenessProgen -benchtime 1x ./internal/dataflow
go test -run '^$' -bench AllocateProgen -benchtime 1x ./internal/regalloc
go test -run '^$' -bench CompileProgen -benchtime 1x ./internal/codegen
go test -run '^$' -bench AnalyzeCacheProgen -benchtime 1x ./internal/check
go test -run '^$' -bench ExactProgen -benchtime 1x ./internal/exact
go test -run '^$' -bench RunProgen -benchtime 1x ./internal/vm
go test -run '^$' -bench Replay -benchtime 1x ./internal/replay

echo "== unicheck (benchmark suite) =="
go run ./cmd/unicheck

echo "== unicheck (examples/mc) =="
go run ./cmd/unicheck examples/mc/*.mc

echo "== cli-smoke (unisim and unicc end to end) =="
# The simulator runs a benchmark under both modes and a non-default
# policy/dead-marking pair; bad policy and mode names must exit 1 with
# the flags phase; the compiler's check dump must pass on an example.
go build -o /tmp/unisim-ci ./cmd/unisim
go build -o /tmp/unicc-ci ./cmd/unicc
/tmp/unisim-ci -benchmark sieve -mode unified >/dev/null
/tmp/unisim-ci -benchmark sieve -mode conventional >/dev/null
/tmp/unisim-ci -benchmark sieve -policy fifo -dead demote >/dev/null
for bad in "-policy min" "-mode bogus"; do
    rc=0
    /tmp/unisim-ci -benchmark sieve $bad >/dev/null 2>/tmp/unisim-ci.err || rc=$?
    if [ "$rc" != 1 ] || ! grep -q '^unisim: flags: ' /tmp/unisim-ci.err; then
        echo "unisim $bad: exit $rc, want 1 with the flags phase" >&2
        cat /tmp/unisim-ci.err >&2
        exit 1
    fi
done
/tmp/unicc-ci -dump check examples/mc/loops.mc | grep -qx 'check: ok'
rm -f /tmp/unisim-ci /tmp/unicc-ci /tmp/unisim-ci.err

echo "== go test -race (focused: sweep, artifact, vm, serve) =="
# The parallel sweep engine, the artifact layer, and the serving stack
# are the goroutine-heavy subsystems; give them a dedicated race pass at
# higher iteration count than the blanket run above.
go test -race -count=2 ./internal/sweep ./internal/artifact ./internal/vm ./internal/serve ./internal/serve/loadtest

echo "== lifecycle race (serve, campaign, artifact; repeated, shuffled) =="
# Sessions, pins, dispatchers, batch windows and GC interleave differently
# on every run. Repeat their suites in shuffled order under the race
# detector so a lifecycle ordering bug fails CI, not an occasional run.
go test -race -count=20 -shuffle=on ./internal/serve ./internal/campaign ./internal/artifact

# fuzz_smoke runs one fuzz target for 10 s, prints the exec count of each
# of its progress lines, and fails unless that count rises from every
# line to the next: a target whose count stands still has stopped
# fuzzing for the rest of its window. A third argument of "ends" only
# asks for a last line that counts execs, for a target whose seed corpus
# alone takes most of the window. Each run starts from the seed corpus
# in a fresh fuzz cache: a cache that grows from run to run makes the
# replay of its corpus fill the window, and slow targets then fuzz no
# new input at all. Minimizing a new input is capped at 100 runs:
# uncapped, a minimization can take most of the window while the exec
# count stands still. On failure it prints the whole run.
fuzz_smoke() {
    local cache out counts
    cache=$(mktemp -d)
    if ! out=$(go test -run 'xxx^' -fuzz "$1\$" -fuzztime 10s -fuzzminimizetime 100x "$2" \
        -args -test.fuzzcachedir="$cache" 2>&1); then
        rm -rf "$cache"
        echo "$out"
        return 1
    fi
    rm -rf "$cache"
    counts=$(echo "$out" | sed -n 's/.* execs: \([0-9]*\) .*/\1/p' | tr '\n' ' ')
    echo "$1: execs $counts"
    if ! echo "$counts" | awk -v mode="${3:-every}" '
        mode == "ends" { exit !(NF >= 1 && $NF > 0) }
        NF < 2 { exit 1 }
        { for (i = 2; i <= NF; i++) if ($i <= $(i - 1)) exit 1 }'; then
        echo "$1: exec count stopped rising" >&2
        echo "$out"
        return 1
    fi
}

echo "== fuzz smoke (10s per target) =="
fuzz_smoke FuzzCompile .
fuzz_smoke FuzzAsmRoundTrip ./internal/isa
fuzz_smoke FuzzCacheModel ./internal/cache
fuzz_smoke FuzzExact ./internal/exact
fuzz_smoke FuzzDiff ./internal/difftest
fuzz_smoke FuzzTraceCodec ./internal/replay
fuzz_smoke FuzzReplayKernel ./internal/replay

echo "== diff-smoke (differential conformance, fixed seed window) =="
# 200 generated programs through every compile config x cache geometry
# against the reference interpreter; any divergence is minimized and the
# gate fails. The checked-in reproducers are replayed as regressions.
go run ./cmd/unidiff -seed 1 -n 200 -q
go run ./cmd/unidiff examples/difftest/*.mc

echo "== exact-smoke (refinement + static-vs-dynamic oracle) =="
# The refinement must run clean over the examples and the benchmark
# suite, the precision table must stay byte-identical to the checked-in
# golden, and the oracle must confirm every verdict on the two smallest
# benchmarks by replaying them on the production VM. E12 is regenerated
# too and must match BENCH_exact.json byte for byte: its records pin the
# solver's step counts, peak widths and budget-exhaustion points.
go run ./cmd/unicheck -exact examples/mc/*.mc
go run ./cmd/unicheck -exact
go run ./cmd/unibench -experiment precision > /tmp/precision-ci.txt
diff -u BENCH_precision.txt /tmp/precision-ci.txt
rm -f /tmp/precision-ci.txt
go run ./cmd/unibench -experiment scaling -scaling-out /tmp/exact-ci.json >/dev/null
cmp BENCH_exact.json /tmp/exact-ci.json
/tmp/unibench-verify-ci -verify /tmp/exact-ci.json
rm -f /tmp/exact-ci.json
go run ./cmd/unicheck -oracle -bench queen,sieve

echo "== exact-scale-smoke (antichain vs power-set reference, generated programs) =="
# Mid-size generated programs (sieve + progen seeds 3, 5, 8 at scale 2,
# both modes) with interprocedural summaries on. The Go test compares
# the antichain solver with the power-set reference solver kept in the
# exact package's tests and fails on any per-site verdict divergence;
# it and unicheck both replay every verdict on the production VM. The
# fuzz pass drives the same differential over fresh progen programs
# (SmallKnobs); its seed corpus alone takes most of the 10 s window, so
# fuzz_smoke only asks its last progress line to count execs.
go test -count=1 -run 'TestSolversAgreeOnGeneratedWindow$' ./internal/exact
go run ./cmd/unicheck -oracle -interproc -bench sieve -gen 3,5,8 -gen-scale 2
fuzz_smoke FuzzExactAntichain ./internal/exact ends

echo "== fault campaigns (bubble, sieve, queen) =="
# queen is the one benchmark of the three whose unified code drops kills
# under lost-kills (bubble and sieve inject none). The table, cache
# misses and stuck-way references included, must match
# BENCH_resilience.txt byte for byte.
go run ./cmd/unibench -experiment resilience -bench bubble,sieve,queen > /tmp/resilience-ci.txt
diff -u BENCH_resilience.txt /tmp/resilience-ci.txt
rm -f /tmp/resilience-ci.txt

echo "== sweep smoke (determinism + resume artifact) =="
# A small grid swept at 1 and 8 workers must produce byte-identical
# artifacts, and the checked-in full-grid artifact must still verify.
# Each sweep runs the VM once per (benchmark, compiler) pair, 2 on this
# grid: conventional units replay the unified program's trace.
# Then a sweep killed halfway through its first execution identity (the
# first 6 records of a 24-unit group in the sidecar, no artifact) must
# resume to the same bytes.
go build -o /tmp/unisweep-ci ./cmd/unisweep
SWEEP_GRID="-bench bubble,sieve -sets 8,16 -ways 1,2"
for w in 1 8; do
	/tmp/unisweep-ci $SWEEP_GRID -quiet -o /tmp/sweep-w$w.json -workers $w 2>/tmp/sweep-w$w.err
	cat /tmp/sweep-w$w.err
	grep -q ', 2 VM runs, ' /tmp/sweep-w$w.err || { echo "sweep smoke: want 2 VM runs (one per benchmark and compiler)"; exit 1; }
done
cmp /tmp/sweep-w1.json /tmp/sweep-w8.json
/tmp/unibench-verify-ci -verify /tmp/sweep-w1.json BENCH_sweep.json
rm -f /tmp/sweep-resume.json
grep '^{"key":' /tmp/sweep-w1.json | head -n 6 >/tmp/sweep-resume.json.partial
/tmp/unisweep-ci $SWEEP_GRID -quiet -o /tmp/sweep-resume.json -resume
cmp /tmp/sweep-w1.json /tmp/sweep-resume.json
rm -f /tmp/unisweep-ci /tmp/sweep-w1.json /tmp/sweep-w8.json /tmp/sweep-w1.err /tmp/sweep-w8.err /tmp/sweep-resume.json

echo "== replay-smoke (engine equivalence, wall-time budget) =="
# The replay engine's differential suite (replay of VM-encoded traces
# must reproduce the run's own cache statistics at several worker
# counts), then a timed `-experiment all`: the full table regeneration
# took ~56s before the replay engine existed, so a 45s ceiling catches
# any wholesale performance regression while leaving headroom for
# machine variance. Its tables must equal the golden BENCH_tables.txt.
go test -race -run 'TestReplayMatchesVM|TestBatchMatchesSingle' -short ./internal/replay
go build -o /tmp/unibench-ci ./cmd/unibench
ALL_T0=$SECONDS
/tmp/unibench-ci -experiment all >/tmp/unibench-all-ci.txt 2>/dev/null
ALL_SEC=$((SECONDS - ALL_T0))
echo "-experiment all: ${ALL_SEC}s (pre-replay baseline: ~56s)"
if [ "$ALL_SEC" -gt 45 ]; then
    echo "-experiment all took ${ALL_SEC}s, budget is 45s" >&2
    exit 1
fi
diff -u BENCH_tables.txt /tmp/unibench-all-ci.txt
rm -f /tmp/unibench-ci /tmp/unibench-all-ci.txt

echo "== perfbench (benchmark module: vet + tests) =="
# perfbench/ is its own Go module, so the blanket stages above never
# compile it; a repo API change would otherwise only surface when the
# benchmark runs.
(cd perfbench && go vet . && go test -count=1 .)

echo "== serve-smoke (daemon boot, dedup, panic isolation, drain) =="
# Boot unicached on an ephemeral port, drive it with concurrent mixed
# unicall traffic (the dedup probe requires single-flight hits), prove an
# injected panic comes back structured while the daemon stays healthy,
# run a short seeded load test whose report must verify, check the
# committed BENCH_serve.json schema, and finally SIGTERM the daemon: it
# must drain and exit 0 within the drain deadline.
go build -o /tmp/unicached-ci ./cmd/unicached
go build -o /tmp/unicall-ci ./cmd/unicall
rm -f /tmp/unicached-ci.addr
/tmp/unicached-ci -addr 127.0.0.1:0 -addr-file /tmp/unicached-ci.addr \
    -debug -drain 10s >/tmp/unicached-ci.log 2>&1 &
UCD_PID=$!
for i in $(seq 1 100); do
    [ -s /tmp/unicached-ci.addr ] && break
    sleep 0.1
done
[ -s /tmp/unicached-ci.addr ] || { echo "daemon never bound" >&2; cat /tmp/unicached-ci.log >&2; exit 1; }
/tmp/unicall-ci -addr-file /tmp/unicached-ci.addr health
/tmp/unicall-ci -addr-file /tmp/unicached-ci.addr -n 16 -c 4 -min-dedup 8 \
    simulate examples/mc/loops.mc >/dev/null
/tmp/unicall-ci -addr-file /tmp/unicached-ci.addr -requests 400 -bench /tmp/serve-bench-ci.json loadtest \
    >/tmp/serve-loadtest-ci.txt
cat /tmp/serve-loadtest-ci.txt
/tmp/unicall-ci -addr-file /tmp/unicached-ci.addr health
/tmp/unibench-verify-ci -verify /tmp/serve-bench-ci.json BENCH_serve.json
kill -TERM "$UCD_PID"
DRAIN_OK=0
for i in $(seq 1 100); do
    if ! kill -0 "$UCD_PID" 2>/dev/null; then DRAIN_OK=1; break; fi
    sleep 0.1
done
[ "$DRAIN_OK" = 1 ] || { echo "daemon did not drain within 10s of SIGTERM" >&2; kill -9 "$UCD_PID"; exit 1; }
wait "$UCD_PID" || { echo "daemon exited nonzero after drain" >&2; exit 1; }
grep -q "drained" /tmp/unicached-ci.log || { echo "no drain confirmation in daemon log" >&2; exit 1; }
rm -f /tmp/unicached-ci /tmp/unicall-ci /tmp/unicached-ci.addr /tmp/unicached-ci.log /tmp/serve-loadtest-ci.txt \
    /tmp/serve-bench-ci.json

echo "== campaign-smoke (remote sweep conformance + liveness store GC) =="
# Boot a disk-backed daemon with a store budget, run a reduced paper grid
# both locally and through the /v1/sweep campaign endpoint, and require
# the two artifacts to be byte-identical. Then one GC cycle (via unicall)
# against the daemon's configured budget, schema checks on the freshly
# written and the committed BENCH_campaign.json, and a SIGTERM drain.
# Budgeted at 60s: the grid is 32 units and both runs share nothing.
CAMP_T0=$SECONDS
go build -o /tmp/unicached-ci ./cmd/unicached
go build -o /tmp/unicall-ci ./cmd/unicall
go build -o /tmp/unisweep-ci ./cmd/unisweep
rm -rf /tmp/unicached-ci-store
rm -f /tmp/unicached-ci.addr
/tmp/unicached-ci -addr 127.0.0.1:0 -addr-file /tmp/unicached-ci.addr \
    -cache-dir /tmp/unicached-ci-store -store-budget $((4*1024*1024)) \
    -drain 10s >/tmp/unicached-ci.log 2>&1 &
UCD_PID=$!
for i in $(seq 1 100); do
    [ -s /tmp/unicached-ci.addr ] && break
    sleep 0.1
done
[ -s /tmp/unicached-ci.addr ] || { echo "daemon never bound" >&2; cat /tmp/unicached-ci.log >&2; exit 1; }
CAMP_GRID="-bench bubble,sieve -sets 8,16 -ways 1,2 -policies lru,fifo"
/tmp/unisweep-ci $CAMP_GRID -quiet -o /tmp/campaign-local-ci.json
/tmp/unisweep-ci $CAMP_GRID -remote-addr-file /tmp/unicached-ci.addr \
    -remote-gc -campaign-bench /tmp/campaign-bench-ci.json \
    -o /tmp/campaign-remote-ci.json
cmp /tmp/campaign-local-ci.json /tmp/campaign-remote-ci.json
/tmp/unibench-verify-ci -verify /tmp/campaign-remote-ci.json /tmp/campaign-bench-ci.json \
    BENCH_campaign.json
/tmp/unicall-ci -addr-file /tmp/unicached-ci.addr gc >/dev/null
kill -TERM "$UCD_PID"
DRAIN_OK=0
for i in $(seq 1 100); do
    if ! kill -0 "$UCD_PID" 2>/dev/null; then DRAIN_OK=1; break; fi
    sleep 0.1
done
[ "$DRAIN_OK" = 1 ] || { echo "daemon did not drain within 10s of SIGTERM" >&2; kill -9 "$UCD_PID"; exit 1; }
wait "$UCD_PID" || { echo "daemon exited nonzero after drain" >&2; exit 1; }
CAMP_SEC=$((SECONDS - CAMP_T0))
echo "campaign-smoke: ${CAMP_SEC}s"
if [ "$CAMP_SEC" -gt 60 ]; then
    echo "campaign-smoke took ${CAMP_SEC}s, budget is 60s" >&2
    exit 1
fi
rm -rf /tmp/unicached-ci-store
rm -f /tmp/unicached-ci /tmp/unicall-ci /tmp/unisweep-ci /tmp/unicached-ci.addr \
    /tmp/unicached-ci.log /tmp/campaign-local-ci.json /tmp/campaign-remote-ci.json \
    /tmp/campaign-bench-ci.json

rm -f /tmp/unibench-verify-ci
echo "CI OK"
