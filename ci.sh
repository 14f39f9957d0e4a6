#!/bin/sh
# ci.sh — the full steerq gate. Run from the repository root.
#
# Stages, in order:
#   1. go build ./...            everything compiles
#   2. gofmt -l                  no unformatted files
#   3. go vet ./...              stdlib vet findings
#   4. go run ./cmd/steerq-lint  all ten project analyzers (see README),
#                                filtered through lint-baseline.json; the JSON
#                                report is archived as LINT_report.json next
#                                to BENCH_pipeline.json, and stale baseline
#                                entries fail the stage
#   5. go test -race ./...       unit + property + golden tests under the
#                                race detector, with plan validation forced
#                                on via STEERQ_CHECK_PLANS
#   6. parallel smoke            the pipeline determinism tests re-run with
#                                STEERQ_WORKERS=4 so the race detector covers
#                                the worker pool on every run
#   7. alloc regression          the compile allocation budget re-checked
#                                under -race (testing.AllocsPerRun)
#   8. bench smoke               the serial and 4-worker pipeline benchmarks
#                                executed once (-benchtime=1x) so a broken or
#                                pathologically slow hot path fails CI, not
#                                the next perf run
#   9. coverage floor            go test -cover over the robustness- and
#                                observability-critical packages (faults, par,
#                                steering, obs, learning, nn, analysis, serve,
#                                bundle) with an 80% per-package floor, and
#                                internal/loadgen with a 90% floor — the load
#                                harness is itself test infrastructure, so it
#                                is held to the higher bar
#  10. fault-injection smoke     one pipeline run with a pinned fault seed and
#                                plan checking on: it must complete with every
#                                faulted job surviving via retry or fallback
#  11. metrics golden smoke      the same pinned-seed pipeline run under the
#                                frozen virtual clock (STEERQ_VCLOCK) with
#                                -metrics-out, diffed byte-for-byte against the
#                                committed snapshot golden — metric drift and
#                                nondeterminism both fail here
#  12. serving smoke             the full serving path end to end: build a
#                                pinned-seed bundle with `steerq bundle`,
#                                start steerqd on an ephemeral loopback port,
#                                smoke-query known signatures (hits and a
#                                miss) through the `steerq steer` client,
#                                drain the daemon with SIGTERM, and diff its
#                                frozen-clock metrics snapshot against the
#                                committed ci_serving.golden.json
#  13. serving load smoke        a pinned-seed steerq-bench -serving run under
#                                the frozen virtual clock: the whole
#                                BENCH_serving.json report (arrival schedules,
#                                decision mixes, worker sweep) must be
#                                byte-identical to the committed golden, the
#                                -compare-serving self-diff must pass, and an
#                                injected throughput collapse must trip the
#                                gate once the virtual-report skip is removed
#  14. perf stamp smoke          a tiny steerq-bench -perf -perf-quick run
#                                under the frozen clock with
#                                STEERQ_BENCH_FORCE_PARALLEL=1: the report's
#                                generated_unix stamp must be 0 (reports are
#                                reproducible under STEERQ_VCLOCK), the
#                                parallel leg must be measured (never
#                                skipped; oversubscribed runs are annotated,
#                                not dropped), and the workers-1/2/4/8
#                                scaling sweep must be present
#  15. bench compare smoke       steerq-bench -compare self-diffs the stage-14
#                                report (a report never regresses against
#                                itself) and then must flag an injected 10x
#                                serial regression — both the zero-delta and
#                                the gate-trips paths are exercised
#  16. benchmark module          go vet and go test inside perfbench/, its own
#                                Go module (root ./... never reaches it), run
#                                offline against this checkout, so an API
#                                change the benchmark compiles against fails
#                                here rather than in the next benchmark run
#  17. short fuzz pass           45s total over the scopeql parser/binder
#                                (including the parse-print-parse round trip)
#                                and the bundle decoder
#
# Set STEERQ_CI_SKIP_FUZZ=1 to skip stage 17 (e.g. on very slow machines).
set -eu

echo "== build =="
go build ./...

echo "== gofmt =="
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$badfmt" >&2
    exit 1
fi

echo "== vet =="
go vet ./...

echo "== steerq-lint (json report, baseline) =="
if go run ./cmd/steerq-lint -format=json -baseline lint-baseline.json ./... > LINT_report.json; then
    echo "lint clean; report archived in LINT_report.json"
else
    cat LINT_report.json
    echo "steerq-lint: findings or stale baseline entries (report above)" >&2
    exit 1
fi

echo "== test (race) =="
STEERQ_CHECK_PLANS=1 go test -race ./...

echo "== parallel pipeline smoke (race, 4 workers) =="
STEERQ_WORKERS=4 STEERQ_CHECK_PLANS=1 go test -race ./internal/steering/ ./internal/experiments/ -run 'Parallel|Determinism|Fault'

echo "== alloc regression (race) =="
go test -race ./internal/rules/ -run TestCompileAllocationBudget -count=1

echo "== bench smoke (1x, serial + 4 workers) =="
go test -run '^$' -bench 'BenchmarkPipelineWorkers(1|4)$' -benchtime=1x -benchmem .

echo "== coverage floor (faults, par, steering, obs, learning, nn, analysis, serve, bundle >= 80%) =="
go test -cover ./internal/faults/ ./internal/par/ ./internal/steering/ \
    ./internal/obs/ ./internal/learning/ ./internal/nn/ ./internal/analysis/ \
    ./internal/serve/ ./internal/bundle/ > /tmp/steerq-cover.$$
cat /tmp/steerq-cover.$$
awk '
    /coverage:/ {
        pct = 0
        for (i = 1; i <= NF; i++) if ($i ~ /%$/) { pct = $i; sub(/%/, "", pct) }
        if (pct + 0 < 80) { printf "coverage below 80%% floor: %s\n", $0; bad = 1 }
    }
    END { exit bad }
' /tmp/steerq-cover.$$
rm -f /tmp/steerq-cover.$$

echo "== coverage floor (loadgen >= 90%) =="
go test -cover ./internal/loadgen/ > /tmp/steerq-cover-load.$$
cat /tmp/steerq-cover-load.$$
awk '
    /coverage:/ {
        pct = 0
        for (i = 1; i <= NF; i++) if ($i ~ /%$/) { pct = $i; sub(/%/, "", pct) }
        if (pct + 0 < 90) { printf "coverage below 90%% floor: %s\n", $0; bad = 1 }
    }
    END { exit bad }
' /tmp/steerq-cover-load.$$
rm -f /tmp/steerq-cover-load.$$

echo "== fault-injection smoke (pinned seed 1337) =="
STEERQ_CHECK_PLANS=1 go run ./cmd/steerq pipeline -workload A -job 0/3 -m 60 -k 5 -workers 4 -fault-seed 1337 > /tmp/steerq-faults.$$
grep -q 'fault injection:' /tmp/steerq-faults.$$ || {
    echo "fault smoke: no injection stats in output" >&2
    rm -f /tmp/steerq-faults.$$
    exit 1
}
rm -f /tmp/steerq-faults.$$

echo "== metrics golden smoke (frozen clock, pinned seed 1337) =="
STEERQ_VCLOCK=1 STEERQ_CHECK_PLANS=1 go run ./cmd/steerq pipeline \
    -workload A -job 0/3 -m 60 -k 5 -workers 4 -fault-seed 1337 \
    -metrics-out /tmp/steerq-metrics.$$.json > /dev/null
diff -u cmd/steerq/testdata/ci_metrics.golden.json /tmp/steerq-metrics.$$.json || {
    echo "metrics smoke: snapshot drifted from committed golden" >&2
    echo "(if the change is intentional, regenerate with the command above)" >&2
    rm -f /tmp/steerq-metrics.$$.json
    exit 1
}
rm -f /tmp/steerq-metrics.$$.json

echo "== serving smoke (steerqd end to end, frozen clock) =="
servdir=$(mktemp -d)
STEERQ_VCLOCK=1 go run ./cmd/steerq bundle -workload B -scale 0.002 -seed 5 -day 0 \
    -max-jobs 10 -m 40 -k 3 -bundle-version 3 -created-unix 1700000000 \
    -out "$servdir/active.stqb" > /dev/null
go build -o "$servdir/steerqd" ./cmd/steerqd
STEERQ_VCLOCK=1 "$servdir/steerqd" -addr 127.0.0.1:0 -bundle "$servdir/active.stqb" \
    -addr-file "$servdir/addr.txt" -metrics-out "$servdir/serving.json" \
    2> "$servdir/steerqd.log" &
servpid=$!
i=0
while [ ! -s "$servdir/addr.txt" ] && [ $i -lt 100 ]; do i=$((i + 1)); sleep 0.1; done
[ -s "$servdir/addr.txt" ] || {
    echo "serving smoke: daemon never wrote its address file" >&2
    cat "$servdir/steerqd.log" >&2
    kill "$servpid" 2> /dev/null || true
    rm -rf "$servdir"
    exit 1
}
servaddr=$(cat "$servdir/addr.txt")
# Smoke-query the bundle's first three signatures (known groups) plus the
# all-zero signature (a guaranteed miss served from the default config).
servsigs=$(go run ./cmd/steerq bundle -inspect "$servdir/active.stqb" \
    | awk '/^entry/ { print $4 }' | cut -d= -f2 | head -3)
first=1
for sig in $servsigs $(printf '%064d' 0); do
    if [ "$first" = 1 ]; then
        go run ./cmd/steerq steer -addr "$servaddr" -wait-ready 10s -sig "$sig" > /dev/null
        first=0
    else
        go run ./cmd/steerq steer -addr "$servaddr" -sig "$sig" > /dev/null
    fi
done
kill -TERM "$servpid"
wait "$servpid" || {
    echo "serving smoke: daemon exited nonzero after SIGTERM" >&2
    cat "$servdir/steerqd.log" >&2
    rm -rf "$servdir"
    exit 1
}
diff -u cmd/steerqd/testdata/ci_serving.golden.json "$servdir/serving.json" || {
    echo "serving smoke: metrics snapshot drifted from committed golden" >&2
    echo "(if the change is intentional, regenerate with the commands above)" >&2
    rm -rf "$servdir"
    exit 1
}
rm -rf "$servdir"

echo "== serving load smoke (frozen clock, pinned seed) =="
# The whole report — bundle checksum, arrival counts, decision mixes, worker
# sweep — must reproduce byte for byte under the frozen virtual clock.
STEERQ_VCLOCK=1 go run ./cmd/steerq-bench -serving -serving-quick \
    -scale 0.002 -m 40 -serving-out /tmp/steerq-serving.$$.json > /dev/null
diff -u cmd/steerq-bench/testdata/ci_serving_load.golden.json /tmp/steerq-serving.$$.json || {
    echo "serving load smoke: BENCH_serving.json drifted from committed golden" >&2
    echo "(if the change is intentional, regenerate with the command above)" >&2
    rm -f /tmp/steerq-serving.$$.json
    exit 1
}
# A report diffed against itself never regresses.
go run ./cmd/steerq-bench -compare-serving /tmp/steerq-serving.$$.json \
    -serving-out /tmp/steerq-serving.$$.json > /dev/null
# With the virtual-report skip removed and the old report claiming enormous
# throughput, the achieved-QPS gate must trip (exit nonzero).
sed '/"virtual": true,/d' /tmp/steerq-serving.$$.json > /tmp/steerq-serving-real.$$.json
sed -E 's/"achieved_qps": [0-9.]+/"achieved_qps": 1000000/' \
    /tmp/steerq-serving-real.$$.json > /tmp/steerq-serving-old.$$.json
if go run ./cmd/steerq-bench -compare-serving /tmp/steerq-serving-old.$$.json \
    -serving-out /tmp/steerq-serving-real.$$.json > /dev/null 2>&1; then
    echo "serving load smoke: injected throughput collapse was not flagged" >&2
    rm -f /tmp/steerq-serving.$$.json /tmp/steerq-serving-real.$$.json /tmp/steerq-serving-old.$$.json
    exit 1
fi
rm -f /tmp/steerq-serving.$$.json /tmp/steerq-serving-real.$$.json /tmp/steerq-serving-old.$$.json

echo "== perf stamp smoke (frozen clock, forced parallel) =="
STEERQ_VCLOCK=1 STEERQ_BENCH_FORCE_PARALLEL=1 go run ./cmd/steerq-bench \
    -perf -perf-quick -scale 0.002 -m 10 \
    -perf-out /tmp/steerq-perf.$$.json > /dev/null
grep -q '"generated_unix": 0' /tmp/steerq-perf.$$.json || {
    echo "perf smoke: report stamp not frozen under STEERQ_VCLOCK (wall-clock leak)" >&2
    rm -f /tmp/steerq-perf.$$.json
    exit 1
}
if grep -q '"skipped": true' /tmp/steerq-perf.$$.json; then
    echo "perf smoke: a leg was skipped despite STEERQ_BENCH_FORCE_PARALLEL=1" >&2
    rm -f /tmp/steerq-perf.$$.json
    exit 1
fi
grep -q '"speedup_at_max"' /tmp/steerq-perf.$$.json || {
    echo "perf smoke: report has no workers-1/2/4/8 scaling sweep" >&2
    rm -f /tmp/steerq-perf.$$.json
    exit 1
}

echo "== bench compare smoke =="
# A report diffed against itself has zero deltas everywhere; the gate must
# pass.
go run ./cmd/steerq-bench -compare /tmp/steerq-perf.$$.json \
    -perf-out /tmp/steerq-perf.$$.json > /dev/null
# Shrink the old report's serial ns/op so the fresh report looks like a huge
# regression; the gate must trip (exit nonzero).
awk '!done && /"ns_per_op":/ { sub(/"ns_per_op": [0-9]+/, "\"ns_per_op\": 1"); done = 1 } { print }' \
    /tmp/steerq-perf.$$.json > /tmp/steerq-perf-old.$$.json
if go run ./cmd/steerq-bench -compare /tmp/steerq-perf-old.$$.json \
    -perf-out /tmp/steerq-perf.$$.json > /dev/null 2>&1; then
    echo "compare smoke: injected serial regression was not flagged" >&2
    rm -f /tmp/steerq-perf.$$.json /tmp/steerq-perf-old.$$.json
    exit 1
fi
rm -f /tmp/steerq-perf.$$.json /tmp/steerq-perf-old.$$.json

echo "== benchmark module (perfbench vet + test, offline) =="
(cd perfbench && export GOPROXY=off GOFLAGS=-mod=mod GOWORK=off &&
    go vet ./... && go test ./...)

if [ "${STEERQ_CI_SKIP_FUZZ:-0}" != "1" ]; then
    echo "== fuzz (short) =="
    go test -fuzz=FuzzParse -fuzztime=15s ./internal/scopeql/
    go test -fuzz=FuzzCompile -fuzztime=15s ./internal/scopeql/
    go test -fuzz=FuzzBundleDecode -fuzztime=15s ./internal/bundle/
fi

echo "CI OK"
