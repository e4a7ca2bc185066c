#!/bin/sh
# CI gate: formatting, vet, build, race-enabled tests with a coverage floor
# (scripts/coverage_baseline.txt), a short fuzz smoke, the benchmark pins
# (_benchmark/digests.json), the dynlint static analyzer
# (docs/static-analysis.md), and a single-iteration benchmark smoke
# (docs/performance.md). Run from anywhere inside the repository; any
# failure fails the build.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l . | grep -v '^\.' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== generated artifacts"
# Build outputs must never be committed: coverage profiles, flight
# recordings, compiled test binaries, pprof profiles. .gitignore keeps
# them out of "git add ."; this guard catches a force-add.
tracked=$(git ls-files -- 'coverage.out' '*.dsfr' '*.test' '*.prof' '*.pprof')
if [ -n "$tracked" ]; then
    echo "generated artifacts are tracked:" >&2
    echo "$tracked" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race (with coverage)"
go test -race -covermode=atomic -coverprofile=coverage.out ./...

echo "== coverage gate"
total=$(go tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
baseline=$(cat scripts/coverage_baseline.txt)
echo "total coverage ${total}% (baseline ${baseline}%)"
awk -v t="$total" -v b="$baseline" 'BEGIN { exit !(t+0 >= b+0) }' || {
    echo "coverage ${total}% fell below the recorded baseline ${baseline}%" >&2
    exit 1
}

echo "== engine equivalence (workers matrix)"
# The determinism proof for the shard-parallel radio kernel: the
# equivalence suites must hold under -race at both a single-CPU schedule
# and a genuinely parallel one (docs/architecture.md, "Determinism by
# construction"). The tests sweep engine worker counts 1/2/3/8/NumCPU,
# and the EngineWorkers pattern pulls in TestEngineWorkersLargeSmoke —
# the fast n=200k sparse run that exercises the parallel deliver phase,
# counter RNG streams and Seq stitch at scale under the race detector.
# -count=1: the go test cache ignores GOMAXPROCS, so without it the
# second schedule would replay the first one's cached results.
for procs in 1 4; do
    echo "-- GOMAXPROCS=$procs"
    GOMAXPROCS="$procs" go test -race -count=1 -run 'EngineEquivalence|EngineWorkers|RunByteIdentical' \
        ./internal/radio ./internal/broadcast
    # The distributed runtime's kernel-equivalence suites: the coordinator
    # drives remote nodes from the same round loop, so its event streams
    # must match the kernel's under both schedules too.
    GOMAXPROCS="$procs" go test -race -count=1 -run 'DistMatchesKernel|DistRuntime|NemesisPartition' \
        ./internal/dist ./internal/broadcast
    # The scenario corpus re-runs every .dsn (testdata + examples) through
    # the live stack with record/replay self-verification — end-to-end
    # determinism under both schedules (docs/scenarios.md).
    GOMAXPROCS="$procs" go test -race -count=1 -run 'TestScenarioCorpus|TestScenarioWorkerDeterminism' \
        ./internal/scenario
done

echo "== fuzz smoke"
# A few seconds per fuzzer: keeps the harnesses compiling and catches
# shallow regressions; long fuzz runs stay manual.
go test -run '^$' -fuzz '^FuzzNetioRead$' -fuzztime 5s ./internal/netio
go test -run '^$' -fuzz '^FuzzFrameDecode$' -fuzztime 5s ./internal/netio/frame
go test -run '^$' -fuzz '^FuzzRecordingDecode$' -fuzztime 5s ./internal/flight
go test -run '^$' -fuzz '^FuzzEngineEquivalence$' -fuzztime 5s ./internal/radio
go test -run '^$' -fuzz '^FuzzScenarioParse$' -fuzztime 5s ./internal/scenario
go test -run '^$' -fuzz '^FuzzTreeOps$' -fuzztime 5s ./internal/graph
go test -run '^$' -fuzz '^FuzzUpdateTimeSlot$' -fuzztime 5s ./internal/timeslot
go test -run '^$' -fuzz '^FuzzChurn$' -fuzztime 5s ./internal/cnet
# The go tool ignores testdata, so the lint fixtures only compile through
# the lint loader: run the loader test explicitly so fixtures can't bit-rot.
go test -run '^TestFixturesLoad$' -count=1 ./internal/lint

echo "== replay smoke"
# Record a 200-node run with mid-broadcast failures, then replay it
# offline: the paper-invariant verifier must pass and the Chrome trace
# export must be valid JSON (docs/observability.md, "Tracing & flight
# recording").
replay_dir=$(mktemp -d)
trap 'rm -rf "$replay_dir"' EXIT
go build -o "$replay_dir/dynsim" ./cmd/dynsim
"$replay_dir/dynsim" -n 200 -side 10 -seed 7 -failfrac 0.1 -record "$replay_dir/run.dsfr" > /dev/null
go run ./cmd/nettool replay -chrome-trace "$replay_dir/trace.json" "$replay_dir/run.dsfr" | tee "$replay_dir/replay.txt"
grep -q 'verifier: PASS' "$replay_dir/replay.txt"
go run ./scripts/jsoncheck "$replay_dir/trace.json"
# dynsim's flags are an in-memory scenario run by the same runner as
# -scenario: the flag form of failure-icff.dsn and the file itself must
# write byte-identical recordings, event streams and metrics dumps.
"$replay_dir/dynsim" -n 100 -side 10 -seed 4 -failfrac 0.1 -record "$replay_dir/flags.dsfr" \
    -events "$replay_dir/flags.jsonl" -metrics "$replay_dir/flags.prom" > /dev/null
"$replay_dir/dynsim" -scenario testdata/scenarios/positive/failure-icff.dsn -record "$replay_dir/file.dsfr" \
    -events "$replay_dir/file.jsonl" -metrics "$replay_dir/file.prom" > /dev/null
for ext in dsfr jsonl prom; do
    cmp "$replay_dir/flags.$ext" "$replay_dir/file.$ext"
done
echo "flag run and scenario file write identical recording, events and metrics"

echo "== experiments smoke"
# Every experiment runs its (row, seed) points through one sweep loop
# (docs/observability.md): the quick report must not depend on the sweep's
# worker count and must match the pinned golden, and -flight-dir must
# record the ICFF run of every Fig. 8, Fig. 9, lifetime and areas point
# (18 at -quick) as its own file, each passing the offline verifier.
go build -o "$replay_dir/experiments" ./cmd/experiments
go build -o "$replay_dir/nettool" ./cmd/nettool
"$replay_dir/experiments" -quick -workers 1 > "$replay_dir/quick_w1.txt"
"$replay_dir/experiments" -quick -workers 4 > "$replay_dir/quick_w4.txt"
cmp "$replay_dir/quick_w1.txt" "$replay_dir/quick_w4.txt"
cmp "$replay_dir/quick_w1.txt" internal/expt/testdata/quick.golden
"$replay_dir/experiments" -quick -fig all -flight-dir "$replay_dir/flights" > /dev/null
set -- "$replay_dir"/flights/*.dsfr
if [ "$#" -ne 18 ]; then
    echo "experiments -flight-dir wrote $# recordings, want 18" >&2
    exit 1
fi
for rec in "$@"; do
    if ! "$replay_dir/nettool" replay "$rec" | grep -q 'verifier: PASS'; then
        echo "$rec failed offline verification" >&2
        exit 1
    fi
done
echo "quick report worker-independent and golden; $# flight recordings verify"

echo "== scenario smoke"
# One scenario recorded live, then re-verified offline from the .dsfr
# alone: the third entry point of the scenario DSL (after go test and
# dynsim -scenario). A negative fixture must fail with exit 1 — the
# corpus proves assertions can pass; this proves they can fail. Reuses the
# experiments smoke's nettool.
"$replay_dir/nettool" scenario run testdata/scenarios/positive/sparse-rgg-icff.dsn \
    -record "$replay_dir/scenario.dsfr" > /dev/null
"$replay_dir/nettool" scenario verify testdata/scenarios/positive/sparse-rgg-icff.dsn \
    "$replay_dir/scenario.dsfr" > /dev/null
if "$replay_dir/nettool" scenario run testdata/scenarios/negative/violated-round-bound.dsn > /dev/null; then
    echo "negative scenario fixture unexpectedly passed" >&2
    exit 1
fi
echo "scenario record/verify round-trip OK, negative fixture fails as expected"

echo "== dist runtime smoke"
# The distributed actor runtime must reproduce the kernel byte for byte
# (docs/architecture.md, "Distributed runtime"): run one corpus scenario
# under all three transports — in-process kernel, goroutine fleet, and one
# OS process per node via dnode — and require identical .dsfr recordings,
# then replay-verify the distributed recording offline like any other. The
# goroutine fleet runs a second time at four engine workers, where shards
# drive their own node ranges' frame barriers concurrently.
go build -o "$replay_dir/dnode" ./cmd/dnode
dist_dsn=testdata/scenarios/positive/dist-runtime-icff.dsn
"$replay_dir/dynsim" -scenario "$dist_dsn" -runtime kernel \
    -record "$replay_dir/dist_kernel.dsfr" > /dev/null
"$replay_dir/dynsim" -scenario "$dist_dsn" -runtime dist \
    -record "$replay_dir/dist_local.dsfr" > /dev/null
"$replay_dir/dynsim" -scenario "$dist_dsn" -runtime dist -workers 4 \
    -record "$replay_dir/dist_local_w4.dsfr" > /dev/null
"$replay_dir/dynsim" -scenario "$dist_dsn" -dnode "$replay_dir/dnode" \
    -record "$replay_dir/dist_proc.dsfr" > /dev/null
cmp "$replay_dir/dist_kernel.dsfr" "$replay_dir/dist_local.dsfr"
cmp "$replay_dir/dist_kernel.dsfr" "$replay_dir/dist_local_w4.dsfr"
cmp "$replay_dir/dist_kernel.dsfr" "$replay_dir/dist_proc.dsfr"
"$replay_dir/nettool" scenario verify "$dist_dsn" "$replay_dir/dist_proc.dsfr" > /dev/null
echo "kernel / goroutine-fleet (1 and 4 workers) / process-fleet recordings byte-identical"

echo "== benchmark pins"
# The benchmark (_benchmark/) is its own module, which go build ./... skips,
# yet it builds against this module's API. Build, vet and test it with
# _benchmark/run.sh's environment, then run every workload briefly at the
# pinned seeds: each must report "matches the pin" against
# _benchmark/digests.json and a correct run.
(
    cd _benchmark
    export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
    go build -o "$replay_dir/dynbench" .
    go vet .
    go test .
)
for workload in construct broadcast churn dist; do
    for seed in 1 97; do
        out="$replay_dir/bench_${workload}_${seed}.txt"
        "$replay_dir/dynbench" --workload "$workload" --seed "$seed" --seconds 0.1 --trace 0 > "$out"
        if ! grep -q 'matches the pin' "$out" || ! grep -q '"correct":true' "$out"; then
            echo "benchmark workload $workload seed $seed lost its pin or its correctness:" >&2
            cat "$out" >&2
            exit 1
        fi
    done
done
echo "benchmark builds, vets, tests, and all 8 pinned digests match"

echo "== dynlint"
# All analyzers, the contract checkers (progpurity/shardsafe/hotalloc)
# included: they are in lint.All, so the default run gates on them too.
go run ./cmd/dynlint ./...

echo "== bench smoke"
# One iteration of every benchmark, with the expensive all-pairs baselines
# skipped (-short): catches benchmarks that rot without paying for real
# measurement runs. scripts/bench.sh does the real runs.
go test -run '^$' -bench . -benchtime 1x -short ./...

echo "== bench regression gate"
# One small, fast EngineRun leg against the committed baseline
# (scripts/bench_baseline.json, regenerated with `nettool perf import`
# after an intentional perf change): warn past 15%, fail past 50% ns/op.
# The wide fail band absorbs CI host noise while still catching a kernel
# that got categorically slower (docs/performance.md, "Kernel
# introspection").
go test -run '^$' -bench '^BenchmarkEngineRun$/^n=2000$/^sparse$/^workers=1$' \
    -benchtime 5x ./internal/radio > "$replay_dir/bench_raw.txt"
go run ./cmd/nettool perf import -o "$replay_dir/bench_new.json" "$replay_dir/bench_raw.txt"
go run ./cmd/nettool perf diff -warn 15 -fail 50 \
    scripts/bench_baseline.json "$replay_dir/bench_new.json"

echo "CI OK"
