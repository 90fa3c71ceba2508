#!/usr/bin/env bash
# Repo health check: builds the default preset, verifies the SIMD arch
# flag stays confined to the dispatched AVX2 TU and the dispatched kernel
# table to the GBT forest walk, runs the self-checking
# throughput benches (training core + SIMD tier differencing + batch
# serving + daemon wire path + structural-memo sweep) and collects their
# headline numbers into BENCH_train.json, BENCH_serve.json and
# BENCH_sim.json, smoke-tests the serving daemon against `batch` for
# byte-identity, graceful drain, and hot-swap (an in-stream reload and a
# SIGHUP reload-all, each half diffed byte-for-byte against the matching
# model's batch output), SIGKILLs a checkpointed sweep
# mid-grid and diffs the resumed report byte-for-byte against an
# uninterrupted run, smoke-tests `explore` (seed-pinned two-run diff
# plus a SIGKILL/--resume leg diffed against the uninterrupted
# frontier) and runs bench_explore's optimum-equality and
# simulator-economy bars into BENCH_explore.json, re-runs the
# sweep/batch smokes under
# AUTOPOWER_SIMD=scalar and diffs the JSONL byte-for-byte against the
# best tier, runs the property-based differential + SIMD kernel oracle
# and the archive fuzz under AddressSanitizer, then race-checks the
# threaded subsystems, the fault-injection suite, the SIMD dispatch
# handoff, and the daemon under ThreadSanitizer.  Run
# from anywhere; exits non-zero on any build failure, bench self-check
# failure, test failure, or sanitizer report.  Failing properties print
# a reproducing AUTOPOWER_PROPTEST_SEED line.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== configure + build (default preset) =="
cmake --preset default
cmake --build --preset default -j "$(nproc)"

echo "== SIMD flag isolation (arch flags stay in the dispatched TU) =="
# The runtime dispatcher is only sound if AVX2 codegen is confined to
# simd_avx2.cpp: -mavx2 leaking into a generally linked TU would let the
# compiler emit AVX2 in code that runs on any host.  simd_avx2.cpp may
# carry exactly -mavx2; no TU may carry any other SSE/AVX/FMA -m flag.
# compile_commands.json is exported by the default preset.
python3 - <<'EOF'
import json, re, sys
cc = json.load(open('build/compile_commands.json'))
bad = []
for e in cc:
    cmd = e.get('command') or ' '.join(e.get('arguments', []))
    flags = set(re.findall(r'(?<!\S)-m(?:sse|avx|fma)\S*', cmd))
    f = e['file']
    allowed = {'-mavx2'} if f.endswith('simd_avx2.cpp') else set()
    if flags - allowed:
        bad.append(f + ': ' + ' '.join(sorted(flags - allowed)))
if bad:
    print('arch flags leaked outside simd_avx2.cpp:')
    for line in bad:
        print('  ' + line)
    sys.exit(1)
print('arch flags confined to simd_avx2.cpp (-mavx2 only)')
EOF

echo "== one fan-out primitive (util::ThreadPool stays behind util::parallel_for) =="
# Library, tool and bench code fans out through util::parallel_for; only
# its own implementation (src/util/) and the pool's unit tests (tests/)
# may name the pool directly.
if grep -rn --include='*.cpp' --include='*.hpp' --exclude-dir='build*' \
    --exclude-dir=.bench_build 'ThreadPool' . \
    | grep -v -e '^\./src/util/' -e '^\./tests/'; then
  echo "util::ThreadPool used outside src/util/ and tests/;" \
    "fan out through util::parallel_for instead"
  exit 1
fi
echo "util::ThreadPool confined to src/util/ and tests/"

echo "== one dispatched kernel (simd::kernels() stays in the forest walk) =="
# forest_leaf_add is the only SIMD kernel with a measured win; every
# other numeric loop is plain scalar code at its call site.  A new
# dispatched kernel needs a ledger entry first, so only the forest walk
# (src/ml/gbt.cpp), the dispatcher (src/util/) and tests/ may fetch the
# kernel table.
if grep -rn --include='*.cpp' --include='*.hpp' --exclude-dir='build*' \
    --exclude-dir=.bench_build 'simd::kernels()' . \
    | grep -v -e '^\./src/ml/gbt\.cpp:' -e '^\./src/util/' -e '^\./tests/'; then
  echo "util::simd::kernels() used outside src/ml/gbt.cpp, src/util/ and" \
    "tests/; write the loop as plain scalar code at its call site"
  exit 1
fi
echo "util::simd::kernels() confined to src/ml/gbt.cpp, src/util/ and tests/"

echo "== one prediction path (GBT sub-models in src/core go through ForestBundle) =="
# Each power group's formula lives once, in its predict_tile, which
# evaluates every GBT activity sub-model through ml::ForestBundle::predict
# over the component's shared rank pass.  The scalar GBTRegressor::predict
# walk and the one-forest predict_rows stay ml-level (predict() is the
# differential oracle in tests/test_differential.cpp), never a src/core
# prediction path.
gbt_members=$(grep -ho 'ml::GBTRegressor [A-Za-z_]*' src/core/*.hpp \
  | awk '{print $2}' | sort -u | paste -sd'|' -)
if [ -z "$gbt_members" ]; then
  echo "no ml::GBTRegressor members found in src/core headers"
  exit 1
fi
if grep -rnE "\b(${gbt_members})\.predict(_rows)?\(" src/core; then
  echo "GBT predict or predict_rows in src/core; evaluate through the" \
    "component's ForestBundle"
  exit 1
fi
echo "GBT sub-models in src/core (${gbt_members}) only use ForestBundle"

echo "== one feature assembly per component tile (feature_rows stays in the tile loop) =="
# AutoPowerModel's tile-major loop assembles each component's H+E+P
# feature tile once and hands it to the clock, SRAM and logic models'
# predict_tile.  A group model building its own feature matrix would
# assemble the same rows again, once per group, for the whole batch.
if grep -rn 'feature_rows(' src/core \
    | grep -v -e '^src/core/autopower\.cpp:' \
      -e '^src/core/features\.[ch]pp:'; then
  echo "feature_rows( used in src/core outside autopower.cpp and" \
    "features.{hpp,cpp}; take the shared tile through predict_tile instead"
  exit 1
fi
echo "feature_rows confined to src/core/autopower.cpp and src/core/features.*"

echo "== bench_train_throughput (self-check: bit-identity + speedup bars) =="
./build/bench/bench_train_throughput --json /tmp/autopower_bench_train.json

echo "== bench_serve_throughput (self-check: bit-identity + speedup bar + daemon wire path) =="
./build/bench/bench_serve_throughput --json /tmp/autopower_bench_serve.json
cp /tmp/autopower_bench_serve.json BENCH_serve.json
echo "daemon req/s + p50/p99 in BENCH_serve.json"

echo "== write BENCH_train.json =="
{
  printf '{\n  "train":\n'
  sed 's/^/  /' /tmp/autopower_bench_train.json | sed '$s/$/,/'
  printf '  "serve":\n'
  sed 's/^/  /' /tmp/autopower_bench_serve.json
  printf '}\n'
} > BENCH_train.json
echo "headline numbers in BENCH_train.json"

echo "== bench_sim_throughput (self-check: bit-identity + sweep speedup bars + streaming RSS bar) =="
# The streaming stage defaults to the full 1e7-cell acceptance grid
# (~45 min on one core); CI runs a 2e5-cell slice of the same shape —
# the RSS bound and completion checks are scale-independent, and the
# JSON records stream_cells so the scale is always explicit.  Unset the
# variable to re-record the full-scale acceptance numbers.
AUTOPOWER_BENCH_STREAM_CELLS="${AUTOPOWER_BENCH_STREAM_CELLS:-200000}" \
  ./build/bench/bench_sim_throughput --json BENCH_sim.json
echo "headline numbers in BENCH_sim.json"

echo "== bench_metrics_overhead (self-check: <=5% overhead + bit-identity) =="
./build/bench/bench_metrics_overhead --json BENCH_metrics.json
echo "headline numbers in BENCH_metrics.json"

echo "== sweep smoke run with a --stats snapshot =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./build/tools/autopower train --known C1,C15 --out "$smoke_dir/model.ap" \
  --threads 2
./build/tools/autopower sweep --model "$smoke_dir/model.ap" \
  --grid "RobEntry=64,96" --workloads dhrystone,qsort --threads 2 \
  --out "$smoke_dir/sweep.jsonl" --stats STATS_sweep.json
python3 -c "import json; json.load(open('STATS_sweep.json'))" \
  || { echo "STATS_sweep.json is not valid JSON"; exit 1; }
echo "metrics snapshot archived in STATS_sweep.json"

echo "== SIGKILL-mid-sweep -> resume: final report byte-identical =="
# A checkpointed sweep is killed hard (SIGKILL, no cleanup) partway
# through a 10k-config grid, resumed from whatever prefix the kill left
# (batched fsync means the tail may be torn), and the resumed report
# must be byte-for-byte the report of an uninterrupted run.  All eight
# evaluation workloads keep the run at ~2 s on a 4-vCPU host, so the
# kill at 1 s lands mid-grid.
kill_workloads="dhrystone,median,multiply,qsort,rsort,towers,spmv,vvadd"
kill_grid="RobEntry=32,48,64,80,96,112,128,144,160,176"
kill_grid+=";FetchBufferEntry=8,12,16,20,24,28,32,36,40,44"
kill_grid+=";LdqStqEntry=8,12,16,20,24,28,32,36,40,44"
kill_grid+=";IntPhyRegister=48,56,64,72,80,88,96,104,112,120"
./build/tools/autopower sweep --model "$smoke_dir/model.ap" \
  --grid "$kill_grid" --workloads "$kill_workloads" --threads 2 --top 16 \
  --checkpoint "$smoke_dir/kill.ckpt" \
  --out "$smoke_dir/killed.jsonl" &
kill_sweep_pid=$!
sleep 1
kill -KILL "$kill_sweep_pid" 2>/dev/null \
  || echo "note: sweep finished before the kill landed (fast host)"
wait "$kill_sweep_pid" && true
ckpt_rows="$(($(wc -l < "$smoke_dir/kill.ckpt") - 1))"
echo "checkpoint holds $ckpt_rows of 10000 configs at the kill point"
./build/tools/autopower sweep --model "$smoke_dir/model.ap" \
  --grid "$kill_grid" --workloads "$kill_workloads" --threads 2 --top 16 \
  --checkpoint "$smoke_dir/kill.ckpt" --resume \
  --out "$smoke_dir/resumed.jsonl"
./build/tools/autopower sweep --model "$smoke_dir/model.ap" \
  --grid "$kill_grid" --workloads "$kill_workloads" --threads 2 --top 16 \
  --out "$smoke_dir/uninterrupted.jsonl"
diff "$smoke_dir/resumed.jsonl" "$smoke_dir/uninterrupted.jsonl" \
  || { echo "resumed sweep report diverged from the uninterrupted run"; \
       exit 1; }
echo "resumed report byte-identical to the uninterrupted run"

echo "== explore smoke: seed-pinned determinism + SIGKILL -> resume =="
# Two identical seed-pinned explore runs must emit byte-identical
# frontiers; a third run is SIGKILLed mid-search and resumed from its
# checkpoint, and the resumed frontier must be byte-identical to the
# uninterrupted one too.  The search runs on the kill grid plus an
# FpPhyRegister axis (10^5 configs) with all eight kill workloads and
# 640 generations of 64: an uninterrupted run takes 2.7-3.1 s on a
# 4-vCPU host (41,008 configs simulated), so the kill at 1 s lands
# mid-search and the resume replays a non-empty checkpoint.
explore_grid="$kill_grid;FpPhyRegister=48,56,64,72,80,88,96,104,112,120"
explore_args=(--model "$smoke_dir/model.ap" --grid "$explore_grid"
  --workloads "$kill_workloads" --base C8 --seed 42 --population 64
  --generations 640 --threads 2)
./build/tools/autopower explore "${explore_args[@]}" \
  --out "$smoke_dir/explore_a.jsonl" --stats STATS_explore.json
python3 -c "import json; json.load(open('STATS_explore.json'))" \
  || { echo "STATS_explore.json is not valid JSON"; exit 1; }
./build/tools/autopower explore "${explore_args[@]}" \
  --out "$smoke_dir/explore_b.jsonl"
diff "$smoke_dir/explore_a.jsonl" "$smoke_dir/explore_b.jsonl" \
  || { echo "seed-pinned explore reruns diverged"; exit 1; }
./build/tools/autopower explore "${explore_args[@]}" \
  --checkpoint "$smoke_dir/explore_kill.ckpt" \
  --out "$smoke_dir/explore_killed.jsonl" &
explore_pid=$!
sleep 1
kill -KILL "$explore_pid" 2>/dev/null \
  || echo "note: explore finished before the kill landed (fast host)"
wait "$explore_pid" && true
./build/tools/autopower explore "${explore_args[@]}" \
  --checkpoint "$smoke_dir/explore_kill.ckpt" --resume \
  --out "$smoke_dir/explore_resumed.jsonl" 2>&1 \
  | tee "$smoke_dir/explore_resumed.log"
grep -q '^resumed ' "$smoke_dir/explore_resumed.log" \
  || echo "note: the resume replayed no checkpoint rows"
diff "$smoke_dir/explore_resumed.jsonl" "$smoke_dir/explore_a.jsonl" \
  || { echo "resumed explore frontier diverged from the uninterrupted run"; \
       exit 1; }
echo "explore frontier byte-identical across reruns and SIGKILL -> resume"

echo "== bench_explore (self-check: optimum equality + >=10x fewer simulator cells) =="
# The full 1e5-cell acceptance grid: the exhaustive sweep baseline is
# the dominant cost (~half a minute on one core); scale with
# AUTOPOWER_BENCH_EXPLORE_CELLS if that ever outgrows the CI budget —
# the JSON records grid_configs so the scale stays explicit.
AUTOPOWER_BENCH_EXPLORE_CELLS="${AUTOPOWER_BENCH_EXPLORE_CELLS:-100000}" \
  ./build/bench/bench_explore --json BENCH_explore.json
echo "headline numbers in BENCH_explore.json"

echo "== SIMD dual-tier byte-identity (sweep + trace CSV + batch JSONL) =="
# The same sweep, trace and batch runs under AUTOPOWER_SIMD=scalar must
# produce byte-identical output files to the best-tier runs above/below:
# the forest kernel promises per-row op-order equality, so any diff here
# is a kernel bug, not a tolerance question.  The gemm trace predicts
# ~125k windows in one batch, the largest batched-forest call of any
# smoke here.  The trace CSV prints 6 significant digits, so its diff
# only catches coarse divergence; the exact check is the trace-mode
# batch run below, whose JSONL prints round-trip-exact doubles.
./build/tools/autopower trace --model "$smoke_dir/model.ap" --config C3 \
  --workload gemm --csv "$smoke_dir/trace.csv"
AUTOPOWER_SIMD=scalar ./build/tools/autopower trace \
  --model "$smoke_dir/model.ap" --config C3 --workload gemm \
  --csv "$smoke_dir/trace_scalar.csv"
diff "$smoke_dir/trace.csv" "$smoke_dir/trace_scalar.csv" \
  || { echo "trace CSV differs between SIMD tiers"; exit 1; }
echo "trace CSV identical across tiers"
printf '{"config": "C3", "workload": "gemm", "mode": "trace"}\n' \
  > "$smoke_dir/trace_req.jsonl"
./build/tools/autopower batch --model "$smoke_dir/model.ap" \
  --requests "$smoke_dir/trace_req.jsonl" --out "$smoke_dir/trace_batch.jsonl"
AUTOPOWER_SIMD=scalar ./build/tools/autopower batch \
  --model "$smoke_dir/model.ap" --requests "$smoke_dir/trace_req.jsonl" \
  --out "$smoke_dir/trace_batch_scalar.jsonl"
diff "$smoke_dir/trace_batch.jsonl" "$smoke_dir/trace_batch_scalar.jsonl" \
  || { echo "trace-mode batch differs between SIMD tiers"; exit 1; }
echo "trace-mode batch JSONL byte-identical across tiers"
AUTOPOWER_SIMD=scalar ./build/tools/autopower sweep \
  --model "$smoke_dir/model.ap" \
  --grid "RobEntry=64,96" --workloads dhrystone,qsort --threads 2 \
  --out "$smoke_dir/sweep_scalar.jsonl"
diff "$smoke_dir/sweep.jsonl" "$smoke_dir/sweep_scalar.jsonl" \
  || { echo "sweep output differs between SIMD tiers"; exit 1; }
echo "sweep JSONL byte-identical across tiers"

echo "== daemon smoke: 100 requests over loopback, bit-identical to batch =="
# A real `autopower serve` process on an ephemeral port; the same 100
# requests go through the daemon (via tools/serve_client.py) and through
# the `batch` subcommand, and the response files must be byte-identical.
# SIGTERM must drain gracefully: in-flight responses delivered, exit 0.
python3 - "$smoke_dir/daemon_reqs.jsonl" <<'EOF'
import sys
configs = ["C2", "C5", "C9", "C13"]
workloads = ["dhrystone", "qsort", "median", "towers"]
with open(sys.argv[1], "w") as f:
    for i in range(100):
        mode = ', "mode": "per_component"' if i % 7 == 0 else ""
        f.write('{"config": "%s", "workload": "%s"%s}\n'
                % (configs[i % 4], workloads[(i // 4) % 4], mode))
EOF
daemon_port="$(python3 -c 'import socket; s = socket.socket();
s.bind(("127.0.0.1", 0)); print(s.getsockname()[1]); s.close()')"
./build/tools/autopower serve --model "$smoke_dir/model.ap" \
  --port "$daemon_port" --threads 2 &
daemon_pid=$!
python3 tools/serve_client.py --port "$daemon_port" \
  --requests "$smoke_dir/daemon_reqs.jsonl" --out "$smoke_dir/daemon_out.jsonl"
./build/tools/autopower batch --model "$smoke_dir/model.ap" \
  --requests "$smoke_dir/daemon_reqs.jsonl" --out "$smoke_dir/batch_out.jsonl"
diff "$smoke_dir/daemon_out.jsonl" "$smoke_dir/batch_out.jsonl" \
  || { echo "daemon responses diverged from batch"; exit 1; }
AUTOPOWER_SIMD=scalar ./build/tools/autopower batch \
  --model "$smoke_dir/model.ap" \
  --requests "$smoke_dir/daemon_reqs.jsonl" \
  --out "$smoke_dir/batch_scalar.jsonl"
diff "$smoke_dir/batch_out.jsonl" "$smoke_dir/batch_scalar.jsonl" \
  || { echo "batch output differs between SIMD tiers"; exit 1; }
echo "batch JSONL byte-identical across tiers"
kill -TERM "$daemon_pid"
wait "$daemon_pid" \
  || { echo "daemon did not drain cleanly on SIGTERM"; exit 1; }
echo "daemon responses byte-identical to batch; SIGTERM drained with exit 0"

echo "== daemon hot-swap smoke: in-stream reload + SIGHUP reload-all =="
# Model B: same pipeline, a different training set — a different archive
# fingerprint AND different predictions, so a stale response is visible.
./build/tools/autopower train --known C1,C8 --out "$smoke_dir/model_b.ap" \
  --threads 2
cp "$smoke_dir/model.ap" "$smoke_dir/live.ap"
swap_port="$(python3 -c 'import socket; s = socket.socket();
s.bind(("127.0.0.1", 0)); print(s.getsockname()[1]); s.close()')"
./build/tools/autopower serve --model "main=$smoke_dir/live.ap" \
  --port "$swap_port" --threads 2 &
swap_pid=$!
# The daemon listens before it loads its models, so wait for a health
# response first: overwriting live.ap mid-load would hand the initial
# load a half-written archive and the daemon would exit.
echo '{"cmd": "health"}' > "$smoke_dir/health.jsonl"
python3 tools/serve_client.py --port "$swap_port" \
  --requests "$smoke_dir/health.jsonl" --out "$smoke_dir/health_out.jsonl"
# Overwrite the live archive while the daemon still serves the old
# snapshot, then stream [50 reqs | {"cmd":"reload"} | same 50 reqs] on
# ONE connection.  The swap linearizes with admission, so the first half
# must be byte-identical to `batch` under model A and the second half to
# `batch` under model B — no half-swapped or memo-stale response ever.
cp "$smoke_dir/model_b.ap" "$smoke_dir/live.ap"
head -n 50 "$smoke_dir/daemon_reqs.jsonl" > "$smoke_dir/swap_reqs.jsonl"
{
  cat "$smoke_dir/swap_reqs.jsonl"
  echo '{"cmd": "reload"}'
  cat "$smoke_dir/swap_reqs.jsonl"
} > "$smoke_dir/swap_stream.jsonl"
python3 tools/serve_client.py --port "$swap_port" \
  --requests "$smoke_dir/swap_stream.jsonl" --out "$smoke_dir/swap_out.jsonl"
./build/tools/autopower batch --model "$smoke_dir/model.ap" \
  --requests "$smoke_dir/swap_reqs.jsonl" \
  --out "$smoke_dir/swap_oracle_a.jsonl"
./build/tools/autopower batch --model "$smoke_dir/model_b.ap" \
  --requests "$smoke_dir/swap_reqs.jsonl" \
  --out "$smoke_dir/swap_oracle_b.jsonl"
head -n 50 "$smoke_dir/swap_out.jsonl" > "$smoke_dir/swap_first.jsonl"
diff "$smoke_dir/swap_first.jsonl" "$smoke_dir/swap_oracle_a.jsonl" \
  || { echo "pre-reload half diverged from model A batch output"; exit 1; }
sed -n '51p' "$smoke_dir/swap_out.jsonl" \
  | grep -q '"cmd": "reload", "ok": true' \
  || { echo "in-stream reload did not succeed"; exit 1; }
# The post-reload half carries connection indices 51..100; rewrite them
# to 0..49 before diffing against the offline oracle.
tail -n 50 "$smoke_dir/swap_out.jsonl" | python3 -c '
import re, sys
for i, line in enumerate(sys.stdin):
    sys.stdout.write(re.sub(r"^\{\"index\": \d+,", "{\"index\": %d," % i,
                            line, count=1))' > "$smoke_dir/swap_second.jsonl"
diff "$smoke_dir/swap_second.jsonl" "$smoke_dir/swap_oracle_b.jsonl" \
  || { echo "post-reload half diverged from model B batch output"; exit 1; }
echo "reload halves byte-identical to each model's batch output"

# SIGHUP leg: flip the archive back to model A and reload every slot via
# the signal.  The swap applies asynchronously (the acceptor thread picks
# it up), so poll until responses match model A again.
cp "$smoke_dir/model.ap" "$smoke_dir/live.ap"
kill -HUP "$swap_pid"
hup_ok=""
for _ in $(seq 1 100); do
  python3 tools/serve_client.py --port "$swap_port" \
    --requests "$smoke_dir/swap_reqs.jsonl" --out "$smoke_dir/hup_out.jsonl"
  if diff -q "$smoke_dir/hup_out.jsonl" "$smoke_dir/swap_oracle_a.jsonl" \
      >/dev/null; then
    hup_ok=1
    break
  fi
  sleep 0.1
done
[ -n "$hup_ok" ] \
  || { echo "SIGHUP reload never swapped back to model A"; exit 1; }
kill -TERM "$swap_pid"
wait "$swap_pid" \
  || { echo "hot-swap daemon did not drain cleanly on SIGTERM"; exit 1; }
echo "SIGHUP swapped the slot back; daemon drained with exit 0"

echo "== proptest: differential oracles under AddressSanitizer =="
# Property-based differential suite (reference vs fast paths) with the
# case count bounded so the stage fits a CI budget.  A failing property
# prints its base seed and a reproducing AUTOPOWER_PROPTEST_SEED line;
# re-run ./build-asan/tests/test_differential --seed=N to chase it.
cmake --preset asan
cmake --build --preset asan \
  --target test_differential test_simd test_explore autopower_tests \
  -j "$(nproc)"
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  timeout 900 ./build-asan/tests/test_differential --cases 60

echo "== proptest: explore optimizer oracles under AddressSanitizer =="
# Non-dominated sort vs the peeling oracle, crowding/grid-operator
# invariants, seed/thread/resume determinism, and the frontier-equals-
# exhaustive-Pareto differential, each over 200 randomized cases.
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  timeout 900 ./build-asan/tests/test_explore --cases 200

echo "== proptest: SIMD kernel oracle under AddressSanitizer =="
# The forest kernel vs its scalar twin over random depths, row counts,
# column strides and NaN palettes — under ASan this also checks the
# unaligned column loads and the leaf-weight gathers never read past a
# buffer.
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  timeout 900 ./build-asan/tests/test_simd --cases 60

echo "== autopower_tests (archive fuzz included) under AddressSanitizer =="
ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
  timeout 900 ./build-asan/tests/autopower_tests

echo "== configure (tsan preset) =="
cmake --preset tsan

echo "== build tsan targets =="
cmake --build --preset tsan \
  --target test_serve autopower_tests test_fault test_daemon test_simd \
  test_explore test_differential -j "$(nproc)"

echo "== run test_serve under ThreadSanitizer =="
# halt_on_error makes a race fail the run instead of just logging it.
# The suite includes the shared-structural-memo sweep tests, so this run
# race-checks concurrent StructuralSimCache fills and lookups too.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" ./build-tsan/tests/test_serve

echo "== run shared-memo sweep path under ThreadSanitizer (explicit) =="
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  ./build-tsan/tests/test_serve \
  --gtest_filter='SweepTest.ConcurrentSweepsShareOneStructuralCache:SweepTest.ThreadCountDoesNotChangeReport:EngineTest.TraceModeSharesStructuralCacheAcrossWorkers:EngineTest.FaultedDrainKeepsSiblingResultsBitIdentical:StreamSweepTest.OversubscribedThreadRequestIsClampedNotHonoured:StreamSweepTest.ResumeAfterTornTailIsByteIdentical:StreamSweepTest.CheckpointedRunMatchesPlainRunAndRoundTrips:SweepTest.ChunkBatchedCellsMatchPerCellEvaluation:ParallelFor.*'

echo "== parallel_for under lost helpers + per-request isolation under ThreadSanitizer (explicit) =="
# The fault-armed parallel_for cases (every submit / every helper task
# failing) and the engine's per-request isolation at threads 1 and 3.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  timeout 600 ./build-tsan/tests/test_fault \
  --gtest_filter='ParallelFor.*:FaultEngine.*'

echo "== serial-vs-threaded differential oracles under ThreadSanitizer =="
# Train, batch and sweep at several thread counts against their serial
# runs: every fan-out site goes through util::parallel_for here.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  timeout 900 ./build-tsan/tests/test_differential --cases 4 \
  --gtest_filter='DifferentialParallel.*:EngineInvariance.SerialVsThreaded*'

echo "== proptest: fault-injection suite under ThreadSanitizer =="
# Every registered fault site is forced to fire (test_fault), including
# probabilistic faults on the threaded batch/sweep paths, so TSan sees
# the error-propagation and drain paths under contention.  --seed=N
# reruns a specific base seed.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  timeout 600 ./build-tsan/tests/test_fault

echo "== run daemon tests under ThreadSanitizer =="
# Concurrent loopback connections share one engine/EvalCache, so this
# run race-checks the reader/dispatcher/deliver paths and the drain
# handshake under contention.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  timeout 600 ./build-tsan/tests/test_daemon --gtest_filter='DaemonTest.*'

echo "== run SIMD dispatch + cross-tier tests under ThreadSanitizer =="
# set_active_tier publishes the kernel table with release/acquire
# ordering; the cross-tier GBT tests flip tiers while model code reads
# the table, so TSan checks the dispatch handoff.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  timeout 600 ./build-tsan/tests/test_simd --cases 20

echo "== run threaded explore scoring under ThreadSanitizer =="
# The seed/thread-invariance property runs every search at threads 1 and
# threads 3, so TSan sees the evaluate_configs claim loop that scores
# each generation under contention.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  timeout 600 ./build-tsan/tests/test_explore --cases 10 \
  --gtest_filter='ExploreSearch.SeedAndThreadCountInvariance'

echo "== run parallel-train tests under ThreadSanitizer =="
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  ./build-tsan/tests/autopower_tests \
  --gtest_filter='AutoPowerTest.ParallelTrainArchiveByteIdentical'

echo "== run the shared-simulator test under ThreadSanitizer =="
# Four threads call simulate and simulate_trace on ONE PerfSimulator, so
# TSan checks that the simulator keeps no unguarded state of its own.
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  ./build-tsan/tests/autopower_tests \
  --gtest_filter='StructuralMemoProperty.OneSimulatorSharedAcrossThreads'

echo "== run metrics-registry tests under ThreadSanitizer =="
TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
  ./build-tsan/tests/autopower_tests \
  --gtest_filter='MetricsRegistryTest.*'

echo "OK: benches pass their bars and the threaded paths are race-clean"
