#!/usr/bin/env bash
# Tier-1 gate: build and run the full test suite several times — a plain
# Release build (run serially, with OMP_NUM_THREADS=2, and once per
# LS_SIMD level the host supports, all of which must agree), an
# AddressSanitizer + UBSan build (-DLS_SANITIZE=ON), and a
# ThreadSanitizer build (-DLS_SANITIZE=thread) that checks the std::thread
# code (serving batcher and workers, rescheduler thread, router prober,
# trainer cadence, WAL). All must be green before a change lands.
#
# Usage: scripts/check.sh [--plain-only|--sanitize-only|--tsan-only]
set -euo pipefail

cd "$(dirname "$0")/.."

# On any exit, SIGTERM the background jobs still running: a smoke that
# fails under `set -e` (say, a daemon that never came up) must not leave
# its daemons behind.
stop_daemons() {
  local pids
  pids="$(jobs -p)"
  [[ -z "${pids}" ]] || kill -TERM ${pids} 2>/dev/null || true
}
trap stop_daemons EXIT

# wait_for_socket SOCK WHAT [LOG]: a started daemon creates its socket file
# once it accepts connections. Waits up to 10 s for it; otherwise prints
# "WHAT never came up" and LOG, and fails the check.
wait_for_socket() {
  local sock="$1" what="$2" log="${3:-}"
  for _ in $(seq 1 100); do
    [[ -S "${sock}" ]] && return 0
    sleep 0.1
  done
  echo "${what} never came up"
  [[ -z "${log}" ]] || cat "${log}"
  exit 1
}

# run_suite BUILD_DIR [CMAKE_ARG...] [-- CTEST_ARG...]: configures, builds
# and tests BUILD_DIR; arguments after `--` go to ctest.
run_suite() {
  local build_dir="$1"
  shift
  local cmake_args=() ctest_args=()
  while (($#)); do
    if [[ "$1" == "--" ]]; then
      shift
      ctest_args=("$@")
      break
    fi
    cmake_args+=("$1")
    shift
  done
  echo "==> configuring ${build_dir} (${cmake_args[*]})"
  cmake -B "${build_dir}" -S . "${cmake_args[@]}"
  echo "==> building ${build_dir}"
  cmake --build "${build_dir}" -j
  echo "==> testing ${build_dir} (${ctest_args[*]})"
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
    "${ctest_args[@]}"
}

metrics_smoke() {
  # Observability smoke: a real tool run with collection on must produce
  # a parseable metrics report with the scheduler's decision in it.
  local out
  out="$(mktemp /tmp/ls_metrics_smoke.XXXXXX.json)"
  echo "==> metrics smoke (LS_METRICS=${out})"
  LS_METRICS="${out}" ./build/examples/quickstart \
    --dataset breast_cancer >/dev/null
  python3 - "${out}" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
for key in ("schema", "counters", "timers", "annotations"):
    assert key in report, f"missing {key!r} in metrics report"
assert report["counters"].get("svm.smo.iterations_total", 0) > 0
assert "sched.chosen_format" in report["annotations"]
print("metrics report OK:", report["annotations"]["sched.chosen_format"])
PY
  rm -f "${out}"
}

serve_smoke() {
  # Serving smoke: the whole daemon lifecycle against a real trained model.
  # Train the demo model, start serve_tool on a unix socket, push 1k
  # requests through serve_client, assert nothing was shed and the p95 is
  # sane, then shut the daemon down over the wire. Runs again in the
  # ASan+UBSan stage and in the TSan stage, where the batcher/worker/reload
  # threading is race-checked end to end.
  local build_dir="$1"
  local sock
  sock="$(mktemp -u /tmp/ls_serve_smoke.XXXXXX.sock)"
  echo "==> serve smoke (${build_dir}, socket ${sock})"
  "./${build_dir}/examples/svm_tool" --mode demo \
    --dataset breast_cancer >/dev/null
  "./${build_dir}/examples/serve_tool" --socket "${sock}" \
    --models demo=/tmp/ls_demo_model.txt --workers 2 >/dev/null &
  local serve_pid=$!
  wait_for_socket "${sock}" "serve_tool"
  "./${build_dir}/examples/serve_client" --socket "${sock}" --mode ping
  local bench_out
  bench_out="$("./${build_dir}/examples/serve_client" --socket "${sock}" \
    --mode bench --model demo --data /tmp/ls_demo_test.libsvm \
    --count 1000 --concurrency 8)"
  echo "${bench_out}"
  local line
  line="$(grep -E 'requests=[0-9]+ ok=' <<<"${bench_out}")"
  python3 - "${line}" <<'PY'
import sys
fields = dict(kv.split("=") for kv in sys.argv[1].split())
assert int(fields["ok"]) == int(fields["requests"]), fields
assert int(fields["shed"]) == 0, f"requests shed under smoke load: {fields}"
assert int(fields["errors"]) == 0, fields
assert int(fields["lost"]) == 0, fields
assert 0.0 < float(fields["p95_ms"]) < 1000.0, fields
print("serve bench OK: p95_ms=%s rps=%s" % (fields["p95_ms"], fields["rps"]))
PY
  "./${build_dir}/examples/serve_client" --socket "${sock}" --mode shutdown
  wait "${serve_pid}"
  rm -f "${sock}"
}

# run_soak BUILD_DIR NAME [ARGS...]: runs the in-process soak
# BUILD_DIR/bench/NAME from a scratch working directory, so the files it
# writes under bench_results/ do not overwrite the committed ones.
run_soak() {
  local bin dir status=0
  bin="${PWD}/$1/bench/$2"
  shift 2
  dir="$(mktemp -d /tmp/ls_soak.XXXXXX)"
  (cd "${dir}" && "${bin}" "$@") || status=$?
  rm -rf "${dir}"
  return "${status}"
}

chaos_smoke() {
  # Robustness smoke, two layers:
  #   1. the in-process chaos soak (bench/serve_chaos): concurrent clients,
  #      garbage/torn/slow-loris connections, injected read faults and a
  #      mid-run server restart must end with zero errors, a bounded shed
  #      rate and a clean drain (the binary asserts all of it and exits 1
  #      otherwise);
  #   2. the real daemon under failpoint-injected socket faults: a
  #      retrying bench run must see zero caller-visible errors, and
  #      SIGTERM must drain the daemon to zero open connections.
  local build_dir="$1"
  echo "==> chaos smoke (${build_dir})"
  run_soak "${build_dir}" serve_chaos --requests 2000 --concurrency 6
  local sock log
  sock="$(mktemp -u /tmp/ls_serve_chaos.XXXXXX.sock)"
  log="$(mktemp /tmp/ls_serve_chaos.XXXXXX.log)"
  [[ -f /tmp/ls_demo_model.txt ]] || "./${build_dir}/examples/svm_tool" \
    --mode demo --dataset breast_cancer >/dev/null
  # Daemon-side faults only (env is per-process): 1 ms stutter on the
  # first 100 connection reads, plus three torn response frames that the
  # client's retry loop must absorb.
  LS_FAILPOINTS='serve.conn.read=delay:1*100;serve.frame.partial=error@40*3' \
    "./${build_dir}/examples/serve_tool" --socket "${sock}" \
    --models demo=/tmp/ls_demo_model.txt --workers 2 \
    --read-timeout-ms 2000 --idle-timeout-ms 10000 \
    --drain-ms 5000 >"${log}" &
  local serve_pid=$!
  wait_for_socket "${sock}" "serve_tool" "${log}"
  # serve_client exits non-zero when any request failed after retries.
  "./${build_dir}/examples/serve_client" --socket "${sock}" \
    --mode bench --model demo --data /tmp/ls_demo_test.libsvm \
    --count 500 --concurrency 4 --retries 8 --timeout-ms 2000
  "./${build_dir}/examples/serve_client" --socket "${sock}" --mode health
  kill -TERM "${serve_pid}"
  if ! wait "${serve_pid}"; then
    echo "daemon exited non-zero after SIGTERM"; cat "${log}"; exit 1
  fi
  grep -q 'drain complete' "${log}" || {
    echo "daemon did not drain cleanly"; cat "${log}"; exit 1; }
  grep -q 'connections_open 0' "${log}" || {
    echo "daemon leaked connections"; cat "${log}"; exit 1; }
  echo "chaos smoke OK: daemon drained clean under injected socket faults"
  rm -f "${sock}" "${log}"
}

reschedule_smoke() {
  # Online-reschedule smoke: the daemon deliberately starts with a bad
  # fixed layout (DIA) and the bandit enabled. Live traffic must make the
  # rescheduler swap the model off that layout with zero lost requests,
  # the stats verb must report the swap and the bandit arms, and SIGTERM
  # must still drain the daemon cleanly. Runs again in the ASan+UBSan
  # stage and in the TSan stage, where the policy thread / worker /
  # stats-reader interleavings are race-checked end to end.
  local build_dir="$1"
  local sock log
  sock="$(mktemp -u /tmp/ls_resched_smoke.XXXXXX.sock)"
  log="$(mktemp /tmp/ls_resched_smoke.XXXXXX.log)"
  echo "==> reschedule smoke (${build_dir}, socket ${sock})"
  [[ -f /tmp/ls_demo_model.txt ]] || "./${build_dir}/examples/svm_tool" \
    --mode demo --dataset breast_cancer >/dev/null
  "./${build_dir}/examples/serve_tool" --socket "${sock}" \
    --models demo=/tmp/ls_demo_model.txt --workers 2 \
    --policy fixed --fixed-format DIA \
    --reschedule true --reschedule-interval-ms 10 \
    --reschedule-threshold 1.05 --reschedule-min-obs 4 \
    --reschedule-hysteresis-ms 50 --drain-ms 5000 >"${log}" &
  local serve_pid=$!
  wait_for_socket "${sock}" "serve_tool" "${log}"
  local bench_out
  bench_out="$("./${build_dir}/examples/serve_client" --socket "${sock}" \
    --mode bench --model demo --data /tmp/ls_demo_test.libsvm \
    --count 1000 --concurrency 8)"
  echo "${bench_out}"
  local line
  line="$(grep -E 'requests=[0-9]+ ok=' <<<"${bench_out}")"
  python3 - "${line}" <<'PY'
import sys
fields = dict(kv.split("=") for kv in sys.argv[1].split())
assert int(fields["ok"]) == int(fields["requests"]), fields
assert int(fields["shed"]) == 0, fields
assert int(fields["errors"]) == 0, fields
assert int(fields["lost"]) == 0, fields
print("reschedule bench OK: all %s requests served, none lost" % fields["requests"])
PY
  # The swap may land after the bench finishes (the policy thread keeps
  # judging the measured arms); poll the stats verb until it reports one.
  local stats="" swapped=""
  for _ in $(seq 1 100); do
    stats="$("./${build_dir}/examples/serve_client" --socket "${sock}" \
      --mode stats)"
    if grep -qE 'reschedules_total [1-9]' <<<"${stats}"; then
      swapped=1
      break
    fi
    sleep 0.1
  done
  [[ -n "${swapped}" ]] || {
    echo "bandit never rescheduled off the bad layout:"
    echo "${stats}"; cat "${log}"; exit 1; }
  grep -E 'reschedules_total|model demo|bandit demo' <<<"${stats}"
  if grep -qE 'model demo .*format DIA' <<<"${stats}"; then
    echo "model still serving the bad DIA layout"; echo "${stats}"; exit 1
  fi
  grep -q 'bandit demo' <<<"${stats}" || {
    echo "stats verb missing bandit arm lines"; echo "${stats}"; exit 1; }
  kill -TERM "${serve_pid}"
  if ! wait "${serve_pid}"; then
    echo "daemon exited non-zero after SIGTERM"; cat "${log}"; exit 1
  fi
  grep -q 'drain complete' "${log}" || {
    echo "daemon did not drain cleanly"; cat "${log}"; exit 1; }
  grep -q 'connections_open 0' "${log}" || {
    echo "daemon leaked connections"; cat "${log}"; exit 1; }
  echo "reschedule smoke OK: bandit swapped off DIA, zero lost, clean drain"
  rm -f "${sock}" "${log}"
}

route_smoke() {
  # Replicated-serving smoke: three real serve_tool daemons behind a real
  # route_tool, with router-side failpoints armed (slow probes plus two
  # forced breaker-opens mid-run). A retrying bench pushes 1k requests
  # through the router while one replica is SIGTERMed mid-run; the bench
  # must lose nothing (its exit code asserts lost=0), the router must
  # answer health/stats afterwards, and SIGTERM must drain it to zero
  # open connections.
  local build_dir="$1"
  echo "==> route smoke (${build_dir})"
  [[ -f /tmp/ls_demo_model.txt ]] || "./${build_dir}/examples/svm_tool" \
    --mode demo --dataset breast_cancer >/dev/null
  local base
  base="$(mktemp -u /tmp/ls_route_smoke.XXXXXX)"
  local rep_pids=() rep_socks=()
  local i
  for i in 0 1 2; do
    "./${build_dir}/examples/serve_tool" --socket "${base}_r${i}.sock" \
      --models demo=/tmp/ls_demo_model.txt --workers 2 \
      >"${base}_r${i}.log" &
    rep_pids+=($!)
    rep_socks+=("${base}_r${i}.sock")
  done
  local sock
  for sock in "${rep_socks[@]}"; do
    wait_for_socket "${sock}" "replica ${sock}"
  done
  local router_sock="${base}_router.sock" router_log="${base}_router.log"
  LS_FAILPOINTS='route.probe.delay=delay:1*20;route.breaker.force_open=error@50*2' \
    "./${build_dir}/examples/route_tool" --socket "${router_sock}" \
    --replicas "unix:${rep_socks[0]},unix:${rep_socks[1]},unix:${rep_socks[2]}" \
    --probe-interval-ms 100 --drain-ms 5000 >"${router_log}" &
  local router_pid=$!
  wait_for_socket "${router_sock}" "route_tool" "${router_log}"
  "./${build_dir}/examples/serve_client" --socket "${router_sock}" --mode ping
  local bench_out="${base}_bench.out"
  "./${build_dir}/examples/serve_client" --socket "${router_sock}" \
    --mode bench --model demo --data /tmp/ls_demo_test.libsvm \
    --count 1000 --concurrency 6 --retries 8 --timeout-ms 2000 \
    >"${bench_out}" &
  local bench_pid=$!
  sleep 0.2
  # Rolling-restart rehearsal: take one replica down mid-bench. serve_tool
  # drains on SIGTERM; router failover + client retries must hide it.
  kill -TERM "${rep_pids[1]}"
  if ! wait "${bench_pid}"; then
    echo "bench lost requests during the replica kill:"
    cat "${bench_out}"; cat "${router_log}"; exit 1
  fi
  cat "${bench_out}"
  local line
  line="$(grep -E 'requests=[0-9]+ ok=' "${bench_out}")"
  python3 - "${line}" <<'PY'
import sys
fields = dict(kv.split("=") for kv in sys.argv[1].split())
assert int(fields["errors"]) == 0, fields
assert int(fields["lost"]) == 0, fields
assert int(fields["ok"]) + int(fields["shed"]) == int(fields["requests"]), fields
print("route bench OK: p95_ms=%s retries=%s" % (fields["p95_ms"], fields["retries"]))
PY
  wait "${rep_pids[1]}" || { echo "killed replica exited non-zero"; exit 1; }
  "./${build_dir}/examples/serve_client" --socket "${router_sock}" --mode health
  "./${build_dir}/examples/serve_client" --socket "${router_sock}" --mode stats \
    | grep -q 'route_requests_total' || {
    echo "router stats missing route counters"; exit 1; }
  kill -TERM "${router_pid}"
  if ! wait "${router_pid}"; then
    echo "router exited non-zero after SIGTERM"; cat "${router_log}"; exit 1
  fi
  grep -q 'drain complete' "${router_log}" || {
    echo "router did not drain cleanly"; cat "${router_log}"; exit 1; }
  grep -q 'connections_open 0' "${router_log}" || {
    echo "router leaked connections"; cat "${router_log}"; exit 1; }
  kill -TERM "${rep_pids[0]}" "${rep_pids[2]}"
  wait "${rep_pids[0]}" "${rep_pids[2]}" || {
    echo "replica exited non-zero after SIGTERM"; exit 1; }
  echo "route smoke OK: replica killed mid-run, zero lost requests"
  rm -f "${base}"_*
}

train_serve_smoke() {
  # Continuous-learning smoke: the full train-and-serve loop with real
  # daemons. First the in-process chaos soak (bench/train_serve_chaos):
  # mid-save trainer kill + checkpoint resume, reloads landing mid-burst,
  # weighted-fair queuing under a tenant flood (the binary asserts all of
  # it and exits 1 otherwise). Then a real train_tool ingests a 500-example
  # stream over the wire, retrains on its cadence and publishes live
  # reloads into a real serve_tool while a retrying predict bench hammers
  # the same socket; >=1 reload must land (served version moves past the
  # initial load), the bench must lose nothing, and SIGTERM must drain
  # both daemons to zero open connections.
  local build_dir="$1"
  echo "==> train-serve smoke (${build_dir})"
  run_soak "${build_dir}" train_serve_chaos
  local base tsock ssock tlog slog model
  base="$(mktemp -u /tmp/ls_train_smoke.XXXXXX)"
  tsock="${base}_trainer.sock"
  ssock="${base}_serve.sock"
  tlog="${base}_trainer.log"
  slog="${base}_serve.log"
  model="${base}_model.txt"
  # Generate the stream deterministically rather than reusing whatever
  # /tmp/ls_demo_*.libsvm a previous run left behind — a stale
  # high-dimensional file would balloon every retrain solve (painful
  # under TSan) and make the smoke's timing non-reproducible.
  python3 - "${base}" <<'PY'
import random, sys
base = sys.argv[1]
rng = random.Random(0xC0FFEE)
def emit(path, n):
    with open(path, "w") as f:
        for _ in range(n):
            label = 1 if rng.random() < 0.5 else -1
            cols = sorted(rng.sample(range(1, 25), 12))
            row = " ".join(f"{c}:{rng.gauss(0.4 * label, 1.0):.6f}"
                           for c in cols)
            f.write(f"{label} {row}\n")
emit(base + "_train.libsvm", 500)
emit(base + "_test.libsvm", 100)
PY
  "./${build_dir}/examples/train_tool" --socket "${tsock}" \
    --models demo="${model}" --window 600 --retrain-interval-ms 200 \
    --min-new 50 --publish-socket "${ssock}" --drain-ms 5000 >"${tlog}" &
  local trainer_pid=$!
  wait_for_socket "${tsock}" "train_tool" "${tlog}"
  # First half of the stream: the trainer must produce its first accepted
  # model on its own cadence. Publishes fail until the serve tier exists —
  # the cold-start order is trainer first, and the failures are counted,
  # not fatal.
  "./${build_dir}/examples/serve_client" --socket "${tsock}" --mode ingest \
    --model demo --data "${base}_train.libsvm" --count 250
  for _ in $(seq 1 150); do
    [[ -f "${model}" ]] && break
    sleep 0.1
  done
  [[ -f "${model}" ]] || { echo "trainer never wrote a model"; cat "${tlog}"; exit 1; }
  "./${build_dir}/examples/serve_tool" --socket "${ssock}" \
    --models demo="${model}" --workers 2 --drain-ms 5000 >"${slog}" &
  local serve_pid=$!
  wait_for_socket "${ssock}" "serve_tool" "${slog}"
  # Second half of the stream drives fresh retrains whose accepted models
  # are published as live reloads, while a retrying predict bench hammers
  # the same serving socket — its exit code asserts zero lost requests.
  # Ids continue from the first batch: ingest is deduped by id now, so a
  # reused id range would be absorbed as duplicates and starve the
  # retrain cadence.
  "./${build_dir}/examples/serve_client" --socket "${tsock}" --mode ingest \
    --model demo --data "${base}_train.libsvm" --count 250 --id-base 250 &
  local ingest_pid=$!
  "./${build_dir}/examples/serve_client" --socket "${ssock}" \
    --mode bench --model demo --data "${base}_test.libsvm" \
    --count 500 --concurrency 4 --retries 8 --timeout-ms 2000
  wait "${ingest_pid}" || { echo "ingest stream was rejected"; cat "${tlog}"; exit 1; }
  # >=1 published reload must land: the served version moves past the
  # initial load (reloads mint fresh versions; the models verb is exactly
  # the observability hook for this).
  local models=""
  for _ in $(seq 1 150); do
    models="$("./${build_dir}/examples/serve_client" --socket "${ssock}" \
      --mode models)"
    grep -qE 'model demo version ([2-9]|[0-9]{2,})' <<<"${models}" && break
    models=""
    sleep 0.1
  done
  [[ -n "${models}" ]] || {
    echo "no published reload ever landed in the serve tier:"
    "./${build_dir}/examples/serve_client" --socket "${ssock}" --mode models
    cat "${tlog}"; exit 1; }
  echo "${models}"
  "./${build_dir}/examples/serve_client" --socket "${tsock}" --mode models \
    | grep -qE ' publishes [1-9]' || {
    echo "trainer reports no successful publishes"; cat "${tlog}"; exit 1; }
  kill -TERM "${trainer_pid}" "${serve_pid}"
  if ! wait "${trainer_pid}"; then
    echo "trainer exited non-zero after SIGTERM"; cat "${tlog}"; exit 1
  fi
  if ! wait "${serve_pid}"; then
    echo "serve daemon exited non-zero after SIGTERM"; cat "${slog}"; exit 1
  fi
  local log
  for log in "${tlog}" "${slog}"; do
    grep -q 'drain complete' "${log}" || {
      echo "daemon did not drain cleanly (${log})"; cat "${log}"; exit 1; }
    grep -q 'connections_open 0' "${log}" || {
      echo "daemon leaked connections (${log})"; cat "${log}"; exit 1; }
  done
  echo "train-serve smoke OK: stream ingested, reload published live, zero lost"
  # -r: the trainer's default ingest journal is a directory (<model>.wal).
  rm -rf "${base}"_*
}

wal_smoke() {
  # Durable-ingest smoke (DESIGN.md §18) with real processes: SIGKILL a
  # journaling train_tool mid-ingest-burst, restart it on the same
  # journal, and prove (1) every acked example was replayed into the
  # rebuilt window, (2) retried sends of acked ids are absorbed as
  # duplicates, and (3) the revived loop still retrains and publishes a
  # live reload into a serve daemon.
  local build_dir="$1"
  echo "==> wal smoke (${build_dir})"
  local base tsock ssock tlog t2log slog blog model
  base="$(mktemp -u /tmp/ls_wal_smoke.XXXXXX)"
  tsock="${base}_trainer.sock"
  ssock="${base}_serve.sock"
  tlog="${base}_trainer.log"
  t2log="${base}_trainer2.log"
  slog="${base}_serve.log"
  blog="${base}_burst.log"
  model="${base}_model.txt"
  python3 - "${base}" <<'PY'
import random, sys
base = sys.argv[1]
rng = random.Random(0xD00D5EED)
with open(base + "_train.libsvm", "w") as f:
    for _ in range(500):
        label = 1 if rng.random() < 0.5 else -1
        cols = sorted(rng.sample(range(1, 25), 12))
        row = " ".join(f"{c}:{rng.gauss(0.4 * label, 1.0):.6f}"
                       for c in cols)
        f.write(f"{label} {row}\n")
PY
  local trainer_flags=(--models demo="${model}" --window 600
                       --retrain-interval-ms 200 --min-new 50
                       --publish-socket "${ssock}" --drain-ms 5000)
  "./${build_dir}/examples/train_tool" --socket "${tsock}" \
    "${trainer_flags[@]}" >"${tlog}" &
  local trainer_pid=$!
  wait_for_socket "${tsock}" "train_tool" "${tlog}"
  grep -q "journal=${model}.wal" "${tlog}" || {
    echo "train_tool did not open its journal"; cat "${tlog}"; exit 1; }
  # Burst 1 completes: 250 examples, every one acked (and therefore,
  # under the default --wal-sync always, durable).
  "./${build_dir}/examples/serve_client" --socket "${tsock}" --mode ingest \
    --model demo --data "${base}_train.libsvm" --count 250 \
    | grep -q 'ingested=250 duplicates=0 rejected=0' || {
    echo "burst 1 was not fully acked"; cat "${tlog}"; exit 1; }
  # Burst 2 is in flight when the trainer takes a SIGKILL: no drain, no
  # flush, no destructors. The client loses its connection mid-retry and
  # exits non-zero — expected. The burst cycles the stream (500 sends)
  # so the kill reliably lands with ingest traffic on the wire.
  "./${build_dir}/examples/serve_client" --socket "${tsock}" --mode ingest \
    --model demo --data "${base}_train.libsvm" --count 500 --id-base 250 \
    --retries 2 >"${blog}" 2>&1 &
  local burst_pid=$!
  sleep 0.05
  kill -KILL "${trainer_pid}" 2>/dev/null || true
  wait "${trainer_pid}" 2>/dev/null || true
  wait "${burst_pid}" 2>/dev/null || true
  # The SIGKILLed trainer leaves its socket file behind; remove it so the
  # readiness loop below waits for the *restarted* trainer's bind (which
  # happens only after journal replay) instead of passing on the corpse.
  rm -f "${tsock}"
  # Restart on the same journal: the startup banner reports the replay.
  "./${build_dir}/examples/train_tool" --socket "${tsock}" \
    "${trainer_flags[@]}" >"${t2log}" &
  trainer_pid=$!
  wait_for_socket "${tsock}" "restarted train_tool" "${t2log}"
  local replayed
  replayed="$(grep -oE 'replayed=[0-9]+' "${t2log}" | head -1 | cut -d= -f2 || true)"
  [[ -n "${replayed}" && "${replayed}" -ge 250 ]] || {
    echo "replay lost acked examples (replayed=${replayed:-none}, want >=250)"
    cat "${t2log}"; exit 1; }
  "./${build_dir}/examples/serve_client" --socket "${tsock}" --mode health \
    | grep -q ready || { echo "revived trainer not ready"; exit 1; }
  # Retrying burst 1 verbatim: every id was acked before the kill, so all
  # 250 must be absorbed as duplicates — the idempotency the wire-level
  # retry policy is built on.
  "./${build_dir}/examples/serve_client" --socket "${tsock}" --mode ingest \
    --model demo --data "${base}_train.libsvm" --count 250 \
    | grep -q 'ingested=0 duplicates=250 rejected=0' || {
    echo "acked ids were not deduplicated after the restart"; exit 1; }
  # Re-sending burst 2 finishes the stream: whatever was acked pre-kill
  # dedupes, the rest ingests fresh — either way nothing is rejected, and
  # the fresh examples drive a retrain that must publish into a live
  # serve tier.
  for _ in $(seq 1 150); do
    [[ -f "${model}" ]] && break
    sleep 0.1
  done
  [[ -f "${model}" ]] || { echo "revived trainer never wrote a model"; cat "${t2log}"; exit 1; }
  "./${build_dir}/examples/serve_tool" --socket "${ssock}" \
    --models demo="${model}" --workers 2 --drain-ms 5000 >"${slog}" &
  local serve_pid=$!
  wait_for_socket "${ssock}" "serve_tool" "${slog}"
  "./${build_dir}/examples/serve_client" --socket "${tsock}" --mode ingest \
    --model demo --data "${base}_train.libsvm" --count 500 --id-base 250 \
    | grep -q ' rejected=0' || { echo "burst 2 retry was rejected"; exit 1; }
  local models=""
  for _ in $(seq 1 150); do
    models="$("./${build_dir}/examples/serve_client" --socket "${ssock}" \
      --mode models)"
    grep -qE 'model demo version ([2-9]|[0-9]{2,})' <<<"${models}" && break
    models=""
    sleep 0.1
  done
  [[ -n "${models}" ]] || {
    echo "no post-crash reload ever landed in the serve tier:"
    "./${build_dir}/examples/serve_client" --socket "${ssock}" --mode models
    cat "${t2log}"; exit 1; }
  kill -TERM "${trainer_pid}" "${serve_pid}"
  if ! wait "${trainer_pid}"; then
    echo "revived trainer exited non-zero after SIGTERM"; cat "${t2log}"; exit 1
  fi
  if ! wait "${serve_pid}"; then
    echo "serve daemon exited non-zero after SIGTERM"; cat "${slog}"; exit 1
  fi
  echo "wal smoke OK: SIGKILL mid-burst, ${replayed} examples replayed, acked ids deduped, reload published"
  rm -rf "${base}"_* "${model}.wal"
}

mode="${1:-all}"

if [[ "${mode}" == "all" || "${mode}" == "--plain-only" ]]; then
  run_suite build
  # Thread-count invariance gate: the same suite must pass with OpenMP
  # parallel regions actually running multiple threads (the deterministic
  # WSS folds and the bit-identical-model tests do the real checking).
  echo "==> re-testing build with OMP_NUM_THREADS=2"
  OMP_NUM_THREADS=2 ctest --test-dir build --output-on-failure -j "$(nproc)"
  # SIMD dispatch-matrix gate: the whole suite must pass at every kernel
  # level this host supports, not just the native one — the scalar and
  # AVX2 runs are what catch a vector kernel that only agrees with itself.
  # simd_probe --levels enumerates what the cpuid path actually detected.
  for level in $(./build/examples/simd_probe --levels); do
    echo "==> re-testing build with LS_SIMD=${level}"
    LS_SIMD="${level}" ctest --test-dir build --output-on-failure -j "$(nproc)"
  done
  metrics_smoke
  serve_smoke build
  reschedule_smoke build
  chaos_smoke build
  route_smoke build
  train_serve_smoke build
  wal_smoke build
fi

if [[ "${mode}" == "all" || "${mode}" == "--sanitize-only" ]]; then
  # ASan's allocator dislikes being re-run in a dirty tree configured
  # without sanitizers, so it gets its own build directory.
  # The `timing` tests compare host timings against bounds, and ASan's
  # instrumentation changes the per-format costs they compare (the
  # HeuristicSanity picks fail under it even alone), so this stage leaves
  # them to the plain stage, which runs them with their bounds unchanged.
  run_suite build-asan -DLS_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -- -LE timing
  # The load-time layout decision and the bandit's cost-model priors run
  # under ASan+UBSan through real daemons too (one daemon each).
  serve_smoke build-asan
  reschedule_smoke build-asan
  # The chaos soak kills a retrain mid-checkpoint-save and resumes it, so
  # the checkpoint decoder, which copies file bytes by a length read from
  # the file, runs under ASan+UBSan too, not only under TSan.
  echo "==> train-serve chaos (build-asan)"
  run_soak build-asan train_serve_chaos
fi

if [[ "${mode}" == "all" || "${mode}" == "--tsan-only" ]]; then
  # TSan stage: compiled without OpenMP (libgomp is not TSan-instrumented,
  # see the top-level CMakeLists), so this exercises the std::thread code —
  # the serving batcher and workers, the rescheduler thread, the router
  # prober, the trainer cadence and the WAL.
  run_suite build-tsan -DLS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  serve_smoke build-tsan
  reschedule_smoke build-tsan
  chaos_smoke build-tsan
  route_smoke build-tsan
  train_serve_smoke build-tsan
  wal_smoke build-tsan
fi

echo "==> all checks passed"
