#!/bin/sh
# Build-and-test gauntlet: the bench-schema gate, the plain tree (full
# suite), the plan-cache amortization gate, the multi-session server
# gate, the mid-query re-optimization gate, the live telemetry scrape
# gate, the oracle-replay gate, a served-query benchmark smoke run, then
# the ThreadSanitizer and
# AddressSanitizer trees over the labeled suites (exec, parallel, spill,
# obs, cache, server, reopt, startup, storage — the obs label includes
# the calibration feedback tests).  One command for the checks
# the verify skill lists individually:
#
#   tools/run_checks.sh                  # everything
#   tools/run_checks.sh bench plain      # schema gate + plain tree
#   tools/run_checks.sh cachebench       # plan-cache amortization gate
#   tools/run_checks.sh serverbench      # multi-session server gate
#   tools/run_checks.sh reoptbench       # mid-query re-optimization gate
#   tools/run_checks.sh telemetry        # live /metrics scrape gate
#   tools/run_checks.sh replay           # oracle-replay scorecard gate
#   tools/run_checks.sh perfbench        # served-query benchmark smoke run
#   tools/run_checks.sh tsan asan        # just the sanitizer trees
#
# Exits non-zero on the first failing step.  Sanitizer trees live in
# build-tsan/ and build-asan/, separate from build/ — DQEP_SANITIZE
# poisons every target in a tree.

set -eu
cd "$(dirname "$0")/.."

steps="${*:-bench plain cachebench serverbench reoptbench telemetry replay perfbench tsan asan}"
labels='exec|parallel|spill|obs|cache|server|reopt|startup|storage'

for step in $steps; do
  case "$step" in
    bench)
      echo "== bench: unified-schema gate over checked-in results =="
      python3 tools/bench_diff.py --validate BENCH_*.json
      python3 tools/bench_diff_test.py
      ;;
    plain)
      echo "== plain: full build + full ctest =="
      cmake -B build -S . >/dev/null
      cmake --build build -j
      ctest --test-dir build --output-on-failure
      ;;
    cachebench)
      # Functional gate, not a timing diff: the bench's headline claim —
      # planning amortizes >= 5x at a 90% template repeat rate — is a
      # within-run ratio, so it holds on any machine speed.
      echo "== cachebench: plan-cache amortization gate =="
      cmake -B build -S . >/dev/null
      cmake --build build -j --target plan_cache_bench
      build/bench/plan_cache_bench --json > build/BENCH_plan_cache.json
      python3 tools/bench_diff.py --validate build/BENCH_plan_cache.json
      python3 - <<'EOF'
import json
rows = {r["name"]: r for r in json.load(open("build/BENCH_plan_cache.json"))["rows"]}
row = rows["plan_cache/repeat_90/cache_on"]
assert row["median_speedup"] >= 5.0, \
    f"plan cache amortization regressed: {row['median_speedup']:.2f}x < 5x"
print(f"cachebench: {row['median_speedup']:.2f}x median planning speedup "
      f"at 90% repeat rate (hit rate {row['hit_rate']:.2f})")
EOF
      ;;
    serverbench)
      # Functional gates on within-run ratios and exact invariants, so
      # they hold on any machine speed: the shared plan cache halves
      # warm-template p50 (server-reported seconds), the memory-grant
      # pool never exceeds its budget or forces a spill, and the cost
      # throttle actually throttles.
      echo "== serverbench: multi-session server gate =="
      cmake -B build -S . >/dev/null
      cmake --build build -j --target server_bench
      build/bench/server_bench --json > build/BENCH_server.json
      python3 tools/bench_diff.py --validate build/BENCH_server.json
      python3 - <<'EOF'
import json
rows = {r["name"]: r for r in json.load(open("build/BENCH_server.json"))["rows"]}
on, off = rows["server/cache_on"], rows["server/cache_off"]
pool = rows["server/memory_pool"]
throttled = rows["server/throttle_on"]
scrape = rows["server/scrape_on"]
assert on["errors"] == 0 and off["errors"] == 0 and pool["errors"] == 0, \
    "server bench saw query errors"
assert on["hit_rate"] >= 0.8, \
    f"shared plan cache hit rate regressed: {on['hit_rate']:.2f} < 0.8"
assert off["p50_speedup"] >= 2.0, \
    f"plan-cache p50 speedup regressed: {off['p50_speedup']:.2f}x < 2x"
assert pool["peak_granted_pages"] <= pool["pool_pages"], \
    f"grant pool over-admitted: {pool['peak_granted_pages']} > {pool['pool_pages']}"
assert pool["forced_overflows"] == 0, \
    f"admitted queries forced {pool['forced_overflows']} spill overflows"
assert throttled["qps_ratio"] <= 0.8, \
    f"cost throttle did not throttle: qps ratio {throttled['qps_ratio']:.2f}"
# The headline claim is < 1.05 (scraping is off the query path); the
# gate allows run-to-run p50 jitter between two separate server runs.
assert scrape["errors"] == 0, "scrape scenario saw query errors"
assert scrape["scrape_p50_ratio"] <= 1.25, \
    f"1 Hz scraping cost p50 {scrape['scrape_p50_ratio']:.2f}x > 1.25x"
alert = rows["server/alert_on"]
assert alert["errors"] == 0 and rows["server/alert_off"]["errors"] == 0, \
    "alerting scenario saw query errors"
# Best-of-3 paired runs inside the bench absorbs run-to-run jitter, so
# the headline <= 1.05 claim is gated directly.
assert alert["alert_p50_ratio"] <= 1.05, \
    f"SLO alerting cost p50 {alert['alert_p50_ratio']:.2f}x > 1.05x"
print(f"serverbench: {off['p50_speedup']:.2f}x p50 speedup at hit rate "
      f"{on['hit_rate']:.2f}; pool peak {pool['peak_granted_pages']:.0f}/"
      f"{pool['pool_pages']:.0f} pages, {pool['forced_overflows']:.0f} forced "
      f"overflows; throttle qps ratio {throttled['qps_ratio']:.2f}; "
      f"scrape p50 ratio {scrape['scrape_p50_ratio']:.2f}; "
      f"alert p50 ratio {alert['alert_p50_ratio']:.2f}")
EOF
      ;;
    telemetry)
      # End-to-end exposition gate: boot a real dqep_server on an
      # ephemeral metrics port, push queries through dqep_cli, scrape
      # /metrics over HTTP, and strict-parse the payload with
      # tools/check_exposition.py (line grammar, monotone cumulative
      # buckets, _count == +Inf, required families).  A near-zero slow
      # threshold makes every query spool a flight-recorder bundle, so
      # the step also proves /slow, /metrics.json, and the bundles are
      # valid JSON, and that each bundle's meta agrees with the query-log
      # line of the same query (two renderings of one per-query record).
      # Re-validates the checked-in bench baselines too — the telemetry
      # tables in EXPERIMENTS.md are built from them.
      echo "== telemetry: live exposition scrape gate =="
      cmake -B build -S . >/dev/null
      cmake --build build -j --target dqep_server_bin dqep_cli
      python3 tools/bench_diff.py --validate BENCH_*.json
      tele_dir="$(mktemp -d)"
      build/tools/dqep_server --socket="$tele_dir/s" --metrics-port=0 \
        --pool-pages=256 --slow-query-ms=0.001 \
        --slow-spool="$tele_dir/spool" --slow-spool-max=4 \
        --slo-ms=50 --slo-target=0.99 --query-log="$tele_dir/log.jsonl" \
        > "$tele_dir/server.log" &
      tele_pid=$!
      trap 'kill "$tele_pid" 2>/dev/null || true' EXIT
      for _ in $(seq 1 100); do
        grep -q "metrics on http" "$tele_dir/server.log" && break
        sleep 0.1
      done
      tele_port="$(sed -n \
        's#.*metrics on http://127.0.0.1:\([0-9]*\)/metrics#\1#p' \
        "$tele_dir/server.log")"
      test -n "$tele_port"
      for i in 1 2 3 4 5 6; do
        echo "SELECT * FROM R1 WHERE R1.s < $((i * 100))"
      done | build/tools/dqep_cli --connect="$tele_dir/s" >/dev/null
      python3 -c "import urllib.request, sys
sys.stdout.write(urllib.request.urlopen(
    'http://127.0.0.1:$tele_port/metrics', timeout=10).read().decode())" \
        > "$tele_dir/metrics.txt"
      python3 tools/check_exposition.py "$tele_dir/metrics.txt" \
        --require dqep_server_session_queries \
        --require dqep_server_query_latency_seconds \
        --require dqep_server_admission_queue_wait_seconds \
        --require dqep_template_latency_seconds \
        --require dqep_obs_flight_recorded \
        --require dqep_slo_burn_rate \
        --require dqep_template_drift_ratio \
        --require dqep_calibration_age_queries
      python3 - "$tele_port" "$tele_dir/spool" "$tele_dir/log.jsonl" <<'EOF'
import glob
import json
import sys
import urllib.request

port, spool, log = sys.argv[1], sys.argv[2], sys.argv[3]
slow = json.load(urllib.request.urlopen(
    f"http://127.0.0.1:{port}/slow", timeout=10))
assert isinstance(slow, list) and slow, "no flight-recorder entries"
json.load(urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics.json", timeout=10))
bundles = glob.glob(spool + "/slow-*.json")
assert bundles, "no slow-query bundles spooled"
assert len(bundles) <= 4, \
    f"--slow-spool-max=4 rotation kept {len(bundles)} bundles"
logged = {}
for line in open(log):
    record = json.loads(line)
    logged[record["query"]] = record
for path in bundles:
    doc = json.load(open(path))
    assert "meta" in doc and "trace" in doc and doc["trace"]["traceEvents"], \
        f"incomplete bundle {path}"
    meta = doc["meta"]
    line = logged.get(meta["query"])
    assert line is not None, f"no log line for bundle {path}"
    for key in ("query_hash", "result_rows", "plan_cache", "decision_count",
                "decisions"):
        assert meta.get(key) == line.get(key), \
            f"{path}: meta {key}={meta.get(key)!r} != log {line.get(key)!r}"
print(f"telemetry: {len(slow)} recorder entries, "
      f"{len(bundles)} spooled bundles ok, each matching its log line")
EOF
      kill "$tele_pid"
      wait "$tele_pid"
      trap - EXIT
      rm -rf "$tele_dir"
      ;;
    replay)
      # Oracle-replay gate: log a small chain-query workload through the
      # local CLI (plan cache on, so literals lift into start-up
      # bindings and the plans carry real choose-plan decisions), replay
      # it with every decision forced each way, and validate the
      # scorecard — every replayed record must have measured (not
      # estimated) regret per decision, an interval-coverage verdict,
      # and byte-identical row counts for the chosen plan.
      echo "== replay: oracle-replay scorecard gate =="
      cmake -B build -S . >/dev/null
      cmake --build build -j --target dqep_cli dqep_replay
      replay_dir="$(mktemp -d)"
      {
        for lit in 100 200 300 400 500 600 700 800; do
          echo "SELECT * FROM R1 WHERE R1.s < $lit"
        done
        for lit in 150 300 450 600 750 900; do
          echo "SELECT * FROM R1, R2 WHERE R1.b = R2.a AND R1.s < $lit" \
               "AND R2.s < 500"
        done
        for lit in 200 400 600 800 950 350; do
          echo "SELECT * FROM R1, R2, R3, R4 WHERE R1.b = R2.a AND" \
               "R2.b = R3.a AND R3.b = R4.a AND R1.s < $lit AND" \
               "R2.s < 500 AND R3.s < 700 AND R4.s < 900"
        done
      } | build/tools/dqep_cli --query-log="$replay_dir/log.jsonl" \
          > /dev/null
      build/tools/dqep_replay --log="$replay_dir/log.jsonl" \
        --out="$replay_dir/scorecard.json" --repeat=3
      python3 - "$replay_dir/scorecard.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))["replay"]
assert doc["queries"] >= 20, f"logged only {doc['queries']} queries"
assert doc["replayed"] == doc["queries"], \
    f"only {doc['replayed']}/{doc['queries']} records replayed"
decisions = 0
for r in doc["records"]:
    assert r["replayed"], f"record not replayed: {r}"
    assert r["rows_match"], \
        f"replayed rows {r['replay_rows']} != logged {r['logged_rows']}: " \
        f"{r['query'][:60]}"
    assert "root_in_interval" in r, "missing interval-coverage verdict"
    for d in r["decisions"]:
        decisions += 1
        assert "measured_regret_seconds" in d and "win" in d, \
            f"decision without measured regret: {d}"
        assert d["alternatives_row_match"], \
            f"forced alternative broke row parity: {r['query'][:60]}"
assert decisions > 0, "no choose-plan decisions replayed"
for t in doc["templates"]:
    assert 0.0 <= t["win_rate"] <= 1.0, t
    assert "interval_coverage" in t and "mean_measured_regret_seconds" in t
print(f"replay: {doc['replayed']} records, {decisions} decisions "
      f"oracle-scored, row parity held")
EOF
      rm -rf "$replay_dir"
      ;;
    reoptbench)
      # Functional gate on within-run invariants, machine-speed proof:
      # forced misestimates always fire a checkpoint, accurate estimates
      # never do, every variant returns identical rows, and the cost of
      # re-optimizing (capture + suffix optimization + restart) stays a
      # bounded multiple of the plans it competes with.
      echo "== reoptbench: mid-query re-optimization gate =="
      cmake -B build -S . >/dev/null
      cmake --build build -j --target reopt_bench
      build/bench/reopt_bench --json > build/BENCH_reopt.json
      python3 tools/bench_diff.py --validate build/BENCH_reopt.json
      python3 - <<'GATE'
import json
rows = {r["name"]: r for r in json.load(open("build/BENCH_reopt.json"))["rows"]}
for q in ("Q2", "Q4", "Q6", "Q10"):
    static = rows[f"reopt/{q}/misestimate/static"]
    reopt = rows[f"reopt/{q}/misestimate/reopt"]
    oracle = rows[f"reopt/{q}/misestimate/oracle"]
    off, on = rows[f"reopt/{q}/accurate/off"], rows[f"reopt/{q}/accurate/on"]
    assert reopt["triggers"] >= 1, f"{q}: forced misestimate fired no checkpoint"
    assert on["triggers"] == 0, f"{q}: accurate estimates fired a checkpoint"
    counts = {static["rows"], reopt["rows"], oracle["rows"], on["rows"]}
    assert len(counts) == 1, f"{q}: row-count parity broken: {counts}"
    assert reopt["reopt_seconds"] <= reopt["seconds_median"], \
        f"{q}: re-optimization time exceeds the whole execution"
    assert reopt["seconds_median"] <= 10 * max(static["seconds_median"],
                                               oracle["seconds_median"]), \
        f"{q}: re-opt run unreasonably slow vs static/oracle"
    assert on["seconds_median"] <= 2.0 * off["seconds_median"], \
        f"{q}: arming overhead {on['seconds_median']/off['seconds_median']:.2f}x > 2x"
trig = sum(rows[f"reopt/{q}/misestimate/reopt"]["triggers"]
           for q in ("Q2", "Q4", "Q6", "Q10"))
print(f"reoptbench: {trig} checkpoints fired across Q2-Q5, parity held, "
      "accurate runs stayed quiet")
GATE
      ;;
    perfbench)
      # The served-query benchmark (perfbench/, built by its own runner
      # into .bench_build/) names engine declarations directly and checks
      # every reply against an embedded reference.  A short run of each
      # workload proves it still builds and that no served reply is wrong
      # or failed.
      echo "== perfbench: served-query benchmark smoke run =="
      for workload in warm_chains cold_templates wide_bindings; do
        result="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
          --seconds 2 --trace 0 | tail -n 1)"
        python3 - "$workload" "$result" <<'GATE'
import json
import sys

workload, line = sys.argv[1], sys.argv[2]
doc = json.loads(line)
assert doc.get("correct") is True, f"{workload}: wrong replies: {line}"
assert doc.get("failed") == 0, f"{workload}: failed operations: {line}"
print(f"perfbench {workload}: {doc['attempted']} operations, all correct")
GATE
      done
      ;;
    tsan)
      echo "== tsan: labeled suites ($labels) =="
      cmake -B build-tsan -S . -DDQEP_SANITIZE=thread >/dev/null
      cmake --build build-tsan -j --target \
        exec_batch_test executor_test exec_parallel_test exec_spill_test \
        obs_test obs_feedback_test obs_alerts_test plan_cache_test \
        server_test reopt_test startup_test startup_diff_test pager_test
      ctest --test-dir build-tsan -L "$labels" --output-on-failure
      ;;
    asan)
      echo "== asan: labeled suites ($labels) =="
      cmake -B build-asan -S . -DDQEP_SANITIZE=address >/dev/null
      cmake --build build-asan -j --target \
        exec_batch_test executor_test exec_parallel_test exec_spill_test \
        obs_test obs_feedback_test obs_alerts_test plan_cache_test \
        server_test reopt_test startup_test startup_diff_test pager_test
      ctest --test-dir build-asan -L "$labels" --output-on-failure
      ;;
    *)
      echo "unknown step: $step (want bench, plain, cachebench," \
           "serverbench, reoptbench, telemetry, replay, perfbench, tsan," \
           "asan)" >&2
      exit 2
      ;;
  esac
done
echo "run_checks: all steps passed"
