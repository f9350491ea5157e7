// dqep_replay — the choose-plan oracle: replays a logged workload with
// every decision forced each way and measures the road not taken.
//
// The paper's bet is that start-up cost comparison picks the right
// alternative, but a live system can only report *estimated* regret
// (EXPLAIN ANALYZE compares the chosen plan's measured seconds against
// the model's price for the best other alternative).  This driver turns
// the estimate into ground truth: for every record of a JSONL query log
// (src/obs/querylog.*) it
//
//   1. re-plans the query text through a plan cache (literals lifted to
//      start-up bindings, exactly as the live system planned it) and
//      checks the template fingerprint matches the logged query_hash;
//   2. resolves + executes the chosen plan and verifies the replayed
//      row count is identical to the logged one (replay validity);
//   3. for every choose-plan decision, forces each non-chosen
//      alternative in turn (StartupOptions::forced_choices), executes
//      the forced plan, verifies row parity again, and measures its
//      wall time — the *true* cost of the road not taken;
//   4. scores the decision: measured regret = chosen seconds minus the
//      best other alternative's seconds (negative: the decision won by
//      that margin), a win verdict with a small timing-noise tolerance,
//      and the logged estimate-interval coverage (did the logged actual
//      land inside the compile-time [lo, hi]?).
//
// Output: a per-template scorecard (win rate, mean measured vs.
// estimated regret, interval coverage, row parity) as a text report on
// stdout plus a JSON file for tooling (--out).  Timing uses the median
// of --repeat executions per plan; replay always runs single-threaded,
// so row parity is the thread-count invariant the tests already
// enforce.
//
// Usage:
//   dqep_replay --log=FILE [--out=FILE] [--repeat=N] [--limit=N]
//               [--cost-profile=FILE] [--seed=N]

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/exec_context.h"
#include "exec/executor.h"
#include "obs/calibrate.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "runtime/plan_cache.h"
#include "runtime/startup.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Timing-noise tolerance for the win verdict: the chosen plan "wins"
/// when it is no slower than the best alternative plus 5% and 10us —
/// sub-tolerance differences are indistinguishable from scheduler
/// jitter at this query scale.
bool IsWin(double chosen_seconds, double best_other_seconds) {
  return chosen_seconds <= best_other_seconds * 1.05 + 1e-5;
}

double MedianOf(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  if (n == 0) {
    return 0.0;
  }
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// The decisions of one resolved plan, in EXPLAIN ANALYZE's order: a
/// pre-order walk of the dynamic plan descending only the *chosen*
/// alternative of each choose node (obs/analyze.cc does the same walk),
/// so index i here pairs with the query log's decisions[i].
void CollectDecisionNodes(
    const PhysNode* node,
    const std::unordered_map<const PhysNode*, size_t>& choices,
    std::vector<const PhysNode*>* out) {
  if (node->kind() == PhysOpKind::kChoosePlan) {
    out->push_back(node);
    auto it = choices.find(node);
    size_t chosen = it != choices.end() ? it->second : 0;
    CollectDecisionNodes(node->child(chosen).get(), choices, out);
    return;
  }
  for (const PhysNodePtr& child : node->children()) {
    CollectDecisionNodes(child.get(), choices, out);
  }
}

/// One forced (or natural) execution: resolve under `forced`, run it
/// single-threaded, count rows, time the execution.
struct RunOutcome {
  bool ok = false;
  std::string error;
  int64_t rows = 0;
  double seconds = 0.0;  ///< median over `repeat` runs
};

RunOutcome RunOnce(
    const CachedPlanResult& planned, const CostModel& model,
    const SystemConfig& config, PaperWorkload* workload, int repeat,
    const std::unordered_map<const PhysNode*, size_t>* forced) {
  RunOutcome out;
  StartupOptions startup_options;
  if (!planned.plan_params.empty()) {
    startup_options.plan_params = &planned.plan_params;
  }
  startup_options.forced_choices = forced;
  Result<StartupResult> startup =
      ResolveDynamicPlan(planned.root, model, planned.bound, startup_options);
  if (!startup.ok()) {
    out.error = startup.status().ToString();
    return out;
  }
  std::vector<double> times;
  times.reserve(static_cast<size_t>(repeat));
  for (int r = 0; r < repeat; ++r) {
    std::unique_ptr<ExecContext> ctx =
        MakeExecContext(planned.bound, config, ExecOptions{});
    if (ctx == nullptr) {
      out.error = "no execution context";
      return out;
    }
    Result<std::unique_ptr<BatchIterator>> iter = BuildBatchExecutor(
        startup->resolved, workload->db(), planned.bound, ctx.get());
    if (!iter.ok()) {
      out.error = iter.status().ToString();
      return out;
    }
    const auto start = std::chrono::steady_clock::now();
    (*iter)->Open();
    int64_t rows = 0;
    TupleBatch batch;
    while ((*iter)->Next(&batch)) {
      rows += batch.num_rows();
    }
    (*iter)->Close();
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    if (r == 0) {
      out.rows = rows;
    } else if (rows != out.rows) {
      out.error = "row count unstable across repeats";
      return out;
    }
  }
  out.seconds = MedianOf(std::move(times));
  out.ok = true;
  return out;
}

/// One scored decision of one replayed record.
struct DecisionScore {
  size_t index = 0;
  size_t alternatives = 0;
  size_t chosen = 0;
  std::string chosen_op;
  double chosen_seconds = 0.0;
  double best_other_seconds = kInf;
  size_t best_other_index = 0;
  double measured_regret = 0.0;   ///< chosen - best other, measured
  double estimated_regret = 0.0;  ///< the logged est-based regret
  bool have_estimated = false;
  bool win = false;
  bool alternatives_row_match = true;  ///< every forced run row-identical
  std::vector<double> alternative_seconds;  ///< +inf for the chosen slot
};

/// One replayed record.
struct RecordScore {
  const obs::QueryLogRecord* logged = nullptr;
  bool replayed = false;
  std::string skip_reason;
  int64_t replay_rows = 0;
  bool rows_match = false;
  double chosen_seconds = 0.0;
  /// Estimate-interval coverage over the *logged* operators: fraction
  /// whose measured seconds landed inside the compile-time [lo, hi].
  int64_t operators_covered = 0;
  int64_t operators_measured = 0;
  bool root_in_interval = false;
  std::vector<DecisionScore> decisions;
};

/// Per-template aggregate.
struct TemplateScore {
  uint64_t fingerprint = 0;
  std::string template_text;
  int64_t queries = 0;
  int64_t decisions = 0;
  int64_t wins = 0;
  int64_t rows_matched = 0;
  double sum_measured_regret = 0.0;
  double sum_estimated_regret = 0.0;
  int64_t estimated_count = 0;
  int64_t operators_covered = 0;
  int64_t operators_measured = 0;
};

void ScoreCoverage(const obs::QueryLogRecord& logged, RecordScore* score) {
  for (const obs::QueryLogOperator& op : logged.operators) {
    if (!op.have_actual) {
      continue;
    }
    ++score->operators_measured;
    if (op.actual_seconds >= op.est_cost_lo &&
        op.actual_seconds <= op.est_cost_hi) {
      ++score->operators_covered;
    }
  }
  if (!logged.operators.empty() && logged.operators.front().have_actual) {
    const obs::QueryLogOperator& root = logged.operators.front();
    score->root_in_interval = root.actual_seconds >= root.est_cost_lo &&
                              root.actual_seconds <= root.est_cost_hi;
  }
}

std::string RenderScorecardJson(const std::string& log_path, int repeat,
                                int64_t skipped_lines,
                                const std::vector<RecordScore>& records,
                                const std::vector<TemplateScore>& templates) {
  std::string out = "{\n  \"replay\": {\n";
  char buf[512];
  out += "    \"log\": \"" + obs::JsonEscape(log_path) + "\",\n";
  int64_t replayed = 0;
  for (const RecordScore& r : records) {
    replayed += r.replayed ? 1 : 0;
  }
  std::snprintf(buf, sizeof(buf),
                "    \"queries\": %zu,\n    \"replayed\": %" PRId64
                ",\n    \"skipped_lines\": %" PRId64
                ",\n    \"repeat\": %d,\n",
                records.size(), replayed, skipped_lines, repeat);
  out += buf;

  out += "    \"templates\": [";
  bool first = true;
  for (const TemplateScore& t : templates) {
    out += first ? "\n" : ",\n";
    first = false;
    double win_rate =
        t.decisions > 0
            ? static_cast<double>(t.wins) / static_cast<double>(t.decisions)
            : 1.0;
    double coverage =
        t.operators_measured > 0
            ? static_cast<double>(t.operators_covered) /
                  static_cast<double>(t.operators_measured)
            : 0.0;
    std::snprintf(buf, sizeof(buf),
                  "      {\"fingerprint\": \"0x%016" PRIx64
                  "\", \"queries\": %" PRId64 ", \"decisions\": %" PRId64
                  ", \"wins\": %" PRId64
                  ", \"win_rate\": %.6f, \"rows_matched\": %" PRId64
                  ", \"mean_measured_regret_seconds\": %.9f"
                  ", \"mean_estimated_regret_seconds\": %.9f"
                  ", \"interval_coverage\": %.6f}",
                  t.fingerprint, t.queries, t.decisions, t.wins, win_rate,
                  t.rows_matched,
                  t.decisions > 0 ? t.sum_measured_regret /
                                        static_cast<double>(t.decisions)
                                  : 0.0,
                  t.estimated_count > 0
                      ? t.sum_estimated_regret /
                            static_cast<double>(t.estimated_count)
                      : 0.0,
                  coverage);
    out += buf;
  }
  out += first ? "],\n" : "\n    ],\n";

  out += "    \"records\": [";
  first = true;
  for (const RecordScore& r : records) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "      {\"query\": \"" + obs::JsonEscape(r.logged->query) + "\"";
    std::snprintf(buf, sizeof(buf),
                  ", \"fingerprint\": \"0x%016" PRIx64
                  "\", \"replayed\": %s",
                  r.logged->query_hash, r.replayed ? "true" : "false");
    out += buf;
    if (!r.skip_reason.empty()) {
      out += ", \"skip_reason\": \"" + obs::JsonEscape(r.skip_reason) + "\"";
    }
    if (r.replayed) {
      std::snprintf(
          buf, sizeof(buf),
          ", \"logged_rows\": %" PRId64 ", \"replay_rows\": %" PRId64
          ", \"rows_match\": %s, \"chosen_seconds\": %.9f"
          ", \"operators_covered\": %" PRId64
          ", \"operators_measured\": %" PRId64 ", \"root_in_interval\": %s",
          r.logged->result_rows, r.replay_rows,
          r.rows_match ? "true" : "false", r.chosen_seconds,
          r.operators_covered, r.operators_measured,
          r.root_in_interval ? "true" : "false");
      out += buf;
      out += ", \"decisions\": [";
      bool dfirst = true;
      for (const DecisionScore& d : r.decisions) {
        out += dfirst ? "\n" : ",\n";
        dfirst = false;
        std::snprintf(buf, sizeof(buf),
                      "        {\"index\": %zu, \"alternatives\": %zu, "
                      "\"chosen\": %zu, \"chosen_op\": \"%s\", "
                      "\"chosen_seconds\": %.9f, "
                      "\"best_other_seconds\": %.9f, "
                      "\"best_other_index\": %zu, "
                      "\"measured_regret_seconds\": %.9f, \"win\": %s, "
                      "\"alternatives_row_match\": %s",
                      d.index, d.alternatives, d.chosen,
                      d.chosen_op.c_str(), d.chosen_seconds,
                      d.best_other_seconds, d.best_other_index,
                      d.measured_regret, d.win ? "true" : "false",
                      d.alternatives_row_match ? "true" : "false");
        out += buf;
        if (d.have_estimated) {
          std::snprintf(buf, sizeof(buf),
                        ", \"estimated_regret_seconds\": %.9f",
                        d.estimated_regret);
          out += buf;
        }
        out += "}";
      }
      out += dfirst ? "]" : "\n      ]";
    }
    out += "}";
  }
  out += first ? "]\n" : "\n    ]\n";
  out += "  }\n}\n";
  return out;
}

int RunReplay(const std::string& log_path, const std::string& out_path,
              int repeat, int64_t limit,
              const std::string& cost_profile_path, uint64_t seed) {
  int64_t skipped_lines = 0;
  Result<std::vector<obs::QueryLogRecord>> loaded =
      obs::LoadQueryLog(log_path, &skipped_lines);
  if (!loaded.ok()) {
    std::fprintf(stderr, "dqep_replay: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::vector<obs::QueryLogRecord> log = std::move(*loaded);
  if (limit > 0 && static_cast<int64_t>(log.size()) > limit) {
    log.resize(static_cast<size_t>(limit));
  }
  if (log.empty()) {
    std::fprintf(stderr, "dqep_replay: %s holds no usable records\n",
                 log_path.c_str());
    return 1;
  }

  auto workload = PaperWorkload::Create(seed, /*populate=*/true);
  if (!workload.ok()) {
    std::fprintf(stderr, "dqep_replay: failed to build database: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  SystemConfig config = (*workload)->config();
  if (!cost_profile_path.empty()) {
    Result<CostProfile> profile = obs::LoadCostProfile(cost_profile_path);
    if (!profile.ok()) {
      std::fprintf(stderr, "dqep_replay: cost profile: %s\n",
                   profile.status().ToString().c_str());
      return 1;
    }
    profile->ApplyTo(&config);
  }
  CostModel model(&(*workload)->catalog(), config);
  // Replay's own cache — the live server planned through a cache, and
  // only the cache path lifts literals into start-up bindings, which is
  // what makes the replayed template fingerprint (and the choose-plan
  // decisions) match the log.
  DynamicPlanCache cache;

  std::vector<RecordScore> records;
  records.reserve(log.size());
  std::map<uint64_t, TemplateScore> templates;

  for (const obs::QueryLogRecord& logged : log) {
    records.emplace_back();
    RecordScore& score = records.back();
    score.logged = &logged;

    std::map<std::string, int64_t> bindings;
    for (const auto& [name, value] : logged.bindings) {
      bindings[name] = value;
    }
    CachedPlanRequest request;
    request.catalog = &(*workload)->catalog();
    request.model = &model;
    request.cache = &cache;
    request.memory_pages =
        logged.memory_pages >= 2 ? logged.memory_pages : 64.0;
    request.host_bindings = &bindings;
    Result<CachedPlanResult> planned =
        PlanQueryWithCache(logged.query, request);
    if (!planned.ok()) {
      score.skip_reason = "plan: " + planned.status().ToString();
      continue;
    }
    if (planned->fingerprint != logged.query_hash) {
      // An old log (raw-text hashing) or a changed normalizer: the
      // replayed plan would not be the logged template.
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "fingerprint mismatch (log 0x%016" PRIx64
                    ", replay 0x%016" PRIx64 ")",
                    logged.query_hash, planned->fingerprint);
      score.skip_reason = buf;
      continue;
    }

    // Natural (chosen-plan) replay.
    StartupOptions startup_options;
    if (!planned->plan_params.empty()) {
      startup_options.plan_params = &planned->plan_params;
    }
    Result<StartupResult> startup = ResolveDynamicPlan(
        planned->root, model, planned->bound, startup_options);
    if (!startup.ok()) {
      score.skip_reason = "resolve: " + startup.status().ToString();
      continue;
    }
    RunOutcome chosen_run = RunOnce(*planned, model, config, workload->get(),
                                    repeat, /*forced=*/nullptr);
    if (!chosen_run.ok) {
      score.skip_reason = "execute: " + chosen_run.error;
      continue;
    }
    score.replayed = true;
    score.replay_rows = chosen_run.rows;
    score.rows_match = chosen_run.rows == logged.result_rows;
    score.chosen_seconds = chosen_run.seconds;
    ScoreCoverage(logged, &score);

    std::vector<const PhysNode*> decision_nodes;
    CollectDecisionNodes(planned->root.get(), startup->choices,
                         &decision_nodes);

    for (size_t i = 0; i < decision_nodes.size(); ++i) {
      const PhysNode* node = decision_nodes[i];
      DecisionScore decision;
      decision.index = i;
      decision.alternatives = node->children().size();
      decision.chosen = startup->choices.at(node);
      decision.chosen_op =
          PhysOpKindName(node->child(decision.chosen)->kind());
      decision.chosen_seconds = chosen_run.seconds;
      decision.alternative_seconds.assign(decision.alternatives, kInf);
      for (size_t alt = 0; alt < decision.alternatives; ++alt) {
        if (alt == decision.chosen) {
          continue;
        }
        std::unordered_map<const PhysNode*, size_t> forced{{node, alt}};
        RunOutcome alt_run = RunOnce(*planned, model, config,
                                     workload->get(), repeat, &forced);
        if (!alt_run.ok) {
          decision.alternatives_row_match = false;
          continue;
        }
        if (alt_run.rows != logged.result_rows) {
          decision.alternatives_row_match = false;
        }
        decision.alternative_seconds[alt] = alt_run.seconds;
        if (alt_run.seconds < decision.best_other_seconds) {
          decision.best_other_seconds = alt_run.seconds;
          decision.best_other_index = alt;
        }
      }
      if (decision.best_other_seconds == kInf) {
        // Every alternative failed to replay; nothing to score.
        continue;
      }
      decision.measured_regret =
          decision.chosen_seconds - decision.best_other_seconds;
      decision.win =
          IsWin(decision.chosen_seconds, decision.best_other_seconds);
      // Pair with the logged decision row for the estimated regret the
      // live system reported (index-wise: the replay resolves the same
      // template under the same bindings, so the walk order matches).
      if (i < logged.decisions.size()) {
        const obs::QueryLogDecision& ld = logged.decisions[i];
        if (ld.have_actual && std::isfinite(ld.best_other_est)) {
          decision.estimated_regret = ld.actual_seconds - ld.best_other_est;
          decision.have_estimated = true;
        }
      }
      score.decisions.push_back(std::move(decision));
    }

    TemplateScore& agg = templates[logged.query_hash];
    agg.fingerprint = logged.query_hash;
    if (agg.template_text.empty()) {
      agg.template_text = logged.query_template;
    }
    agg.queries += 1;
    agg.rows_matched += score.rows_match ? 1 : 0;
    agg.operators_covered += score.operators_covered;
    agg.operators_measured += score.operators_measured;
    for (const DecisionScore& d : score.decisions) {
      agg.decisions += 1;
      agg.wins += d.win ? 1 : 0;
      agg.sum_measured_regret += d.measured_regret;
      if (d.have_estimated) {
        agg.sum_estimated_regret += d.estimated_regret;
        agg.estimated_count += 1;
      }
    }
  }

  std::vector<TemplateScore> template_list;
  template_list.reserve(templates.size());
  for (auto& [fp, t] : templates) {
    template_list.push_back(std::move(t));
  }

  // Text report.
  std::printf("replayed %zu record(s) from %s (repeat=%d)\n", log.size(),
              log_path.c_str(), repeat);
  int64_t skipped_records = 0;
  for (const RecordScore& r : records) {
    if (!r.replayed) {
      ++skipped_records;
      std::printf("  skipped: %.60s -- %s\n", r.logged->query.c_str(),
                  r.skip_reason.c_str());
    }
  }
  std::printf(
      "%-18s %7s %9s %5s %9s %12s %12s %9s %9s\n", "template", "queries",
      "decisions", "wins", "win-rate", "regret(true)", "regret(est)",
      "coverage", "rows-ok");
  for (const TemplateScore& t : template_list) {
    double win_rate =
        t.decisions > 0
            ? static_cast<double>(t.wins) / static_cast<double>(t.decisions)
            : 1.0;
    double coverage =
        t.operators_measured > 0
            ? static_cast<double>(t.operators_covered) /
                  static_cast<double>(t.operators_measured)
            : 0.0;
    std::printf("0x%016" PRIx64 " %7" PRId64 " %9" PRId64 " %5" PRId64
                " %8.1f%% %+11.6fs %+11.6fs %8.1f%% %6" PRId64 "/%" PRId64
                "\n",
                t.fingerprint, t.queries, t.decisions, t.wins,
                win_rate * 100.0,
                t.decisions > 0
                    ? t.sum_measured_regret / static_cast<double>(t.decisions)
                    : 0.0,
                t.estimated_count > 0
                    ? t.sum_estimated_regret /
                          static_cast<double>(t.estimated_count)
                    : 0.0,
                coverage * 100.0, t.rows_matched, t.queries);
  }
  if (skipped_records > 0) {
    std::printf("%" PRId64 " record(s) skipped\n", skipped_records);
  }

  if (!out_path.empty()) {
    std::string json = RenderScorecardJson(log_path, repeat, skipped_lines,
                                           records, template_list);
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "dqep_replay: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("scorecard: %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dqep

int main(int argc, char** argv) {
  std::string log_path;
  std::string out_path;
  std::string cost_profile_path;
  int repeat = 3;
  int64_t limit = 0;
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--log=", 6) == 0) {
      log_path = arg + 6;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
      repeat = std::atoi(arg + 9);
      if (repeat < 1 || repeat > 99) {
        std::fprintf(stderr, "--repeat must be in [1, 99]\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--limit=", 8) == 0) {
      limit = std::atoll(arg + 8);
      if (limit < 0) {
        std::fprintf(stderr, "--limit must be >= 0\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--cost-profile=", 15) == 0) {
      cost_profile_path = arg + 15;
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      seed = std::strtoull(arg + 7, nullptr, 10);
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: dqep_replay --log=FILE [flags]\n"
          "  --log=FILE          JSONL query log to replay (required)\n"
          "  --out=FILE          write the JSON scorecard here\n"
          "  --repeat=N          executions per plan, median taken "
          "(default 3)\n"
          "  --limit=N           replay only the first N records "
          "(default all)\n"
          "  --cost-profile=FILE calibration profile for the replay "
          "model\n"
          "  --seed=N            workload seed; must match the logged "
          "runs (default 42)\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", arg);
      return 1;
    }
  }
  if (log_path.empty()) {
    std::fprintf(stderr, "dqep_replay: --log=FILE is required\n");
    return 1;
  }
  return dqep::RunReplay(log_path, out_path, repeat, limit,
                         cost_profile_path, seed);
}
