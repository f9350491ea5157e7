#include "traced.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "client.h"
#include "exec/executor.h"
#include "obs/analyze.h"
#include "physical/costing.h"
#include "runtime/plan_cache.h"
#include "runtime/plan_rewrite.h"
#include "runtime/startup.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "server/server.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

enum Layer {
  kBenchmark,
  kPlanCache,
  kSql,
  kOptimizer,
  kStartup,
  kAdmission,
  kExec,
  kObs,
  kServer,
  kNumLayers
};
constexpr const char* kLayerNames[kNumLayers] = {
    "benchmark", "plan_cache", "sql", "optimizer", "startup",
    "admission", "exec",       "obs", "server"};

enum SpanName : uint8_t {
  kQuery,
  kPlan,
  kNormalize,
  kParse,
  kOptimize,
  kResolve,
  kAdmit,
  kExecBuild,
  kExecRun,
  kAdmitRecord,
  kAnnotate,
  kRecord,
  kFormat,
  kNumSpanNames
};
struct SpanInfo {
  const char* name;
  Layer layer;
};
constexpr SpanInfo kSpanInfo[kNumSpanNames] = {
    {"query", kBenchmark},          {"plan_cache.plan", kPlanCache},
    {"sql.normalize", kSql},        {"sql.parse", kSql},
    {"optimizer.optimize", kOptimizer}, {"startup.resolve", kStartup},
    {"admission.admit", kAdmission}, {"exec.build", kExec},
    {"exec.run", kExec},            {"admission.record", kAdmission},
    {"obs.annotate", kObs},         {"obs.record", kObs},
    {"server.format", kServer}};

struct Span {
  int64_t query = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  SpanName name = kQuery;
};

/// One worker's spans.  Disabled during warm-up: no clock reads, no
/// records.
class Recorder {
 public:
  explicit Recorder(Clock::time_point epoch) : epoch_(epoch) {}

  void StartQuery(int64_t query) { query_ = query; }
  int32_t Begin(SpanName name, int32_t parent) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({query_, Now(), 0, parent, name});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span) {
    if (span >= 0) {
      spans_[static_cast<size_t>(span)].end_ns = Now();
    }
  }
  /// A child of `parent` known only by its duration, laid out after
  /// `*cursor_ns` (which advances).
  void AddChild(SpanName name, int32_t parent, double seconds,
                int64_t* cursor_ns) {
    if (parent < 0 || seconds <= 0.0) {
      return;
    }
    const int64_t start = *cursor_ns;
    *cursor_ns += static_cast<int64_t>(seconds * 1e9);
    spans_.push_back({query_, start, *cursor_ns, parent, name});
  }
  int64_t start_ns(int32_t span) const {
    return span < 0 ? 0 : spans_[static_cast<size_t>(span)].start_ns;
  }

  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  const Clock::time_point epoch_;
  bool enabled_ = false;
  int64_t query_ = 0;
  std::vector<Span> spans_;
};

/// Engine state the workers share, configured like a default server.
struct Engine {
  dqep::PaperWorkload* database = nullptr;
  dqep::DynamicPlanCache* cache = nullptr;
  dqep::server::AdmissionController* admission = nullptr;
  double memory_pages = 0.0;
  dqep::ExecOptions exec_options;
};

struct QueryOutcome {
  bool ok = false;
  int64_t rows = 0;
  int64_t evaluations = 0;
};

/// One query through every layer, in ServerSession::RunQuery's order.
QueryOutcome Replay(const Engine& engine, const std::string& sql,
                    Recorder* recorder) {
  QueryOutcome outcome;
  dqep::PaperWorkload& database = *engine.database;
  const dqep::CostModel& model = database.model();
  const Clock::time_point wall_start = Clock::now();
  const int32_t root = recorder->Begin(kQuery, -1);

  dqep::CachedPlanRequest request;
  request.catalog = &database.catalog();
  request.model = &model;
  request.cache = engine.cache;
  request.memory_pages = engine.memory_pages;
  int32_t span = recorder->Begin(kPlan, root);
  auto planned = dqep::PlanQueryWithCache(sql, request);
  recorder->End(span);
  if (!planned.ok()) {
    return outcome;
  }
  // Normalize runs first; parse and optimize run back to back after the
  // lookup on a miss.  Offsets are approximate, durations exact.
  int64_t cursor = recorder->start_ns(span);
  recorder->AddChild(kNormalize, span, planned->normalize_seconds, &cursor);
  recorder->AddChild(kParse, span, planned->parse_seconds, &cursor);
  recorder->AddChild(kOptimize, span, planned->optimize_seconds, &cursor);
  const std::string cache_status =
      planned->cache_used ? (planned->cache_hit ? "hit" : "miss") : "off";

  dqep::StartupOptions startup_options;
  if (!planned->plan_params.empty()) {
    startup_options.plan_params = &planned->plan_params;
  }
  span = recorder->Begin(kResolve, root);
  auto startup = dqep::ResolveDynamicPlan(planned->root, model, planned->bound,
                                          startup_options);
  recorder->End(span);
  if (!startup.ok()) {
    return outcome;
  }
  outcome.evaluations = startup->cost_evaluations;

  span = recorder->Begin(kAdmit, root);
  dqep::server::AdmitResult admit = engine.admission->Admit(
      planned->fingerprint,
      static_cast<int64_t>(std::llround(engine.memory_pages)),
      startup->execution_cost);
  recorder->End(span);
  if (admit.outcome != dqep::server::AdmitOutcome::kAdmitted) {
    return outcome;
  }

  const Clock::time_point exec_start = Clock::now();
  span = recorder->Begin(kExecBuild, root);
  std::unique_ptr<dqep::ExecContext> ctx = dqep::MakeExecContext(
      planned->bound, database.config(), engine.exec_options);
  std::unique_ptr<dqep::Iterator> tuple_iter;
  std::unique_ptr<dqep::BatchIterator> batch_iter;
  if (engine.exec_options.mode == dqep::ExecMode::kBatch) {
    auto iter = dqep::BuildParallelBatchExecutor(
        startup->resolved, database.db(), planned->bound, *ctx);
    if (iter.ok()) {
      batch_iter = std::move(*iter);
    }
  } else {
    auto iter = dqep::BuildExecutor(startup->resolved, database.db(),
                                    planned->bound, ctx.get());
    if (iter.ok()) {
      tuple_iter = std::move(*iter);
    }
  }
  recorder->End(span);
  if (tuple_iter == nullptr && batch_iter == nullptr) {
    return outcome;
  }
  std::vector<dqep::Tuple> rows;
  span = recorder->Begin(kExecRun, root);
  const dqep::ExecNode* exec_root = nullptr;
  if (batch_iter != nullptr) {
    batch_iter->Open();
    dqep::TupleBatch batch;
    while (batch_iter->Next(&batch)) {
      for (int32_t i = 0; i < batch.num_rows(); ++i) {
        rows.push_back(batch.row(i));
      }
    }
    batch_iter->Close();
    exec_root = batch_iter.get();
  } else {
    tuple_iter->Open();
    dqep::Tuple tuple;
    while (tuple_iter->Next(&tuple)) {
      rows.push_back(std::move(tuple));
    }
    tuple_iter->Close();
    exec_root = tuple_iter.get();
  }
  recorder->End(span);
  const double exec_seconds =
      std::chrono::duration<double>(Clock::now() - exec_start).count();

  span = recorder->Begin(kAdmitRecord, root);
  engine.admission->RecordExecution(planned->fingerprint, exec_seconds);
  recorder->End(span);

  span = recorder->Begin(kAnnotate, root);
  dqep::PhysNodePtr annotated =
      dqep::ClonePlan(database.catalog(), startup->resolved);
  dqep::AnnotatePlan(*annotated, model,
                     dqep::ParamEnv(dqep::Interval::Point(engine.memory_pages)),
                     dqep::EstimationMode::kInterval);
  recorder->End(span);

  span = recorder->Begin(kRecord, root);
  dqep::obs::AnalyzeInput input;
  input.dynamic_root = planned->root.get();
  input.resolved_root = annotated.get();
  input.startup = &*startup;
  input.exec_root = exec_root;
  input.plan_cache = cache_status;
  dqep::obs::CollectAnalyzeRows(input);
  dqep::obs::RenderAnalyze(input, dqep::obs::AnalyzeFormat::kJson);
  recorder->End(span);

  span = recorder->Begin(kFormat, root);
  std::string out;
  out.reserve(rows.size() * 32 + 64);
  for (const dqep::Tuple& row : rows) {
    out += dqep::server::FormatRowLine(row.ToString());
  }
  out += dqep::server::FormatOkLine(
      static_cast<int64_t>(rows.size()),
      std::chrono::duration<double>(Clock::now() - wall_start).count(),
      cache_status);
  recorder->End(span);
  recorder->End(root);

  outcome.ok = true;
  outcome.rows = static_cast<int64_t>(rows.size());
  return outcome;
}

void WriteChromeTrace(const std::string& path,
                      const std::vector<std::unique_ptr<Recorder>>& recorders) {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\"traceEvents\":[");
  bool first = true;
  for (size_t worker = 0; worker < recorders.size(); ++worker) {
    for (const Span& span : recorders[worker]->spans()) {
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                   "\"args\":{\"query\":%lld,\"parent\":%d}}",
                   first ? "" : ",", kSpanInfo[span.name].name,
                   kLayerNames[kSpanInfo[span.name].layer],
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                   worker + 1, static_cast<long long>(span.query), span.parent);
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

}  // namespace

TracedResult RunTraced(Workload workload, uint64_t seed, int64_t warmup,
                       double seconds, int threads,
                       dqep::PaperWorkload* database,
                       const std::string& spans_path) {
  const dqep::server::ServerOptions defaults;
  dqep::DynamicPlanCache cache(defaults.plan_cache_capacity);
  dqep::server::AdmissionConfig admission_config;
  admission_config.pool_pages = defaults.pool_pages;
  admission_config.timeout_ms = defaults.admission_timeout_ms;
  admission_config.throttle_rate = defaults.throttle_rate;
  admission_config.throttle_burst = defaults.throttle_burst;
  admission_config.adaptive_throttle = defaults.adaptive_throttle;
  dqep::server::AdmissionController admission(admission_config);

  Engine engine;
  engine.database = database;
  engine.cache = defaults.plan_cache_capacity > 0 ? &cache : nullptr;
  engine.admission = &admission;
  engine.memory_pages = defaults.session_memory_pages;
  // The session's rule (more than one thread, or batch granularity, runs
  // the batch engine) over the engine's default ExecOptions.
  engine.exec_options.mode = engine.exec_options.threads > 1 ||
                                     engine.exec_options.mode ==
                                         dqep::ExecMode::kBatch
                                 ? dqep::ExecMode::kBatch
                                 : dqep::ExecMode::kTuple;

  QueryStream stream(workload, seed, database->model());
  const Clock::time_point epoch = Clock::now();
  std::vector<std::unique_ptr<Recorder>> recorders;
  for (int t = 0; t < threads; ++t) {
    recorders.push_back(std::make_unique<Recorder>(epoch));
  }
  std::vector<std::vector<QueryOutcome>> outcomes(threads);
  std::atomic<int64_t> next_query{0};

  // Phase 1 warms the cache and buffer pool untraced; phase 2 traces.
  double traced_wall = 0.0;
  for (const bool traced : {false, true}) {
    std::atomic<int64_t> issued{0};
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        Recorder* recorder = recorders[static_cast<size_t>(t)].get();
        recorder->set_enabled(traced);
        for (;;) {
          if (traced ? Clock::now() >= deadline
                     : issued.fetch_add(1) >= warmup) {
            break;
          }
          const std::string sql = stream.Next().second;
          recorder->StartQuery(next_query.fetch_add(1));
          QueryOutcome outcome = Replay(engine, sql, recorder);
          if (traced) {
            outcomes[static_cast<size_t>(t)].push_back(outcome);
          }
        }
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
    traced_wall =
        std::chrono::duration<double>(Clock::now() - start).count();
  }

  // Per query: time per span name and self time per layer.  A worker
  // runs one query at a time, so each query's spans are contiguous.
  std::vector<double> by_name[kNumSpanNames];
  double self_total[kNumLayers] = {};
  double run_seconds = 0.0;
  TracedResult result;
  for (const auto& recorder : recorders) {
    const std::vector<Span>& spans = recorder->spans();
    size_t begin = 0;
    while (begin < spans.size()) {
      size_t end = begin + 1;
      while (end < spans.size() && spans[end].query == spans[begin].query) {
        ++end;
      }
      double name_seconds[kNumSpanNames] = {};
      std::vector<double> self(end - begin);
      for (size_t i = begin; i < end; ++i) {
        const double seconds_i =
            static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
        name_seconds[spans[i].name] += seconds_i;
        self[i - begin] += seconds_i;
        if (spans[i].parent >= 0) {
          self[static_cast<size_t>(spans[i].parent) - begin] -= seconds_i;
        }
      }
      for (size_t i = begin; i < end; ++i) {
        self_total[kSpanInfo[spans[i].name].layer] += self[i - begin];
      }
      for (int n = 0; n < kNumSpanNames; ++n) {
        by_name[n].push_back(name_seconds[n]);
      }
      // The plan span's own time: lookup, insert and binding.
      by_name[kPlan].back() -= name_seconds[kNormalize] +
                               name_seconds[kParse] + name_seconds[kOptimize];
      run_seconds += name_seconds[kExecRun];
      begin = end;
    }
  }
  int64_t rows = 0;
  int64_t evaluations = 0;
  for (const auto& worker_outcomes : outcomes) {
    for (const QueryOutcome& outcome : worker_outcomes) {
      ++result.queries;
      result.failed += outcome.ok ? 0 : 1;
      rows += outcome.rows;
      evaluations += outcome.evaluations;
    }
  }
  WriteChromeTrace(spans_path, recorders);

  const double queries = static_cast<double>(std::max<int64_t>(result.queries, 1));
  result.qps = static_cast<double>(result.queries) / traced_wall;
  auto median_us = [&](SpanName name) {
    return Quantile(by_name[name], 0.5) * 1e6;
  };
  result.metrics = {
      {"plan_cache.plan_us", median_us(kPlan), "us"},
      {"sql.normalize_us", median_us(kNormalize), "us"},
      {"sql.parse_us", median_us(kParse), "us"},
      {"optimizer.optimize_us", median_us(kOptimize), "us"},
      {"startup.resolve_us", median_us(kResolve), "us"},
      {"startup.evaluations_per_resolve",
       static_cast<double>(evaluations) / queries, "count"},
      {"exec.build_us", median_us(kExecBuild), "us"},
      {"exec.run_us", median_us(kExecRun), "us"},
      {"exec.rows_per_s",
       run_seconds > 0 ? static_cast<double>(rows) / run_seconds : 0.0, "1/s"},
      {"obs.annotate_us", median_us(kAnnotate), "us"},
      {"obs.record_us", median_us(kRecord), "us"},
      {"server.format_us", median_us(kFormat), "us"},
  };
  // Self time per query of every engine layer (the benchmark's own glue
  // between calls is left out).
  int heaviest = kPlanCache;
  for (int layer = kPlanCache; layer < kNumLayers; ++layer) {
    result.metrics.push_back({std::string("self.") + kLayerNames[layer] + "_us",
                              self_total[layer] / queries * 1e6, "us"});
    if (self_total[layer] > self_total[heaviest]) {
      heaviest = layer;
    }
  }
  result.heaviest_layer = kLayerNames[heaviest];
  return result;
}

}  // namespace perfbench
