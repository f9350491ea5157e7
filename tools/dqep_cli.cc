// dqep_cli — an interactive shell over the paper's experiment database.
//
// Flags:
//   --threads=N                intra-query worker threads (default 1; N > 1
//                              adds exchange operators, results identical
//                              to serial)
//   --memory-pages=N           execution memory budget in pages; the same
//                              number feeds the optimizer's memory grant and
//                              the per-query ExecContext, so joins and sorts
//                              spill to temp heaps rather than exceed it
//   --profile                  print per-operator counters after each query
//   --stats=text|json          print EXPLAIN ANALYZE after each query:
//                              per-operator compile-time cost interval vs.
//                              actual cost, est vs. actual rows, and per
//                              choose-plan decision the regret
//   --trace-out=FILE           record the session as Chrome-trace JSON
//                              (open in chrome://tracing or Perfetto):
//                              parse/optimize/resolve/execute spans, one
//                              span per choose-plan decision, per-operator
//                              spans, spill passes, exchange morsels
//   --query-log=FILE           append one JSON line per executed query:
//                              estimates vs. actuals per operator, the
//                              choose-plan decisions, memory/spill/buffer-
//                              pool readings ($DQEP_QUERY_LOG sets the
//                              default)
//   --cost-profile=FILE        load fitted cost-model multipliers
//                              (calibration.json) before optimizing
//   --calibrate=LOG            fit a profile from a query log, write it
//                              (--calibration-out, default
//                              calibration.json), and exit
//   --plan-cache=N|off         plan-cache capacity in entries (default
//                              128); "off" or 0 disables it.  Repeated
//                              query templates (same shape, different
//                              literals) then reuse one compiled dynamic
//                              plan and pay only start-up resolution
//   --reopt=on|off             mid-query re-optimization (default off):
//                              pipeline breakers compare actual
//                              cardinality against the plan's estimate
//                              interval; outside the slack, the finished
//                              intermediate becomes a synthetic leaf and
//                              the decision procedure re-runs for the
//                              remaining plan suffix
//   --reopt-slack=X            trigger slack (default 2: actual outside
//                              [lo/2, 2*hi] fires a re-optimization)
//   --connect=SOCK|PORT        client mode: speak the line protocol to a
//                              running dqep_server (unix socket path, or
//                              a bare port for TCP to localhost) instead
//                              of embedding the engine.  All other flags
//                              are ignored; session state lives serverside.
//                              Extra server-side commands: \top (live
//                              sessions + admission pool), \slow [n]
//                              (flight-recorder ring), \stats template
//                              <fp> (per-template latency/decision
//                              stats), \metrics json
//
// Reads one command per line from stdin:
//
//   SELECT ...                 parse, compile a dynamic plan, resolve with
//                              the current bindings, execute, print rows
//   \explain SELECT ...        show static plan, dynamic plan, and the
//                              resolution under the current bindings
//   \set <name> <int>          bind host variable :<name>
//   \unset <name>              remove a binding
//   \mem <pages>               set the memory grant AND enforce it as the
//                              execution budget (alias: \memory)
//   \threads <N>               set intra-query worker threads
//   \profile <on|off>          toggle per-operator counter output
//   \reopt <on|off> [slack]    toggle mid-query re-optimization
//   \bindings                  list current bindings
//   \tables                    list relations
//   \analyze                   build histograms and use them for estimates
//   \analyze SELECT ...        execute and print EXPLAIN ANALYZE (interval
//                              calibration + choose-plan regret)
//   \metrics                   dump the process-wide metrics registry
//   \metrics reset             zero counters, maxima, and histograms
//   \cache                     plan-cache status (hits/misses/size/...)
//   \cache clear               drop every cached plan
//   \quit
//
// Example session:
//   \set v 300
//   \explain SELECT * FROM R1 WHERE R1.s < :v
//   SELECT R1.s FROM R1 WHERE R1.s < :v ORDER BY R1.s

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include <cmath>

#include "exec/exec_context.h"
#include "exec/executor.h"
#include "obs/analyze.h"
#include "obs/calibrate.h"
#include "obs/metrics.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "physical/costing.h"
#include "runtime/plan_cache.h"
#include "runtime/query_pipeline.h"
#include "runtime/startup.h"
#include "server/protocol.h"
#include "sql/parser.h"
#include "storage/analyze.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace {

/// Synthesizes per-operator trace spans from the executed tree's
/// counters: each operator covers its inclusive seconds, children laid
/// out sequentially inside the parent (counter totals carry no real
/// timestamps, so nesting is reconstructed from inclusiveness).  Returns
/// the node's span duration in microseconds.
int64_t EmitOperatorSpans(obs::TraceSession* trace, const ExecNode& node,
                          int64_t start_us) {
  int64_t duration_us =
      std::llround(obs::ActualSeconds(node) * 1e6);
  trace->AddSpan(node.op_name(), "operator", start_us, duration_us,
                 /*track=*/0,
                 {{"tuples", std::to_string(node.counters().tuples)},
                  {"next_calls", std::to_string(node.counters().next_calls)}});
  int64_t child_start = start_us;
  for (const ExecNode* child : node.child_nodes()) {
    child_start += EmitOperatorSpans(trace, *child, child_start);
  }
  return duration_us;
}

class Shell {
 public:
  Shell(std::unique_ptr<PaperWorkload> workload, int32_t threads,
        bool profile, double memory_pages, std::string trace_path,
        bool stats_every_query, obs::AnalyzeFormat stats_format,
        const CostProfile& cost_profile,
        bool cost_profile_loaded, const std::string& query_log_path,
        size_t plan_cache_capacity, bool reopt_on, double reopt_slack)
      : workload_(std::move(workload)),
        threads_(threads),
        profile_(profile),
        trace_path_(std::move(trace_path)),
        stats_every_query_(stats_every_query),
        stats_format_(stats_format),
        reopt_on_(reopt_on),
        reopt_slack_(reopt_slack) {
    if (memory_pages > 0) {
      memory_pages_ = memory_pages;
      enforce_memory_ = true;
    }
    if (!trace_path_.empty()) {
      trace_ = std::make_unique<obs::TraceSession>();
    }
    // The session's config: the workload's constants with the calibration
    // profile (if any) applied.  Every estimator in the shell — the base
    // model, the histogram-backed model, memory budgeting — derives from
    // this one config so estimates and reports agree.
    config_ = workload_->config();
    cost_profile.ApplyTo(&config_);
    base_model_ = std::make_unique<CostModel>(&workload_->catalog(), config_);
    // The process-wide plan cache.  Loading a calibration profile changes
    // what the optimizer would pick, so it bumps the cost-profile epoch —
    // a no-op for this fresh process, but the same invalidation a
    // long-lived server would need on a live profile swap.
    DynamicPlanCache::Instance().set_capacity(plan_cache_capacity);
    if (cost_profile_loaded) {
      DynamicPlanCache::Instance().BumpProfileEpoch();
    }
    plan_cache_ =
        plan_cache_capacity > 0 ? &DynamicPlanCache::Instance() : nullptr;
    if (!query_log_path.empty()) {
      std::string error;
      if (query_log_.Open(query_log_path, &error)) {
        std::printf("query log: appending to %s\n", query_log_path.c_str());
      } else {
        std::fprintf(stderr, "query log: %s\n", error.c_str());
      }
    }
  }

  int Run() {
    std::printf(
        "dqep shell — paper experiment database loaded (R1..R10), "
        "batch engine, %d thread%s.\n"
        "Type SELECT ..., \\explain SELECT ..., \\analyze SELECT ..., "
        "\\set <var> <int>, \\threads <N>, "
        "\\profile <on|off>, \\metrics, \\tables, \\quit.\n",
        threads_, threads_ == 1 ? "" : "s");
    std::string line;
    while (std::printf("dqep> "), std::fflush(stdout),
           std::getline(std::cin, line)) {
      if (line.empty()) {
        continue;
      }
      if (line[0] == '\\') {
        if (!Command(line)) {
          break;
        }
      } else {
        Query(line, stats_every_query_);
      }
    }
    if (trace_ != nullptr) {
      if (trace_->WriteChromeJson(trace_path_)) {
        std::printf("trace: %lld events written to %s (load in "
                    "chrome://tracing or Perfetto)\n",
                    static_cast<long long>(trace_->event_count()),
                    trace_path_.c_str());
      } else {
        std::fprintf(stderr, "trace: cannot write %s\n", trace_path_.c_str());
      }
    }
    return 0;
  }

 private:
  const CostModel& model() const {
    return use_stats_ ? *stats_model_ : *base_model_;
  }

  bool Command(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command == "\\quit" || command == "\\q") {
      return false;
    }
    if (command == "\\set") {
      std::string name;
      int64_t value = 0;
      if (in >> name >> value) {
        bindings_[name] = value;
        std::printf(":%s = %lld\n", name.c_str(),
                    static_cast<long long>(value));
      } else {
        std::printf("usage: \\set <name> <int>\n");
      }
      return true;
    }
    if (command == "\\unset") {
      std::string name;
      in >> name;
      bindings_.erase(name);
      return true;
    }
    if (command == "\\memory" || command == "\\mem") {
      double pages = 0;
      if (in >> pages && pages >= 2) {
        memory_pages_ = pages;
        enforce_memory_ = true;
        std::printf("memory grant = %.0f pages (enforced: joins and sorts "
                    "spill rather than exceed it)\n",
                    pages);
      } else {
        std::printf("usage: \\mem <pages>\n");
      }
      return true;
    }
    if (command == "\\threads") {
      int32_t threads = 0;
      if (in >> threads && threads >= 1 && threads <= 256) {
        threads_ = threads;
        std::printf("threads = %d%s\n", threads_,
                    threads_ > 1 ? " (exchange operators)" : "");
      } else {
        std::printf("usage: \\threads <N>   (1 <= N <= 256)\n");
      }
      return true;
    }
    if (command == "\\reopt") {
      std::string setting;
      in >> setting;
      if (setting == "on" || setting == "off") {
        reopt_on_ = setting == "on";
        double slack = 0.0;
        if (in >> slack && slack >= 1.0) {
          reopt_slack_ = slack;
        }
        std::printf("reopt = %s (slack %.2f)\n", setting.c_str(),
                    reopt_slack_);
      } else if (setting.empty()) {
        std::printf("reopt = %s (slack %.2f)\n", reopt_on_ ? "on" : "off",
                    reopt_slack_);
      } else {
        std::printf("usage: \\reopt <on|off> [slack >= 1]\n");
      }
      return true;
    }
    if (command == "\\profile") {
      std::string setting;
      in >> setting;
      if (setting == "on" || setting == "off") {
        profile_ = setting == "on";
        std::printf("profile = %s\n", setting.c_str());
      } else {
        std::printf("usage: \\profile <on|off>\n");
      }
      return true;
    }
    if (command == "\\bindings") {
      for (const auto& [name, value] : bindings_) {
        std::printf(":%s = %lld\n", name.c_str(),
                    static_cast<long long>(value));
      }
      std::printf("memory = %.0f pages\n", memory_pages_);
      return true;
    }
    if (command == "\\tables") {
      const Catalog& catalog = workload_->catalog();
      for (RelationId id = 0; id < catalog.num_relations(); ++id) {
        const RelationInfo& rel = catalog.relation(id);
        std::printf("%s(%lld rows):", rel.name().c_str(),
                    static_cast<long long>(rel.cardinality()));
        for (int32_t c = 0; c < rel.num_columns(); ++c) {
          std::printf(" %s%s", rel.column(c).name.c_str(),
                      rel.HasIndexOn(c) ? "*" : "");
        }
        std::printf("   (* = B-tree index)\n");
      }
      return true;
    }
    if (command == "\\analyze") {
      std::string rest;
      std::getline(in, rest);
      size_t start = rest.find_first_not_of(" \t");
      if (start != std::string::npos) {
        // \analyze SELECT ... — EXPLAIN ANALYZE for one query.
        Query(rest.substr(start), /*analyze=*/true);
        return true;
      }
      stats_ = AnalyzeDatabase(workload_->db());
      stats_model_ = std::make_unique<CostModel>(&workload_->catalog(),
                                                 config_, &stats_);
      use_stats_ = true;
      if (plan_cache_ != nullptr) {
        // Plans compiled against the old estimates are stale the moment
        // the estimator changes.
        plan_cache_->SetStatsEpoch(stats_.epoch());
      }
      std::printf("histograms built for %zu columns; estimator now uses "
                  "them\n",
                  stats_.size());
      return true;
    }
    if (command == "\\explain") {
      std::string rest;
      std::getline(in, rest);
      Explain(rest);
      return true;
    }
    if (command == "\\metrics") {
      std::string arg;
      in >> arg;
      if (arg == "reset") {
        obs::MetricsRegistry::Instance().ResetAll();
        std::printf("metrics reset (counters, maxima, and histograms "
                    "zeroed; gauges keep their current state)\n");
      } else if (arg == "json") {
        std::fputs(obs::MetricsRegistry::Instance().RenderJson().c_str(),
                   stdout);
      } else if (arg.empty()) {
        std::fputs(obs::MetricsRegistry::Instance().RenderText().c_str(),
                   stdout);
      } else {
        std::printf("usage: \\metrics [reset|json]\n");
      }
      return true;
    }
    if (command == "\\cache") {
      std::string arg;
      in >> arg;
      if (plan_cache_ == nullptr) {
        std::printf("plan cache: off (restart with --plan-cache=N to "
                    "enable)\n");
        return true;
      }
      if (arg == "clear") {
        plan_cache_->Clear();
        std::printf("plan cache cleared\n");
        return true;
      }
      if (!arg.empty()) {
        std::printf("usage: \\cache [clear]\n");
        return true;
      }
      std::printf("%s\n", plan_cache_->stats().ToString().c_str());
      return true;
    }
    std::printf("unknown command %s\n", command.c_str());
    return true;
  }

  /// Prints the context's memory/spill summary after a governed run.
  void PrintMemorySummary(const ExecContext& ctx) {
    std::printf(
        "memory: peak %lld bytes of %lld-byte budget (%lld pages); "
        "%lld temp files, %lld tuples (%lld bytes) spilled, "
        "%lld forced overflows\n",
        static_cast<long long>(ctx.tracker().peak_bytes()),
        static_cast<long long>(ctx.tracker().budget_bytes()),
        static_cast<long long>(ctx.memory_pages()),
        static_cast<long long>(ctx.temp_files_created()),
        static_cast<long long>(ctx.tuples_spilled()),
        static_cast<long long>(ctx.bytes_spilled()),
        static_cast<long long>(ctx.overflows()));
  }

  /// Post-execution reporting: per-operator trace spans, the profile,
  /// (when requested) the EXPLAIN ANALYZE report joining the plan's
  /// estimate intervals with the measured tree, and (when a query log is
  /// open) one persisted record of the run.  `pool_hits_before` /
  /// `pool_misses_before` are the buffer-pool counters before execution.
  void Report(QueryRun& run, int64_t exec_start_us, bool analyze,
              int64_t pool_hits_before, int64_t pool_misses_before) {
    if (trace_ != nullptr) {
      EmitOperatorSpans(trace_.get(), *run.exec_tree, exec_start_us);
    }
    if (profile_) {
      std::printf("%s", RenderProfile(*run.exec_tree).c_str());
    }
    if (!analyze && !query_log_.is_open()) {
      return;
    }
    obs::AnalyzeInput input = obs::AnalyzeInputFor(run);
    const std::vector<obs::AnalyzeRow> rows = obs::CollectAnalyzeRows(input);
    if (analyze) {
      std::printf("%s",
                  obs::RenderAnalyze(rows, input, stats_format_).c_str());
    }
    if (query_log_.is_open()) {
      obs::QueryRecord record =
          obs::BuildQueryRecord(run, input, rows, /*with_terms=*/true);
      record.pool_hits = PoolCounter("storage.bufferpool.hits") -
                         pool_hits_before;
      record.pool_misses = PoolCounter("storage.bufferpool.misses") -
                           pool_misses_before;
      if (!query_log_.Append(record)) {
        std::fprintf(stderr, "query log: append to %s failed\n",
                     query_log_.path().c_str());
      }
    }
  }

  /// One process-wide buffer-pool counter from the metrics registry.
  static int64_t PoolCounter(const char* name) {
    auto snap = obs::MetricsRegistry::Instance().Snapshot();
    auto it = snap.find(name);
    return it == snap.end() ? 0 : it->second.value;
  }

  /// \explain: static plan vs. dynamic plan vs. start-up resolution.
  /// Deliberately bypasses the plan cache — the point of \explain is to
  /// watch the optimizer work, and the static-plan compile needs the
  /// parsed query anyway.
  void Explain(const std::string& sql) {
    Result<ParsedQuery> parsed = ParseQuery(sql, workload_->catalog());
    if (!parsed.ok()) {
      std::printf("error: %s\n", parsed.status().ToString().c_str());
      return;
    }
    ParamEnv compile_env(Interval::Point(memory_pages_));
    Optimizer dynamic_opt(&model(), OptimizerOptions::Dynamic());
    Result<OptimizedPlan> plan =
        dynamic_opt.Optimize(parsed->query, compile_env);
    if (!plan.ok()) {
      std::printf("optimizer error: %s\n", plan.status().ToString().c_str());
      return;
    }
    Optimizer static_opt(&model(), OptimizerOptions::Static());
    Result<OptimizedPlan> static_plan =
        static_opt.Optimize(parsed->query, compile_env);
    if (static_plan.ok()) {
      std::printf("--- static plan (cost %s) ---\n%s",
                  static_plan->cost.ToString().c_str(),
                  static_plan->root->ToString().c_str());
    }
    std::printf("--- dynamic plan (cost %s, %lld nodes, %lld choose) ---\n%s",
                plan->cost.ToString().c_str(),
                static_cast<long long>(plan->root->CountNodes()),
                static_cast<long long>(plan->root->CountChooseNodes()),
                plan->root->ToString().c_str());
    ParamEnv bound(Interval::Point(memory_pages_));
    for (const auto& [name, id] : parsed->params) {
      auto it = bindings_.find(name);
      if (it == bindings_.end()) {
        std::printf("host variable :%s is unbound; use \\set %s <int>\n",
                    name.c_str(), name.c_str());
        return;
      }
      bound.Bind(id, Value(it->second));
    }
    StartupOptions startup_options;
    startup_options.trace = trace_.get();
    Result<StartupResult> startup =
        ResolveDynamicPlan(plan->root, model(), bound, startup_options);
    if (!startup.ok()) {
      std::printf("start-up error: %s\n",
                  startup.status().ToString().c_str());
      return;
    }
    std::printf("--- chosen at start-up (predicted %.4f s, %lld "
                "decisions) ---\n%s",
                startup->execution_cost,
                static_cast<long long>(startup->decisions),
                startup->resolved->ToString().c_str());
  }

  void Query(const std::string& sql, bool analyze) {
    // Plan through the cache (every execution — hit or miss — runs the
    // start-up decision procedure afresh), then execute.
    CachedPlanRequest request;
    request.catalog = &workload_->catalog();
    request.model = &model();
    request.cache = plan_cache_;
    request.memory_pages = memory_pages_;
    request.host_bindings = &bindings_;
    request.trace = trace_.get();
    Result<PreparedQuery> prepared =
        PrepareQuery(sql, request, workload_->db());
    if (!prepared.ok()) {
      const std::string& message = prepared.status().message();
      if (message.find("is unbound") != std::string::npos) {
        std::printf("%s\n", message.c_str());
      } else {
        std::printf("error: %s\n", prepared.status().ToString().c_str());
      }
      return;
    }
    // Without a pinned budget the query still runs under a context, an
    // unbounded one: usage is tracked, nothing spills.
    ExecOptions options;
    options.threads = threads_;
    std::unique_ptr<ExecContext> ctx =
        enforce_memory_
            ? MakeExecContext(prepared->planned.bound, config_, options)
            : std::make_unique<ExecContext>(options);
    ctx->set_trace(trace_.get());
    ReoptOptions reopt;
    reopt.config.enabled = true;
    reopt.config.slack = reopt_slack_;
    reopt.optimizer = OptimizerOptions::Static();
    reopt.startup.trace = trace_.get();
    const bool want_log = query_log_.is_open();
    const int64_t pool_hits_before =
        want_log ? PoolCounter("storage.bufferpool.hits") : 0;
    const int64_t pool_misses_before =
        want_log ? PoolCounter("storage.bufferpool.misses") : 0;
    const int64_t exec_start_us = trace_ == nullptr ? 0 : trace_->NowMicros();
    Result<QueryRun> run = ExecuteQuery(std::move(*prepared), *ctx,
                                        reopt_on_ ? &reopt : nullptr);
    if (!run.ok()) {
      std::printf("execution error: %s\n", run.status().ToString().c_str());
      return;
    }
    if (trace_ != nullptr) {
      std::vector<std::pair<std::string, std::string>> args = {
          {"rows", std::to_string(run->rows.size())},
          {"threads", std::to_string(threads_)}};
      if (run->reoptimized) {
        args.emplace_back("reopt_triggers",
                          std::to_string(run->triggers_fired));
      }
      trace_->EndSpan("execute", "query", exec_start_us, std::move(args));
    }
    if (run->triggers_fired > 0) {
      std::printf("reopt: %lld checkpoint(s) evaluated, %lld trigger(s), "
                  "%.4f s re-optimizing\n",
                  static_cast<long long>(run->checkpoints_evaluated),
                  static_cast<long long>(run->triggers_fired),
                  run->reopt_seconds);
    }
    Report(*run, exec_start_us, analyze, pool_hits_before,
           pool_misses_before);
    if (enforce_memory_) {
      PrintMemorySummary(*ctx);
    }
    const std::vector<Tuple>& rows = run->rows;
    size_t shown = 0;
    for (const Tuple& row : rows) {
      if (shown++ >= 10) {
        std::printf("... (%zu rows total)\n", rows.size());
        return;
      }
      std::printf("%s\n", row.ToString().c_str());
    }
    std::printf("(%zu rows)\n", rows.size());
  }

  std::unique_ptr<PaperWorkload> workload_;
  /// Workload constants with the --cost-profile multipliers applied.
  SystemConfig config_;
  std::unique_ptr<CostModel> base_model_;
  int32_t threads_ = 1;
  bool profile_;
  std::map<std::string, int64_t> bindings_;
  double memory_pages_ = 64.0;
  /// Persistent query log (--query-log / DQEP_QUERY_LOG); closed = off.
  obs::QueryLogWriter query_log_;
  /// The process-wide cache, or null when --plan-cache=off.
  DynamicPlanCache* plan_cache_ = nullptr;
  /// Set once the user pins a budget (flag or \mem): execution then runs
  /// under an ExecContext so the grant is enforced, not just priced.
  bool enforce_memory_ = false;
  StatisticsCatalog stats_;
  std::unique_ptr<CostModel> stats_model_;
  bool use_stats_ = false;
  /// Session trace, created iff --trace-out was given; written on exit.
  std::unique_ptr<obs::TraceSession> trace_;
  std::string trace_path_;
  /// --stats: EXPLAIN ANALYZE after every query; \analyze SELECT does it
  /// for one query in stats_format_.
  bool stats_every_query_ = false;
  obs::AnalyzeFormat stats_format_ = obs::AnalyzeFormat::kText;
  /// Mid-query re-optimization (--reopt / \reopt): runtime cardinality
  /// checkpoints at pipeline breakers re-enter the decision procedure.
  bool reopt_on_ = false;
  double reopt_slack_ = 2.0;
};

/// --connect client mode: forward each stdin line to a dqep_server and
/// print the response — data lines verbatim, then a one-line status.
/// `target` is a unix-socket path, or a bare port number for TCP to
/// localhost.  The server holds all session state (\set, \mem, ...);
/// this side is a dumb pipe, usable interactively or scripted.
int RunClient(const std::string& target) {
  std::string error;
  const bool is_port =
      !target.empty() &&
      target.find_first_not_of("0123456789") == std::string::npos;
  const int fd = is_port
                     ? server::ConnectTcp(std::atoi(target.c_str()), &error)
                     : server::ConnectUnix(target, &error);
  if (fd < 0) {
    std::fprintf(stderr, "dqep_cli: %s\n", error.c_str());
    return 1;
  }
  server::LineChannel channel(fd);
  const bool interactive = isatty(fileno(stdin)) != 0;
  if (interactive) {
    std::printf("connected to %s — type SQL, \\top, \\slow, "
                "\\stats template <fp>, \\metrics [json], or \\quit\n",
                target.c_str());
  }
  std::string line;
  while (interactive && (std::printf("dqep> "), std::fflush(stdout), true),
         std::getline(std::cin, line)) {
    if (line.empty()) {
      continue;
    }
    if (!channel.WriteAll(line + "\n")) {
      std::fprintf(stderr, "dqep_cli: connection lost\n");
      return 1;
    }
    server::QueryResponse response;
    if (!channel.ReadResponse(&response)) {
      std::fprintf(stderr, "dqep_cli: connection closed by server\n");
      return 1;
    }
    for (const std::string& row : response.rows) {
      std::printf("%s\n", row.c_str());
    }
    if (response.ok) {
      std::printf("(%lld rows, %.4f s, cache %s)\n",
                  static_cast<long long>(response.row_count),
                  response.seconds,
                  response.cache.empty() ? "off" : response.cache.c_str());
    } else {
      std::printf("error: %s\n", response.error.c_str());
    }
    if (line == "\\quit" || line == "\\q") {
      break;
    }
  }
  return 0;
}

}  // namespace
}  // namespace dqep

int main(int argc, char** argv) {
  int threads = 1;
  bool profile = false;
  double memory_pages = 0;
  std::string trace_path;
  bool stats_every_query = false;
  dqep::obs::AnalyzeFormat stats_format = dqep::obs::AnalyzeFormat::kText;
  std::string query_log_path;
  bool query_log_flag_seen = false;
  std::string cost_profile_path;
  std::string calibrate_log;
  std::string calibration_out = "calibration.json";
  size_t plan_cache_capacity = dqep::DynamicPlanCache::kDefaultCapacity;
  bool reopt_on = false;
  double reopt_slack = 2.0;
  std::string connect_target;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--connect=", 10) == 0) {
      connect_target = arg + 10;
      if (connect_target.empty()) {
        std::fprintf(stderr,
                     "--connect needs a unix socket path or TCP port\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = std::atoi(arg + 10);
      if (threads < 1 || threads > 256) {
        std::fprintf(stderr, "--threads must be in [1, 256]\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--memory-pages=", 15) == 0) {
      memory_pages = std::atof(arg + 15);
      if (memory_pages < 2) {
        std::fprintf(stderr, "--memory-pages must be >= 2\n");
        return 1;
      }
    } else if (std::strcmp(arg, "--profile") == 0) {
      profile = true;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_path = arg + 12;
      if (trace_path.empty()) {
        std::fprintf(stderr, "--trace-out needs a file path\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--query-log=", 12) == 0) {
      query_log_path = arg + 12;
      query_log_flag_seen = true;
      if (query_log_path.empty()) {
        std::fprintf(stderr, "--query-log needs a file path\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--cost-profile=", 15) == 0) {
      cost_profile_path = arg + 15;
      if (cost_profile_path.empty()) {
        std::fprintf(stderr, "--cost-profile needs a file path\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--calibrate=", 12) == 0) {
      calibrate_log = arg + 12;
      if (calibrate_log.empty()) {
        std::fprintf(stderr, "--calibrate needs a query-log path\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--calibration-out=", 18) == 0) {
      calibration_out = arg + 18;
      if (calibration_out.empty()) {
        std::fprintf(stderr, "--calibration-out needs a file path\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--plan-cache=", 13) == 0) {
      const char* value = arg + 13;
      if (std::strcmp(value, "off") == 0) {
        plan_cache_capacity = 0;
      } else {
        char* end = nullptr;
        long capacity = std::strtol(value, &end, 10);
        if (end == value || *end != '\0' || capacity < 0) {
          std::fprintf(stderr,
                       "--plan-cache must be a non-negative entry count "
                       "or \"off\"\n");
          return 1;
        }
        plan_cache_capacity = static_cast<size_t>(capacity);
      }
    } else if (std::strncmp(arg, "--reopt=", 8) == 0) {
      if (std::strcmp(arg + 8, "on") == 0) {
        reopt_on = true;
      } else if (std::strcmp(arg + 8, "off") == 0) {
        reopt_on = false;
      } else {
        std::fprintf(stderr, "--reopt must be on or off\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--reopt-slack=", 14) == 0) {
      reopt_slack = std::atof(arg + 14);
      if (reopt_slack < 1.0) {
        std::fprintf(stderr, "--reopt-slack must be >= 1\n");
        return 1;
      }
    } else if (std::strncmp(arg, "--stats=", 8) == 0) {
      stats_every_query = true;
      if (std::strcmp(arg + 8, "text") == 0) {
        stats_format = dqep::obs::AnalyzeFormat::kText;
      } else if (std::strcmp(arg + 8, "json") == 0) {
        stats_format = dqep::obs::AnalyzeFormat::kJson;
      } else {
        std::fprintf(stderr, "--stats must be text or json\n");
        return 1;
      }
    } else if (std::strcmp(arg, "--help") == 0) {
      std::printf(
          "usage: dqep_cli [flags]\n"
          "  --threads=N              intra-query worker threads "
          "(default 1; every query runs on the batch engine)\n"
          "  --memory-pages=N         enforced memory budget in pages "
          "(joins/sorts spill rather than exceed it)\n"
          "  --profile                per-operator counters after each "
          "query\n"
          "  --stats=text|json        EXPLAIN ANALYZE after each query: "
          "cost interval vs. actual, rows, choose-plan regret\n"
          "  --trace-out=FILE         write Chrome-trace JSON on exit "
          "(chrome://tracing / Perfetto)\n"
          "  --query-log=FILE         append one JSON line per executed "
          "query (estimates, actuals, decisions, spill/memory);\n"
          "                           defaults to $DQEP_QUERY_LOG when set\n"
          "  --cost-profile=FILE      load calibration multipliers "
          "(calibration.json) into the cost model\n"
          "  --calibrate=LOG          fit a cost profile from a query log "
          "and exit (no shell)\n"
          "  --calibration-out=FILE   where --calibrate writes the profile "
          "(default calibration.json)\n"
          "  --plan-cache=N|off       plan-cache capacity in entries "
          "(default 128; repeated query templates reuse one compiled\n"
          "                           dynamic plan); \\cache in the shell "
          "shows hits/misses\n"
          "  --connect=SOCK|PORT      client mode: talk to a running "
          "dqep_server (unix socket path or localhost TCP port);\n"
          "                           server-side \\top, \\slow [n], "
          "\\stats template <fp>, \\metrics [json] work over the wire\n"
          "  --reopt=on|off           mid-query re-optimization: runtime "
          "cardinality checkpoints at pipeline breakers\n"
          "                           re-enter the decision procedure for "
          "the remaining plan (default off; \\reopt toggles)\n"
          "  --reopt-slack=X          cardinality slack before a "
          "checkpoint triggers (default 2: actual outside [lo/2, 2*hi])\n"
          "  --help                   this message\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", arg);
      return 1;
    }
  }
  if (!connect_target.empty()) {
    // Client mode: the server owns the engine; every other flag is a
    // server-side concern.
    return dqep::RunClient(connect_target);
  }
  if (!query_log_flag_seen) {
    // Environment default: set DQEP_QUERY_LOG once and every session
    // feeds the same feedback log.
    const char* env = std::getenv("DQEP_QUERY_LOG");
    if (env != nullptr && env[0] != '\0') {
      query_log_path = env;
    }
  }
  dqep::CostProfile cost_profile;
  if (!cost_profile_path.empty()) {
    dqep::Result<dqep::CostProfile> loaded =
        dqep::obs::LoadCostProfile(cost_profile_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    cost_profile = *loaded;
  }
  if (!calibrate_log.empty()) {
    // Calibration mode: fit a profile from the log and exit.  Uses the
    // same config the shell estimates under (workload constants plus any
    // --cost-profile), so iterating calibration against a recalibrated
    // log is well defined.
    int64_t skipped = 0;
    dqep::Result<std::vector<dqep::obs::QueryRecord>> records =
        dqep::obs::LoadQueryLog(calibrate_log, &skipped);
    if (!records.ok()) {
      std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
      return 1;
    }
    if (skipped > 0) {
      std::fprintf(stderr, "query log: skipped %lld malformed line(s)\n",
                   static_cast<long long>(skipped));
    }
    auto config_source =
        dqep::PaperWorkload::Create(/*seed=*/42, /*populate=*/false);
    if (!config_source.ok()) {
      std::fprintf(stderr, "failed to build catalog: %s\n",
                   config_source.status().ToString().c_str());
      return 1;
    }
    dqep::SystemConfig base_config = (*config_source)->config();
    cost_profile.ApplyTo(&base_config);
    dqep::Result<dqep::obs::CalibrationReport> report =
        dqep::obs::Calibrate(*records, base_config);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    std::fputs(dqep::obs::RenderCalibrationReport(*report).c_str(), stdout);
    std::string json = dqep::obs::RenderCostProfileJson(*report);
    std::FILE* out = std::fopen(calibration_out.c_str(), "w");
    if (out == nullptr ||
        std::fwrite(json.data(), 1, json.size(), out) != json.size() ||
        std::fclose(out) != 0) {
      std::fprintf(stderr, "cannot write %s\n", calibration_out.c_str());
      return 1;
    }
    std::printf("profile written to %s (load with --cost-profile=%s)\n",
                calibration_out.c_str(), calibration_out.c_str());
    return 0;
  }
  auto workload = dqep::PaperWorkload::Create(/*seed=*/42, /*populate=*/true);
  if (!workload.ok()) {
    std::fprintf(stderr, "failed to build database: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  dqep::Shell shell(std::move(*workload), threads, profile,
                    memory_pages, std::move(trace_path), stats_every_query,
                    stats_format, cost_profile, !cost_profile_path.empty(),
                    query_log_path, plan_cache_capacity, reopt_on,
                    reopt_slack);
  return shell.Run();
}
