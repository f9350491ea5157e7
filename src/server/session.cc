#include "server/session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "optimizer/optimizer.h"
#include "runtime/startup.h"
#include "sql/parser.h"
#include "storage/analyze.h"

namespace dqep {
namespace server {

namespace {

/// Splits multi-line command output into one protocol data line each.
void WriteTextAsRows(const std::string& text, std::string* out) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    out->append(FormatRowLine(text.substr(pos, end - pos)));
    pos = end + 1;
  }
}

/// The rest of `in` after leading whitespace ("" when nothing is left).
std::string RestOf(std::istream& in) {
  std::string rest;
  std::getline(in >> std::ws, rest);
  return rest;
}

/// Synthesizes per-operator trace spans on `track` from the executed
/// tree's counters: each operator covers its inclusive seconds, children
/// laid out sequentially inside the parent (counter totals carry no real
/// timestamps, so nesting is reconstructed from inclusiveness).  Returns
/// the node's span duration in microseconds.
int64_t EmitOperatorSpans(obs::TraceSession* trace, const ExecNode& node,
                          int64_t start_us, int64_t track) {
  const int64_t duration_us = std::llround(obs::ActualSeconds(node) * 1e6);
  trace->AddSpan(node.op_name(), "operator", start_us, duration_us, track,
                 {{"tuples", std::to_string(node.counters().tuples)},
                  {"next_calls", std::to_string(node.counters().next_calls)}});
  int64_t child_start = start_us;
  for (const ExecNode* child : node.child_nodes()) {
    child_start += EmitOperatorSpans(trace, *child, child_start, track);
  }
  return duration_us;
}

/// The `\profile` memory line: the context's peak against its budget and
/// what it spilled.
std::string MemorySummary(const ExecContext& ctx) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "memory: peak %lld bytes of %lld-byte budget (%lld pages); "
                "%lld temp files, %lld tuples (%lld bytes) spilled, "
                "%lld forced overflows",
                static_cast<long long>(ctx.tracker().peak_bytes()),
                static_cast<long long>(ctx.tracker().budget_bytes()),
                static_cast<long long>(ctx.memory_pages()),
                static_cast<long long>(ctx.temp_files_created()),
                static_cast<long long>(ctx.tuples_spilled()),
                static_cast<long long>(ctx.bytes_spilled()),
                static_cast<long long>(ctx.overflows()));
  return buf;
}

}  // namespace

void SessionInfo::BeginPhase(const char* phase) {
  std::lock_guard<std::mutex> lock(mutex_);
  phase_ = phase;
  phase_start_ = std::chrono::steady_clock::now();
}

void SessionInfo::BeginQuery(const std::string& sql) {
  std::lock_guard<std::mutex> lock(mutex_);
  query_ = sql;
  phase_ = "plan";
  phase_start_ = std::chrono::steady_clock::now();
  rows_.store(0, std::memory_order_relaxed);
  peak_memory_bytes_.store(0, std::memory_order_relaxed);
  grant_wait_us_.store(0, std::memory_order_relaxed);
}

void SessionInfo::EndQuery() {
  std::lock_guard<std::mutex> lock(mutex_);
  query_.clear();
  phase_ = "idle";
  phase_start_ = std::chrono::steady_clock::now();
  queries_.fetch_add(1, std::memory_order_relaxed);
}

SessionInfo::Snapshot SessionInfo::Snap() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.session_id = session_id_;
  snap.query = query_;
  snap.phase = phase_;
  snap.phase_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    phase_start_)
          .count();
  snap.rows = rows_.load(std::memory_order_relaxed);
  snap.peak_memory_bytes = peak_memory_bytes_.load(std::memory_order_relaxed);
  snap.grant_wait_us = grant_wait_us_.load(std::memory_order_relaxed);
  snap.queries = queries_.load(std::memory_order_relaxed);
  return snap;
}

SharedEngine::LiveContext::LiveContext(SharedEngine* engine,
                                       ExecContext* ctx)
    : engine_(engine), ctx_(ctx) {
  std::lock_guard<std::mutex> lock(engine_->mutex_);
  engine_->live_.insert(ctx_);
  // A context registered during the drain must still be cancelled — the
  // CancelAll sweep may already have run.
  if (engine_->draining.load(std::memory_order_relaxed)) {
    ctx_->RequestCancel();
  }
}

SharedEngine::LiveContext::~LiveContext() {
  std::lock_guard<std::mutex> lock(engine_->mutex_);
  engine_->live_.erase(ctx_);
}

void SharedEngine::CancelAll() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (ExecContext* ctx : live_) {
    ctx->RequestCancel();
  }
}

size_t SharedEngine::UseHistograms() {
  std::call_once(histograms_once_, [this] {
    stats_ = AnalyzeDatabase(workload->db());
    stats_model_ =
        std::make_unique<CostModel>(&workload->catalog(), *config, &stats_);
    model.store(stats_model_.get(), std::memory_order_release);
    if (plan_cache != nullptr) {
      plan_cache->SetStatsEpoch(stats_.epoch());
    }
  });
  return stats_.size();
}

void SharedEngine::RegisterSession(const SessionInfo* info) {
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.insert(info);
}

void SharedEngine::UnregisterSession(const SessionInfo* info) {
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.erase(info);
}

std::vector<SessionInfo::Snapshot> SharedEngine::SnapshotSessions() const {
  std::vector<SessionInfo::Snapshot> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(sessions_.size());
  for (const SessionInfo* info : sessions_) {
    out.push_back(info->Snap());
  }
  return out;
}

void SharedEngine::RecordQuery(
    std::shared_ptr<const obs::QueryRecord> record,
    const std::function<std::string()>& render_analyze) {
  const obs::QueryRecord& r = *record;
  // One lookup and one lock fold the record into every consumer.
  std::vector<obs::SloAlertEvent> alerts;
  std::string slow_reason =
      admission->templates().Touch(r.query_hash, [&](obs::TemplateFacts& t) {
        AdmissionController::FoldCost(&t, r.exec_seconds);
        if (drift != nullptr) {
          // Modeled seconds (the start-up resolution's execution-cost
          // estimate for the chosen plan) against measured execution
          // wall time — the ratio calibration is meant to pin at 1.
          drift->Fold(&t.drift, r.predicted_cost, r.exec_seconds);
        }
        if (slo != nullptr) {
          // End-to-end latency (queue wait included) is what the SLO
          // promises the client.
          slo->Fold(r.query_hash, &t, r.total_seconds, &alerts);
        }
        return flight != nullptr ? flight->Fold(&t.latency, r)
                                 : std::string();
      });
  admission->throttle().RecordCompletion(r.exec_seconds);
  if (slo != nullptr) {
    slo->Deliver(alerts);  // the alert hook runs outside every lock
  }
  if (flight != nullptr) {
    flight->Deposit(std::move(record), std::move(slow_reason),
                    render_analyze);
  }
}

ServerSession::ServerSession(SharedEngine* engine, int64_t session_id,
                             double default_memory_pages)
    : engine_(engine),
      session_id_(session_id),
      memory_pages_(default_memory_pages),
      reopt_enabled_(engine->reopt_default),
      reopt_slack_(engine->reopt_slack_default),
      queries_counter_(obs::MetricsRegistry::Instance().NewCounter(
          "server.session.queries")),
      latency_histogram_(obs::MetricsRegistry::Instance().NewHistogram(
          "server.query.latency_us")),
      info_(session_id) {
  if (engine_->trace != nullptr) {
    trace_track_ = engine_->trace->RegisterTrack(
        "session-" + std::to_string(session_id));
  }
  engine_->RegisterSession(&info_);
}

ServerSession::~ServerSession() { engine_->UnregisterSession(&info_); }

void ServerSession::Serve(LineChannel* channel) {
  std::string line;
  while (channel->ReadLine(&line)) {
    if (line.empty()) {
      channel->WriteAll(FormatOkLine(0, 0.0, "off"));
      continue;
    }
    if (line[0] == '\\') {
      if (!Command(line, channel)) {
        return;
      }
      continue;
    }
    RunQuery(line, channel);
  }
}

bool ServerSession::Command(const std::string& line, LineChannel* channel) {
  std::istringstream in(line);
  std::string command;
  in >> command;
  std::string out;
  if (command == "\\quit" || command == "\\q") {
    channel->WriteAll(FormatOkLine(0, 0.0, "off"));
    return false;
  }
  if (command == "\\ping") {
    out = FormatRowLine("pong");
    out += FormatOkLine(1, 0.0, "off");
    channel->WriteAll(out);
    return true;
  }
  if (command == "\\set") {
    std::string name;
    int64_t value = 0;
    if (in >> name >> value) {
      bindings_[name] = value;
      channel->WriteAll(FormatOkLine(0, 0.0, "off"));
    } else {
      channel->WriteAll(FormatErrLine("usage: \\set <name> <int>"));
    }
    return true;
  }
  if (command == "\\unset") {
    std::string name;
    in >> name;
    bindings_.erase(name);
    channel->WriteAll(FormatOkLine(0, 0.0, "off"));
    return true;
  }
  if (command == "\\mem" || command == "\\memory") {
    double pages = 0;
    if (in >> pages && pages >= 2) {
      memory_pages_ = pages;
      channel->WriteAll(FormatOkLine(0, 0.0, "off"));
    } else {
      channel->WriteAll(FormatErrLine("usage: \\mem <pages>  (pages >= 2)"));
    }
    return true;
  }
  if (command == "\\threads") {
    int32_t threads = 0;
    if (in >> threads && threads >= 1 && threads <= 256) {
      threads_ = threads;
      channel->WriteAll(FormatOkLine(0, 0.0, "off"));
    } else {
      channel->WriteAll(FormatErrLine("usage: \\threads <N>  (1 <= N <= 256)"));
    }
    return true;
  }
  if (command == "\\reopt") {
    std::string arg;
    in >> arg;
    if (arg == "on" || arg == "off") {
      reopt_enabled_ = arg == "on";
      double slack = 0.0;
      if (in >> slack) {
        if (slack >= 1.0) {
          reopt_slack_ = slack;
        } else {
          channel->WriteAll(
              FormatErrLine("usage: \\reopt <on|off> [slack >= 1]"));
          return true;
        }
      }
      arg.clear();  // fall through to the state echo below
    }
    if (arg.empty()) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "reopt: %s (slack %.2f)",
                    reopt_enabled_ ? "on" : "off", reopt_slack_);
      out = FormatRowLine(buf);
      out += FormatOkLine(1, 0.0, "off");
      channel->WriteAll(out);
      return true;
    }
    channel->WriteAll(FormatErrLine("usage: \\reopt <on|off> [slack >= 1]"));
    return true;
  }
  if (command == "\\bindings") {
    int64_t rows = 0;
    for (const auto& [name, value] : bindings_) {
      out += FormatRowLine(":" + name + " = " + std::to_string(value));
      ++rows;
    }
    out += FormatOkLine(rows, 0.0, "off");
    channel->WriteAll(out);
    return true;
  }
  if (command == "\\profile") {
    std::string arg;
    in >> arg;
    if (arg == "on" || arg == "off") {
      profile_ = arg == "on";
      channel->WriteAll(FormatOkLine(0, 0.0, "off"));
    } else {
      channel->WriteAll(FormatErrLine("usage: \\profile <on|off>"));
    }
    return true;
  }
  if (command == "\\tables") {
    const Catalog& catalog = engine_->workload->catalog();
    for (RelationId id = 0; id < catalog.num_relations(); ++id) {
      const RelationInfo& rel = catalog.relation(id);
      std::string line = rel.name() + "(" +
                         std::to_string(rel.cardinality()) + " rows):";
      for (int32_t c = 0; c < rel.num_columns(); ++c) {
        line += " " + rel.column(c).name + (rel.HasIndexOn(c) ? "*" : "");
      }
      out += FormatRowLine(line + "   (* = B-tree index)");
    }
    out += FormatOkLine(catalog.num_relations(), 0.0, "off");
    channel->WriteAll(out);
    return true;
  }
  if (command == "\\explain") {
    Explain(RestOf(in), channel);
    return true;
  }
  if (command == "\\analyze") {
    // "\analyze [json] SELECT ..." is EXPLAIN ANALYZE of one query; a
    // bare "\analyze" switches the whole engine to histogram estimates.
    std::string sql = RestOf(in);
    obs::AnalyzeFormat format = obs::AnalyzeFormat::kText;
    std::istringstream words(sql);
    std::string first;
    if (words >> first && first == "json") {
      format = obs::AnalyzeFormat::kJson;
      sql = RestOf(words);
      if (sql.empty()) {
        channel->WriteAll(
            FormatErrLine("usage: \\analyze [[json] SELECT ...]"));
        return true;
      }
    }
    if (!sql.empty()) {
      RunQuery(sql, channel, &format);
      return true;
    }
    const size_t columns = engine_->UseHistograms();
    out = FormatRowLine("histograms built for " + std::to_string(columns) +
                        " columns; estimator now uses them");
    out += FormatOkLine(1, 0.0, "off");
    channel->WriteAll(out);
    return true;
  }
  if (command == "\\cache") {
    if (engine_->plan_cache == nullptr) {
      out = FormatRowLine("plan cache: off");
      out += FormatOkLine(1, 0.0, "off");
      channel->WriteAll(out);
      return true;
    }
    std::string arg;
    in >> arg;
    if (arg == "clear") {
      engine_->plan_cache->Clear();
      channel->WriteAll(FormatOkLine(0, 0.0, "off"));
      return true;
    }
    if (!arg.empty()) {
      channel->WriteAll(FormatErrLine("usage: \\cache [clear]"));
      return true;
    }
    out = FormatRowLine(engine_->plan_cache->stats().ToString());
    out += FormatOkLine(1, 0.0, "off");
    channel->WriteAll(out);
    return true;
  }
  if (command == "\\metrics") {
    std::string arg;
    in >> arg;
    if (arg == "json") {
      WriteTextAsRows(obs::MetricsRegistry::Instance().RenderJson(), &out);
    } else if (arg == "reset") {
      obs::MetricsRegistry::Instance().ResetAll();
      out = FormatRowLine(
          "metrics reset (counters, maxima, and histograms zeroed; gauges "
          "keep their current state)");
    } else if (arg.empty()) {
      WriteTextAsRows(obs::MetricsRegistry::Instance().RenderText(), &out);
    } else {
      channel->WriteAll(FormatErrLine("usage: \\metrics [reset|json]"));
      return true;
    }
    out += FormatOkLine(0, 0.0, "off");
    channel->WriteAll(out);
    return true;
  }
  if (command == "\\top") {
    auto sessions = engine_->SnapshotSessions();
    std::sort(sessions.begin(), sessions.end(),
              [](const SessionInfo::Snapshot& a,
                 const SessionInfo::Snapshot& b) {
                return a.session_id < b.session_id;
              });
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%-8s %-6s %8s %10s %12s %10s %8s  %s",
                  "session", "phase", "in-phase", "rows", "peak-mem",
                  "wait-ms", "queries", "query");
    out += FormatRowLine(buf);
    int64_t data_rows = 1;
    for (const auto& s : sessions) {
      std::snprintf(buf, sizeof(buf),
                    "%-8lld %-6s %7.3fs %10lld %12lld %10.3f %8lld  %.120s",
                    static_cast<long long>(s.session_id), s.phase,
                    s.phase_seconds, static_cast<long long>(s.rows),
                    static_cast<long long>(s.peak_memory_bytes),
                    static_cast<double>(s.grant_wait_us) / 1e3,
                    static_cast<long long>(s.queries),
                    s.query.empty() ? "-" : s.query.c_str());
      out += FormatRowLine(buf);
      ++data_rows;
    }
    // Admission footer: the pool watermark and queue-wait distribution
    // the exposition endpoint exports, readable without a scraper.
    auto snap = obs::MetricsRegistry::Instance().Snapshot();
    auto peak = snap.find("server.admission.pool_peak_pages");
    auto in_use = snap.find("server.pool.pages_in_use");
    auto depth = snap.find("server.admission.queue_depth");
    if (peak != snap.end()) {
      std::snprintf(buf, sizeof(buf),
                    "pool: %lld pages in use, peak %lld, queue depth %lld",
                    static_cast<long long>(
                        in_use == snap.end() ? 0 : in_use->second.value),
                    static_cast<long long>(peak->second.value),
                    static_cast<long long>(
                        depth == snap.end() ? 0 : depth->second.value));
      out += FormatRowLine(buf);
      ++data_rows;
    }
    auto wait = snap.find("server.admission.queue_wait_us");
    if (wait != snap.end() && wait->second.count > 0) {
      std::snprintf(buf, sizeof(buf),
                    "queue wait: count=%lld p50=%.3fms p95=%.3fms p99=%.3fms",
                    static_cast<long long>(wait->second.count),
                    static_cast<double>(wait->second.Percentile(0.50)) / 1e3,
                    static_cast<double>(wait->second.Percentile(0.95)) / 1e3,
                    static_cast<double>(wait->second.Percentile(0.99)) / 1e3);
      out += FormatRowLine(buf);
      ++data_rows;
    }
    out += FormatOkLine(data_rows, 0.0, "off");
    channel->WriteAll(out);
    return true;
  }
  if (command == "\\slow") {
    if (engine_->flight == nullptr) {
      channel->WriteAll(FormatErrLine("flight recorder is off"));
      return true;
    }
    int64_t n = 8;
    if (in >> n && (n < 1 || n > 4096)) {
      channel->WriteAll(FormatErrLine("usage: \\slow [1 <= n <= 4096]"));
      return true;
    }
    WriteTextAsRows(
        engine_->flight->RenderRecentText(static_cast<size_t>(n)), &out);
    out += FormatOkLine(0, 0.0, "off");
    channel->WriteAll(out);
    return true;
  }
  if (command == "\\stats") {
    if (engine_->flight == nullptr) {
      channel->WriteAll(FormatErrLine("flight recorder is off"));
      return true;
    }
    std::string arg;
    in >> arg;
    uint64_t fingerprint = 0;
    bool sort_by_regret = false;
    if (arg == "template") {
      std::string fp_text;
      in >> fp_text;
      char* end = nullptr;
      fingerprint = std::strtoull(fp_text.c_str(), &end, 16);
      if (fp_text.empty() || end == nullptr || *end != '\0' ||
          fingerprint == 0) {
        channel->WriteAll(FormatErrLine(
            "usage: \\stats [p99|regret|template <hex fingerprint>]"));
        return true;
      }
    } else if (arg == "regret") {
      sort_by_regret = true;
    } else if (!arg.empty() && arg != "p99") {
      channel->WriteAll(FormatErrLine(
          "usage: \\stats [p99|regret|template <hex fingerprint>]"));
      return true;
    }
    WriteTextAsRows(engine_->flight->RenderTemplateStatsText(fingerprint,
                                                             sort_by_regret),
                    &out);
    out += FormatOkLine(0, 0.0, "off");
    channel->WriteAll(out);
    return true;
  }
  if (command == "\\alerts") {
    if (engine_->slo == nullptr || !engine_->slo->enabled()) {
      out = FormatRowLine(
          "slo alerting: off (start the server with --slo-ms)");
      out += FormatOkLine(1, 0.0, "off");
      channel->WriteAll(out);
      return true;
    }
    WriteTextAsRows(engine_->slo->RenderText(), &out);
    if (engine_->flight != nullptr) {
      WriteTextAsRows("recent transitions:", &out);
      WriteTextAsRows(engine_->flight->RenderAlertsText(16), &out);
    }
    out += FormatOkLine(0, 0.0, "off");
    channel->WriteAll(out);
    return true;
  }
  channel->WriteAll(FormatErrLine("unknown command " + command));
  return true;
}

void ServerSession::Explain(const std::string& sql, LineChannel* channel) {
  const CostModel& model = *engine_->model.load(std::memory_order_acquire);
  Result<ParsedQuery> parsed = ParseQuery(sql, engine_->workload->catalog());
  if (!parsed.ok()) {
    channel->WriteAll(FormatErrLine(parsed.status().ToString()));
    return;
  }
  ParamEnv env(Interval::Point(memory_pages_));
  Optimizer dynamic_optimizer(&model, OptimizerOptions::Dynamic());
  Result<OptimizedPlan> plan = dynamic_optimizer.Optimize(parsed->query, env);
  if (!plan.ok()) {
    channel->WriteAll(FormatErrLine("optimizer: " + plan.status().ToString()));
    return;
  }
  std::string text;
  Optimizer static_optimizer(&model, OptimizerOptions::Static());
  Result<OptimizedPlan> static_plan =
      static_optimizer.Optimize(parsed->query, env);
  if (static_plan.ok()) {
    text += "--- static plan (cost " + static_plan->cost.ToString() +
            ") ---\n" + static_plan->root->ToString();
  }
  text += "--- dynamic plan (cost " + plan->cost.ToString() + ", " +
          std::to_string(plan->root->CountNodes()) + " nodes, " +
          std::to_string(plan->root->CountChooseNodes()) + " choose) ---\n" +
          plan->root->ToString();
  std::string out;
  for (const auto& [name, id] : parsed->params) {
    auto it = bindings_.find(name);
    if (it == bindings_.end()) {
      WriteTextAsRows(text, &out);
      out += FormatErrLine("host variable :" + name +
                           " is unbound; use \\set " + name + " <int>");
      channel->WriteAll(out);
      return;
    }
    env.Bind(id, Value(it->second));
  }
  StartupOptions startup_options;
  startup_options.trace = engine_->trace;
  Result<StartupResult> startup =
      ResolveDynamicPlan(plan->root, model, env, startup_options);
  if (!startup.ok()) {
    WriteTextAsRows(text, &out);
    out += FormatErrLine("start-up: " + startup.status().ToString());
    channel->WriteAll(out);
    return;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "--- chosen at start-up (predicted %.4f s, %lld decisions) "
                "---\n",
                startup->execution_cost,
                static_cast<long long>(startup->decisions));
  text += buf + startup->resolved->ToString();
  WriteTextAsRows(text, &out);
  out += FormatOkLine(0, 0.0, "off");
  channel->WriteAll(out);
}

void ServerSession::RunQuery(const std::string& sql, LineChannel* channel,
                             const obs::AnalyzeFormat* analyze) {
  if (engine_->draining.load(std::memory_order_relaxed)) {
    channel->WriteAll(FormatErrLine("server shutting down"));
    return;
  }
  queries_counter_.Add(1);
  info_.BeginQuery(sql);
  // Every exit path returns the `\top` row to idle.
  struct QueryScope {
    SessionInfo* info;
    ~QueryScope() { info->EndQuery(); }
  } query_scope{&info_};
  const auto wall_start = std::chrono::steady_clock::now();
  const int64_t trace_start_us =
      engine_->trace == nullptr ? 0 : engine_->trace->NowMicros();

  // Plan through the shared cache — a template any session compiled is a
  // hit here (memory_pages is part of the key, so sessions with different
  // grants never share a compiled plan) — and resolve start-up.
  CachedPlanRequest request;
  request.catalog = &engine_->workload->catalog();
  request.model = engine_->model.load(std::memory_order_acquire);
  request.cache = engine_->plan_cache;
  request.memory_pages = memory_pages_;
  request.host_bindings = &bindings_;
  request.trace = engine_->trace;
  Result<PreparedQuery> prepared =
      PrepareQuery(sql, request, engine_->workload->db());
  if (!prepared.ok()) {
    channel->WriteAll(FormatErrLine(prepared.status().ToString()));
    return;
  }
  // Admission: global memory-grant pool first, then the cost throttle fed
  // by this template's measured history (optimizer estimate until then).
  const int64_t pages = static_cast<int64_t>(std::llround(memory_pages_));
  info_.BeginPhase("queued");
  const auto admit_start = std::chrono::steady_clock::now();
  AdmitResult admit =
      engine_->admission->Admit(prepared->planned.fingerprint, pages,
                                prepared->startup.execution_cost);
  const double grant_wait_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    admit_start)
          .count();
  info_.SetGrantWaitUs(static_cast<int64_t>(grant_wait_seconds * 1e6));
  if (admit.outcome != AdmitOutcome::kAdmitted) {
    channel->WriteAll(FormatErrLine("admission: " + admit.message));
    return;
  }
  info_.BeginPhase("exec");

  ExecOptions options;
  options.threads = threads_;
  std::unique_ptr<ExecContext> ctx =
      MakeExecContext(prepared->planned.bound, *engine_->config, options);
  ctx->set_trace(engine_->trace);
  // Buffer-pool traffic for the query log: plain counter reads around
  // execution.  The counters are process-wide, so the window also counts
  // any query that overlaps this one.
  const bool want_log =
      engine_->query_log != nullptr && engine_->query_log->is_open();
  const BufferPool& pool = engine_->workload->db().buffer_pool();
  const int64_t pool_hits_before = want_log ? pool.hits() : 0;
  const int64_t pool_misses_before = want_log ? pool.misses() : 0;
  const int64_t exec_start_us =
      engine_->trace == nullptr ? 0 : engine_->trace->NowMicros();
  Result<QueryRun> run = ExecuteAdmitted(std::move(*prepared), *ctx,
                                         std::move(admit.ticket));
  if (!run.ok()) {
    channel->WriteAll(FormatErrLine(run.status().ToString()));
    return;
  }
  if (ctx->cancelled()) {
    channel->WriteAll(FormatErrLine("cancelled: server shutting down"));
    return;
  }
  info_.SetPeakMemory(run->peak_memory_bytes);
  if (engine_->trace != nullptr) {
    EmitOperatorSpans(engine_->trace, *run->exec_tree, exec_start_us,
                      trace_track_);
  }

  // One record per served query.  Its operator rows come from one analyze
  // walk, taken only when a report shows them (the flight recorder is on
  // by default); its bound-point estimates only when the query log, their
  // one reader, is open.
  obs::AnalyzeInput input;
  std::vector<obs::AnalyzeRow> analyze_rows;
  if (want_log || engine_->flight != nullptr || analyze != nullptr) {
    info_.BeginPhase("log");
    input = obs::AnalyzeInputFor(*run);
    analyze_rows = obs::CollectAnalyzeRows(input);
  }
  auto record = std::make_shared<obs::QueryRecord>(
      obs::BuildQueryRecord(*run, input, analyze_rows, want_log));
  record->session_id = session_id_;
  record->grant_wait_seconds = grant_wait_seconds;
  if (want_log) {
    record->pool_hits = pool.hits() - pool_hits_before;
    record->pool_misses = pool.misses() - pool_misses_before;
  }
  record->total_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const double total_seconds = record->total_seconds;
  latency_histogram_.Record(static_cast<int64_t>(total_seconds * 1e6));
  if (want_log) {
    engine_->query_log->Append(*record);
  }
  engine_->RecordQuery(std::move(record), [&] {
    return obs::RenderAnalyze(analyze_rows, input, obs::AnalyzeFormat::kJson);
  });

  const std::vector<Tuple>& rows = run->rows;
  const char* cache_status = run->prepared.cache_status();
  if (engine_->trace != nullptr) {
    engine_->trace->AddSpan(
        "query", "server", trace_start_us,
        engine_->trace->NowMicros() - trace_start_us, trace_track_,
        {{"session", std::to_string(session_id_)},
         {"cache", cache_status},
         {"rows", std::to_string(rows.size())}});
  }

  std::string out;
  out.reserve(rows.size() * 32 + 64);
  if (profile_) {
    WriteTextAsRows(RenderProfile(*run->exec_tree), &out);
    if (run->triggers_fired > 0) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "reopt: %lld checkpoint(s) evaluated, %lld trigger(s), "
                    "%.4f s re-optimizing",
                    static_cast<long long>(run->checkpoints_evaluated),
                    static_cast<long long>(run->triggers_fired),
                    run->reopt_seconds);
      out += FormatRowLine(buf);
    }
    out += FormatRowLine(MemorySummary(*ctx));
  }
  if (analyze != nullptr) {
    WriteTextAsRows(obs::RenderAnalyze(analyze_rows, input, *analyze), &out);
  }
  for (const Tuple& row : rows) {
    out += FormatRowLine(row.ToString());
  }
  out += FormatOkLine(static_cast<int64_t>(rows.size()), total_seconds,
                      cache_status);
  channel->WriteAll(out);
}

Result<QueryRun> ServerSession::ExecuteAdmitted(PreparedQuery prepared,
                                                ExecContext& ctx,
                                                AdmissionTicket ticket) {
  const AdmissionTicket grant = std::move(ticket);
  SharedEngine::LiveContext live(engine_, &ctx);
  if (!reopt_enabled_) {
    return ExecuteQuery(std::move(prepared), ctx, nullptr,
                        info_.rows_counter());
  }
  ReoptOptions reopt;
  reopt.config.enabled = true;
  reopt.config.slack = reopt_slack_;
  reopt.optimizer = OptimizerOptions::Static();
  reopt.startup.trace = engine_->trace;
  return ExecuteQuery(std::move(prepared), ctx, &reopt, info_.rows_counter());
}

}  // namespace server
}  // namespace dqep
