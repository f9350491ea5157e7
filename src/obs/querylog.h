// The per-query record, and its persistent rendering: the query log.
//
// Every served query is summarized once, in one obs::QueryRecord built
// from the pipeline run (runtime/query_pipeline.h), the admission facts
// and the single analyze walk of obs/analyze.* (the triple-walk joining
// the dynamic plan, the interval-annotated resolved plan and the measured
// iterator tree).  Everything that reports a served query reads that one
// record, so the reports cannot disagree:
//
//   * the query log — the record's JSON, one line per query (below);
//   * the flight recorder (obs/flight_recorder.h) — its ring holds the
//     record itself, `\slow` and `/slow` render from it, and a slow-query
//     bundle's "meta" is the same JSON plus the recorder's sequence and
//     slow reason;
//   * the per-template consumers (admission cost EWMA, calibration
//     drift, SLO burn, flight template stats), fed the record through one
//     call (server/session.h SharedEngine::RecordQuery).
//
// The bound-point estimates and unit-operation counts (CostTerms) the
// calibration pass fits are filled only when asked for — the query log
// is their only reader — so a server with the log off does not pay for
// them.
//
// Format: JSONL — one self-contained JSON object per line, append-only,
// so logs from many sessions concatenate trivially and a torn final line
// (crash mid-append) damages nothing but itself; the reader skips
// malformed lines and reports how many.  Field reference: see
// RenderQueryRecordJson in querylog.cc and README "Query log".
//
// Hash semantics: `query_hash` is the plan cache's fingerprint of the
// normalized template (sql/normalize.h — literals lifted to '?', keywords
// canonicalized, whitespace collapsed), taken from the planned query, so
// "R1.s < 10" and "R1.s < 97" aggregate under one identity.  A query
// planned without the cache has no template identity: hash 0, no
// template.  The raw text is stored verbatim in `query`.  Hashes written
// by earlier versions (raw-text hashing, and an offset basis with a
// transcription typo) do not match current ones; the log reader never
// joins on hashes across records, so old logs stay loadable.
//
// Schema note: "v" is the record schema version.  v1: the original
// record.  v2 (mid-query re-optimization): adds the flat `reopt_*`
// fields — checkpoints evaluated, triggers fired, seconds spent
// re-entering the decision procedure, and the estimated suffix cost
// before/after the last triggered re-optimization.  v3 (one record for
// the log and the flight recorder): adds `session_id`, `total_seconds`
// (receipt to record, queue wait included), `grant_wait_seconds`,
// `exec_seconds` (build + drain wall), `reopt_adoptions` and a per-decision
// `regret`; an operator's `est_cost_point` and `terms` are written only
// when they were computed.  Binding values are JSON numbers throughout.
// The reader defaults every field a line lacks to zero, so v1 and v2
// logs load unchanged.  Records from before the single execution engine
// also carry an `exec_mode` field; it is no longer written, and the
// reader ignores it like any unknown key.

#ifndef DQEP_OBS_QUERYLOG_H_
#define DQEP_OBS_QUERYLOG_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "obs/analyze.h"

namespace dqep {
namespace obs {

/// One operator of the resolved plan.
struct QueryOperator {
  std::string op;
  int depth = 0;

  /// Compile-time inclusive cost interval (the ambiguity the optimizer
  /// faced) and, when `have_terms`, the bound-point inclusive estimate
  /// (what start-up compared).
  double est_cost_lo = 0.0;
  double est_cost_hi = 0.0;
  double est_cost_point = 0.0;

  double est_rows_lo = 0.0;
  double est_rows_hi = 0.0;

  /// Measured inclusive wall / thread-CPU seconds and the exclusive wall
  /// share (children subtracted, clamped at 0 against timer jitter).
  double actual_seconds = 0.0;
  double actual_cpu_seconds = 0.0;
  double self_seconds = 0.0;
  int64_t actual_rows = 0;
  bool have_actual = false;

  /// Exclusive modeled unit-operation counts: the calibration pass fits
  /// unit constants against (terms, self_seconds) pairs.  Computed, with
  /// `est_cost_point`, only for records bound for the query log.
  CostTerms terms;
  bool have_terms = false;
};

/// One choose-plan decision.
struct QueryDecision {
  int depth = 0;
  int64_t alternatives = 0;
  int64_t chosen = 0;
  std::string chosen_op;
  /// Resolved start-up point costs; +infinity when unavailable (encoded
  /// as null in JSON).
  double chosen_est = 0.0;
  double best_other_est = 0.0;
  double actual_seconds = 0.0;
  bool have_actual = false;
  /// Measured cost of the chosen alternative minus the start-up estimate
  /// of the best one not taken (obs/analyze.h).
  double regret = 0.0;
  bool have_regret = false;
};

/// One executed query.  BuildQueryRecord fills everything the run and
/// the analyze rows know; a server session adds the admission facts
/// (session, grant wait, end-to-end seconds) and the shell the buffer-pool
/// deltas it alone reads.
struct QueryRecord {
  std::string query;
  /// The plan cache's template fingerprint (0 when planned without the
  /// cache) — see the header comment on hash semantics.
  uint64_t query_hash = 0;
  /// The normalized template itself ("SELECT * FROM R1 WHERE R1.s < ?");
  /// empty when planned without the cache.
  std::string query_template;
  /// Plan-cache outcome for this run: "hit", "miss", "off" (cache
  /// disabled), or "" (planned outside the cache path, e.g. old logs).
  std::string plan_cache;
  std::vector<std::pair<std::string, int64_t>> bindings;

  /// Server session that ran the query (0 outside a server).
  int64_t session_id = 0;
  int32_t threads = 1;
  double memory_pages = 0.0;

  /// Start-up summary: predicted bound-point execution cost of the
  /// chosen plan, decision/evaluation counts, resolve CPU.
  double predicted_cost = 0.0;
  int64_t decision_count = 0;
  int64_t cost_evaluations = 0;
  double resolve_cpu_seconds = 0.0;

  /// Wall seconds: receipt to record in a server session (plan, queue,
  /// execute, analyze — not the log append or the reply write), the
  /// admission queue wait within it, and execution (build + drain,
  /// re-optimization included).  Schema v3; zero in older lines.
  double total_seconds = 0.0;
  double grant_wait_seconds = 0.0;
  double exec_seconds = 0.0;

  /// Root actuals (inclusive).
  double actual_seconds = 0.0;
  double actual_cpu_seconds = 0.0;
  int64_t result_rows = 0;

  /// Run-time readings (deltas for this query).
  int64_t peak_memory_bytes = 0;
  int64_t spill_files = 0;
  int64_t spill_tuples = 0;
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;

  /// Mid-query re-optimization (schema v2, adoptions v3; all zero when
  /// off or idle).  `reopt_cost_pre`/`_post` are the estimated cost of
  /// finishing with the running join order vs the re-optimized suffix at
  /// the last triggered checkpoint.
  int64_t reopt_checkpoints = 0;
  int64_t reopt_triggers = 0;
  int64_t reopt_adoptions = 0;
  double reopt_seconds = 0.0;
  double reopt_cost_pre = 0.0;
  double reopt_cost_post = 0.0;

  std::vector<QueryOperator> operators;
  std::vector<QueryDecision> decisions;

  /// Summed regret of the decisions that have one.
  double RegretSeconds() const;
};

/// Builds the plan/actuals core of a record from the same inputs EXPLAIN
/// ANALYZE renders — `input` and the rows CollectAnalyzeRows(input)
/// returned, so a caller that also renders them walks once.
/// `input.resolved_root` must be annotated with compile-time intervals
/// (AnnotatePlan), exactly as for RenderAnalyze.  With `model` non-null
/// it also computes each operator's bound-point estimate and unit-
/// operation counts under `bound_env` (what calibration fits; the
/// compile-time intervals carry neither).
QueryRecord BuildQueryRecord(const AnalyzeInput& input,
                             const std::vector<AnalyzeRow>& rows,
                             const CostModel* model,
                             const ParamEnv& bound_env);

/// The record of one pipeline run (runtime/query_pipeline.h): the core
/// above from `input` (AnalyzeInputFor(run)) and its `rows` — both empty
/// when no report wants the operator rows — plus the run's text,
/// template identity, plan-cache outcome, bindings, start-up summary,
/// re-opt counts, thread count, memory grant, execution seconds, result
/// rows, and peak memory and spill readings.  `with_terms` adds the
/// bound-point estimates and CostTerms (set it for the query log).
QueryRecord BuildQueryRecord(const QueryRun& run, const AnalyzeInput& input,
                             const std::vector<AnalyzeRow>& rows,
                             bool with_terms);

/// One record as a single JSON object (no trailing newline): the query
/// log line, and the "meta" of a slow-query bundle.  Non-finite numbers
/// are encoded as null.
std::string RenderQueryRecordJson(const QueryRecord& record);

/// Append-only JSONL writer.  Opens lazily, appends one line per record,
/// flushes after each append so concurrent readers and crashed sessions
/// see whole lines only.
///
/// Thread-safe: one writer instance may be shared by concurrent server
/// sessions.  Each record is serialized outside the lock, then written
/// and flushed as one critical section (a single process-wide writer), so
/// N threads appending simultaneously produce N whole lines — never torn
/// or interleaved records.
class QueryLogWriter {
 public:
  QueryLogWriter() = default;
  ~QueryLogWriter();

  QueryLogWriter(const QueryLogWriter&) = delete;
  QueryLogWriter& operator=(const QueryLogWriter&) = delete;

  /// Opens `path` for appending.  Returns false (with `error` set) when
  /// the file cannot be opened.
  bool Open(const std::string& path, std::string* error = nullptr);

  bool is_open() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return file_ != nullptr;
  }
  std::string path() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return path_;
  }

  /// Serializes and appends `record`.  Returns false on I/O failure.
  bool Append(const QueryRecord& record);

  void Close();

 private:
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Reads a JSONL query log.  Malformed lines are skipped (a torn tail
/// from a crashed session must not poison the whole log);
/// `skipped_lines` (optional) reports how many.  Fails only when the
/// file cannot be read at all.
Result<std::vector<QueryRecord>> LoadQueryLog(
    const std::string& path, int64_t* skipped_lines = nullptr);

}  // namespace obs
}  // namespace dqep

#endif  // DQEP_OBS_QUERYLOG_H_
