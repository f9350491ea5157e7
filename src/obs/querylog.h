// Persistent, append-only query log: one JSON line per executed query.
//
// Every record carries exactly what EXPLAIN ANALYZE sees — the triple-
// walk of obs/analyze.* joining the dynamic plan, the interval-annotated
// resolved plan, and the measured iterator tree — plus the bound-point
// estimates and unit-operation counts (CostTerms) the calibration pass
// needs, and the run-time readings (peak memory, spill, buffer-pool
// deltas) the caller collects around execution.  Records survive the
// process: PR 4's observation was that every measurement died with the
// shell, so the cost model could never learn from it.
//
// Format: JSONL — one self-contained JSON object per line, append-only,
// so logs from many sessions concatenate trivially and a torn final line
// (crash mid-append) damages nothing but itself; the reader skips
// malformed lines and reports how many.  Field reference: see
// RenderQueryLogRecordJson in querylog.cc and README "Feedback &
// calibration".
//
// Hash semantics (changed with the plan cache): `query_hash` is the
// FNV-1a fingerprint of the *normalized template* (sql/normalize.h —
// literals lifted to '?', keywords canonicalized, whitespace collapsed),
// not of the raw text, so "R1.s < 10" and "R1.s < 97" aggregate under
// one identity — the same identity the plan cache keys on.  The raw text
// is still stored verbatim in `query`.  Text that fails to lex falls
// back to hashing the raw bytes.  Hashes written by earlier versions
// (raw-text hashing, and an offset basis with a transcription typo) do
// not match current ones; the log reader never joins on hashes across
// records, so old logs stay loadable.
//
// Schema note: "v" is the record schema version.  v1: the original
// record.  v2 (mid-query re-optimization): adds the flat `reopt_*`
// fields — checkpoints evaluated, triggers fired, seconds spent
// re-entering the decision procedure, and the estimated suffix cost
// before/after the last triggered re-optimization.  The reader defaults
// all of them to zero, so v1 logs load unchanged.  Records from before
// the single execution engine also carry an `exec_mode` field; it is no
// longer written, and the reader ignores it like any unknown key.

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

/// One operator of the resolved plan, as logged.
struct QueryLogOperator {
  std::string op;
  int depth = 0;

  /// Compile-time inclusive cost interval (the ambiguity the optimizer
  /// faced) and the bound-point inclusive estimate (what start-up
  /// compared).
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
  /// unit constants against (terms, self_seconds) pairs.
  CostTerms terms;
  bool have_terms = false;
};

/// One choose-plan decision, as logged.
struct QueryLogDecision {
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
};

/// One executed query.  BuildQueryLogRecord fills the plan/actuals core;
/// the caller adds query text, bindings, and run-time metric readings it
/// alone can see.
struct QueryLogRecord {
  std::string query;
  /// FNV-1a of the normalized template of `query` (raw bytes when the
  /// text does not lex) — see the header comment on hash semantics.
  uint64_t query_hash = 0;
  /// The normalized template itself ("SELECT * FROM R1 WHERE R1.s < ?");
  /// empty when the text does not lex.
  std::string query_template;
  /// Plan-cache outcome for this run: "hit", "miss", "off" (cache
  /// disabled), or "" (planned outside the cache path, e.g. old logs).
  std::string plan_cache;
  std::vector<std::pair<std::string, int64_t>> bindings;

  int32_t threads = 1;
  double memory_pages = 0.0;

  /// Start-up summary: predicted bound-point execution cost of the
  /// chosen plan, decision/evaluation counts, resolve CPU.
  double predicted_cost = 0.0;
  int64_t decision_count = 0;
  int64_t cost_evaluations = 0;
  double resolve_cpu_seconds = 0.0;

  /// Root actuals (inclusive).
  double actual_seconds = 0.0;
  double actual_cpu_seconds = 0.0;
  int64_t result_rows = 0;

  /// Run-time readings, caller-supplied (deltas for this query).
  int64_t peak_memory_bytes = 0;
  int64_t spill_files = 0;
  int64_t spill_tuples = 0;
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;

  /// Mid-query re-optimization (schema v2; all zero when off or idle).
  /// `reopt_cost_pre`/`_post` are the estimated cost of finishing with
  /// the running join order vs the re-optimized suffix at the last
  /// triggered checkpoint.
  int64_t reopt_checkpoints = 0;
  int64_t reopt_triggers = 0;
  double reopt_seconds = 0.0;
  double reopt_cost_pre = 0.0;
  double reopt_cost_post = 0.0;

  std::vector<QueryLogOperator> operators;
  std::vector<QueryLogDecision> decisions;
};

/// FNV-1a 64-bit hash of the query's *normalized template* (stable
/// record identity across sessions AND across literal values — equal to
/// the plan cache's fingerprint).  Text that fails to lex hashes as raw
/// bytes.
uint64_t HashQueryText(const std::string& text);

/// Builds the plan/actuals core of a record from the same inputs EXPLAIN
/// ANALYZE renders, plus the *bound* environment, which is needed for the
/// point estimates and unit-operation counts the compile-time intervals
/// don't carry.  `input.resolved_root` must be annotated with compile-
/// time intervals (AnnotatePlan), exactly as for RenderAnalyze.
QueryLogRecord BuildQueryLogRecord(const std::string& query_text,
                                   const AnalyzeInput& input,
                                   const CostModel& model,
                                   const ParamEnv& bound_env);

/// The record of one pipeline run (runtime/query_pipeline.h): the core
/// above from `input` (AnalyzeInputFor(run)), plus the run's text,
/// plan-cache outcome, bindings, thread count, memory grant, and peak
/// memory and spill readings.
QueryLogRecord BuildQueryLogRecord(const QueryRun& run,
                                   const AnalyzeInput& input);

/// One record as a single JSON line (no trailing newline).  Non-finite
/// numbers are encoded as null.
std::string RenderQueryLogRecordJson(const QueryLogRecord& record);

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
  bool Append(const QueryLogRecord& record);

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
Result<std::vector<QueryLogRecord>> LoadQueryLog(
    const std::string& path, int64_t* skipped_lines = nullptr);

}  // namespace obs
}  // namespace dqep

#endif  // DQEP_OBS_QUERYLOG_H_
