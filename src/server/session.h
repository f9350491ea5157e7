// One server session: the engine surface of a single client connection.
//
// A session speaks the line protocol (server/protocol.h) and runs each
// SQL line through the query pipeline the interactive shell uses too
// (runtime/query_pipeline.h): PrepareQuery (plan through the cache,
// resolve start-up), admission, ExecuteQuery (plain or re-optimizing).
// It runs against engine state shared by every session of the server:
//
//   * one catalog / database / buffer pool (the workload),
//   * one cost model and SystemConfig,
//   * one DynamicPlanCache (the server's own instance, so a template
//     compiled by session 3 is a hit for session 7),
//   * one AdmissionController gating memory grants and query cost,
//   * one QueryLogWriter (mutex-serialized JSONL appends),
//   * one TraceSession with a track per session.
//
// Per-session state is only what \set/\mem/\threads/\reopt mutate:
// bindings, the memory grant, thread count, and the mid-query
// re-optimization switch and slack.  Every query runs on the one batch
// engine (exec/executor.h), in parallel when the thread count is > 1.
//
// Admission sits between the pipeline's two calls, and the memory grant
// it hands out lives exactly as long as ExecuteQuery: annotation, the
// query log, the flight recorder and the (possibly blocking) reply
// write all run after the pages are back in the pool.
//
// Annotation safety: query-log records need the executed plan annotated
// with estimate intervals, but the resolved plan shares subtrees with
// the cached dynamic plan other sessions are concurrently resolving.
// The pipeline therefore annotates a ClonePlan deep copy (AnnotateRun) —
// the shared DAG is never written after Insert.
//
// Cancellation: while it executes, a query's ExecContext is registered
// with the shared engine (SharedEngine::LiveContext); shutdown cancels every
// registered context, the drain loops cut the query short, and the
// session answers "@err cancelled ..." before the connection closes.

#ifndef DQEP_SERVER_SESSION_H_
#define DQEP_SERVER_SESSION_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <atomic>

#include "exec/exec_context.h"
#include "obs/alerts.h"
#include "obs/drift.h"
#include "obs/flight_recorder.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "runtime/plan_cache.h"
#include "runtime/query_pipeline.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace server {

/// Live-query introspection state of one session, updated by the owning
/// session as its query moves through the pipeline and snapshotted by
/// `\top` from any other session.  The string fields change only at
/// phase boundaries and sit behind the mutex; the high-frequency fields
/// (rows emitted) are relaxed atomics so the drain loop pays one
/// uncontended add per row.
class SessionInfo {
 public:
  explicit SessionInfo(int64_t session_id) : session_id_(session_id) {}

  /// Phase boundary: publishes the phase name (static string) and, for a
  /// new query, the SQL.
  void BeginPhase(const char* phase);
  void BeginQuery(const std::string& sql);
  void EndQuery();

  /// Rows emitted by the current query, bumped by the executing drain.
  std::atomic<int64_t>* rows_counter() { return &rows_; }
  void SetPeakMemory(int64_t bytes) {
    peak_memory_bytes_.store(bytes, std::memory_order_relaxed);
  }
  void SetGrantWaitUs(int64_t us) {
    grant_wait_us_.store(us, std::memory_order_relaxed);
  }

  /// One `\top` row, value-copied under the lock.
  struct Snapshot {
    int64_t session_id = 0;
    std::string query;       ///< "" when idle
    const char* phase = "idle";
    double phase_seconds = 0.0;  ///< time in the current phase
    int64_t rows = 0;
    int64_t peak_memory_bytes = 0;
    int64_t grant_wait_us = 0;
    int64_t queries = 0;     ///< completed queries this session
  };
  Snapshot Snap() const;

  int64_t session_id() const { return session_id_; }

 private:
  const int64_t session_id_;
  mutable std::mutex mutex_;
  std::string query_;
  const char* phase_ = "idle";
  std::chrono::steady_clock::time_point phase_start_ =
      std::chrono::steady_clock::now();
  std::atomic<int64_t> rows_{0};
  std::atomic<int64_t> peak_memory_bytes_{0};
  std::atomic<int64_t> grant_wait_us_{0};
  std::atomic<int64_t> queries_{0};
};

/// Engine state shared by all sessions of one server.  The server owns
/// everything; sessions borrow.  Also the live-query registry shutdown
/// uses to cancel in-flight executions.
class SharedEngine {
 public:
  PaperWorkload* workload = nullptr;
  const SystemConfig* config = nullptr;
  const CostModel* model = nullptr;
  DynamicPlanCache* plan_cache = nullptr;       ///< null: caching off
  AdmissionController* admission = nullptr;
  obs::QueryLogWriter* query_log = nullptr;     ///< null/closed: logging off
  obs::TraceSession* trace = nullptr;           ///< null: tracing off
  obs::FlightRecorder* flight = nullptr;        ///< null: recorder off
  obs::CalibrationDriftMonitor* drift = nullptr;  ///< null: drift off
  obs::SloBurnTracker* slo = nullptr;           ///< null: SLO alerting off

  /// Server-wide defaults for per-session mid-query re-optimization
  /// (--reopt / --reopt-slack; \reopt overrides per session).
  bool reopt_default = false;
  double reopt_slack_default = 2.0;

  /// Set once shutdown begins; sessions refuse new queries.
  std::atomic<bool> draining{false};

  /// RequestCancel on every live context (idempotent).
  void CancelAll();

  /// `\top` registry: sessions register themselves for the lifetime of
  /// their connection.
  void RegisterSession(const SessionInfo* info);
  void UnregisterSession(const SessionInfo* info);
  std::vector<SessionInfo::Snapshot> SnapshotSessions() const;

  /// Registers an executing query's context for the guard's lifetime,
  /// so CancelAll reaches it.  The context must outlive the guard.
  class LiveContext {
   public:
    LiveContext(SharedEngine* engine, ExecContext* ctx);
    ~LiveContext();

    LiveContext(const LiveContext&) = delete;
    LiveContext& operator=(const LiveContext&) = delete;

   private:
    SharedEngine* engine_;
    ExecContext* ctx_;
  };

 private:
  mutable std::mutex mutex_;
  std::set<ExecContext*> live_;
  std::set<const SessionInfo*> sessions_;
};

/// One connection's protocol loop.  Constructed per accepted socket;
/// lives on the worker thread until the client quits or the server
/// drains.
class ServerSession {
 public:
  ServerSession(SharedEngine* engine, int64_t session_id,
                double default_memory_pages);
  ~ServerSession();

  ServerSession(const ServerSession&) = delete;
  ServerSession& operator=(const ServerSession&) = delete;

  /// Reads lines until EOF, \quit, or shutdown.  Every line gets exactly
  /// one status-line response.
  void Serve(LineChannel* channel);

  int64_t session_id() const { return session_id_; }

 private:
  /// Handles one backslash command; returns false to close the session.
  bool Command(const std::string& line, LineChannel* channel);

  /// Plans, resolves, admits, executes one SQL line and writes rows plus
  /// the status line.
  void RunQuery(const std::string& sql, LineChannel* channel);

  /// Executes an admitted query with its context live for shutdown
  /// cancellation.  The memory grant (`ticket`) and the registration end
  /// when execution does — not after the reply is written.
  Result<QueryRun> ExecuteAdmitted(PreparedQuery prepared, ExecContext& ctx,
                                   AdmissionTicket ticket);

  SharedEngine* engine_;
  const int64_t session_id_;

  // Per-session execution knobs (the shell's \set/\mem/\threads, plus
  // \reopt for mid-query re-optimization).
  std::map<std::string, int64_t> bindings_;
  double memory_pages_;
  int32_t threads_ = 1;
  bool reopt_enabled_ = false;
  double reopt_slack_ = 2.0;

  /// Trace track for this session (0 when tracing is off).
  int64_t trace_track_ = 0;
  obs::CellHandle queries_counter_;
  obs::HistogramHandle latency_histogram_;
  /// This session's `\top` row, registered with the engine for the
  /// connection's lifetime.
  SessionInfo info_;
};

}  // namespace server
}  // namespace dqep

#endif  // DQEP_SERVER_SESSION_H_
