// dqep_server — the long-lived multi-session query server.
//
// One process hosts the whole engine exactly once — catalog, database,
// buffer pool, cost model (with an optional calibration profile applied
// before anything is compiled), a DynamicPlanCache owned by the server
// (so embedding tests and benches get independent caches), the
// admission controller, the query log, and an optional trace session —
// and serves N concurrent client connections over a unix-domain socket
// (plus an optional loopback TCP port) speaking the line protocol of
// server/protocol.h.  Without a socket path the server has no listener
// at all and serves only descriptors handed to Attach(): dqep_cli's
// embedded shell is such a server with one session, connected over a
// socketpair, so the shell and the server share one command interpreter
// (server/session.h).
//
// Threading model: the caller's thread runs the accept loop (Serve());
// `sessions` worker threads pop accepted (or attached) connections from
// a dispatch queue, so at most `sessions` queries execute concurrently
// and extra connections queue at the dispatcher.  On this engine
// intra-query parallelism is per-session (\threads), so the worker count
// is the inter-query concurrency limit.
//
// Shutdown: SIGINT/SIGTERM (via InstallSignalHandlers' self-pipe — the
// handler only writes one byte, everything real happens on the accept
// thread), a programmatic Shutdown() from any thread, or destruction.
// The drain sequence: mark draining -> wake admission waiters (queued
// queries get "@err admission: server shutting down") -> cancel every
// in-flight ExecContext (drain loops cut the query short; the session
// answers "@err cancelled ...") -> shut down every connection socket
// (unblocks readers) -> join workers -> flush and close the query log ->
// unlink the socket -> Serve() returns 0.

#ifndef DQEP_SERVER_SERVER_H_
#define DQEP_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "obs/querylog.h"
#include "obs/trace.h"
#include "runtime/plan_cache.h"
#include "server/admission.h"
#include "server/session.h"
#include "workload/paper_workload.h"

namespace dqep {
namespace server {

struct ServerOptions {
  /// Unix-domain socket to listen on (a stale file is replaced); empty
  /// means no listener, connections arrive only through Attach().  Keep
  /// it short: sun_path caps at ~107 bytes.
  std::string socket_path;
  /// Loopback TCP port to also listen on; 0 disables TCP.
  int tcp_port = 0;
  /// Worker sessions == max concurrently executing queries.
  int sessions = 4;
  /// Global memory-grant pool in pages (0: unlimited).
  int64_t pool_pages = 0;
  /// Default per-session memory grant in pages (\mem overrides).
  double session_memory_pages = 64.0;
  /// Admission queue wait budget before polite rejection.
  int64_t admission_timeout_ms = 5000;
  /// Cost-throttle refill (seconds-of-work per wall second; 0: off).
  double throttle_rate = 0.0;
  double throttle_burst = 1.0;
  /// Adapt the throttle rate to measured throughput (EWMA over a sliding
  /// window of completed queries), with throttle_rate as the ceiling.
  bool adaptive_throttle = false;
  /// Default per-session mid-query re-optimization setting (\reopt
  /// overrides) and its cardinality slack.
  bool reopt = false;
  double reopt_slack = 2.0;
  /// Shared plan-cache capacity in entries (0: caching off).
  size_t plan_cache_capacity = DynamicPlanCache::kDefaultCapacity;
  /// JSONL query log path ("" : off).  Also seeds the admission cost
  /// table with measured seconds from previous runs.
  std::string query_log_path;
  /// Chrome-trace output path ("" : off); written at shutdown.
  std::string trace_path;
  /// Calibration profile (calibration.json, "" : none) applied to the
  /// cost model before the first query is compiled.
  std::string cost_profile_path;
  /// Workload seed (the paper database R1..R10).
  uint64_t workload_seed = 42;
  /// Telemetry exposition port on 127.0.0.1: 0 binds an ephemeral port
  /// (metrics_port() reports it), < 0 disables the endpoint.
  int metrics_port = -1;
  /// Slow-query threshold in milliseconds for the flight recorder
  /// (<= 0: rolling template-p99 rule only).
  double slow_query_ms = 0.0;
  /// Spool directory for slow-query bundles ("" : flag in the ring only).
  std::string slow_spool_dir;
  /// Retain at most this many slow-query bundles (0: unbounded).
  size_t slow_spool_max = 0;
  /// Flight-recorder ring capacity (0 disables the recorder entirely).
  size_t flight_recorder_capacity = 64;
  /// Latency SLO in milliseconds; > 0 enables burn-rate alerting (the
  /// objective: `slo_target` of queries answer within this).
  double slo_ms = 0.0;
  /// Fraction of queries that must meet the SLO (0 < target < 1).
  double slo_target = 0.99;
};

/// Outcome of ParseSharedFlag.
enum class FlagParse { kNotShared, kParsed, kError };

/// Parses `arg` when it is one of the flags dqep_server and dqep_cli's
/// embedded shell share (--memory-pages, --plan-cache, --reopt,
/// --reopt-slack, --query-log, --trace-out, --cost-profile) into
/// `options`; on kError, `error` says why.
FlagParse ParseSharedFlag(const char* arg, ServerOptions* options,
                          std::string* error);

/// Applies $DQEP_QUERY_LOG when no --query-log flag set the path.
void ApplyQueryLogDefault(ServerOptions* options);

/// --help lines of the shared flags.
extern const char kSharedFlagsHelp[];

class DqepServer {
 public:
  explicit DqepServer(ServerOptions options);
  ~DqepServer();

  DqepServer(const DqepServer&) = delete;
  DqepServer& operator=(const DqepServer&) = delete;

  /// Builds the engine, binds the sockets (if any), starts the workers.
  /// Returns false with `error` set on any failure (nothing is left
  /// running).
  bool Start(std::string* error);

  /// Serves an already connected descriptor (one end of a socketpair,
  /// say) as a new session: it joins the dispatch queue accepted
  /// connections use.  Takes ownership of `fd`.  Call after Start().
  void Attach(int fd);

  /// Accept loop; blocks until Shutdown (signal or call).  Returns the
  /// process exit code (0 on a clean drain).
  int Serve();

  /// Initiates the drain from any thread; idempotent.  Serve() performs
  /// the actual teardown and returns.
  void Shutdown();

  /// Routes SIGINT/SIGTERM to `server`->Shutdown() via a self-pipe and
  /// ignores SIGPIPE.  Call after Start(), before Serve().  One server
  /// per process may install handlers.
  static void InstallSignalHandlers(DqepServer* server);

  const ServerOptions& options() const { return options_; }
  SharedEngine* engine() { return &engine_; }
  AdmissionController* admission() { return admission_.get(); }
  DynamicPlanCache* plan_cache() { return &plan_cache_; }
  obs::FlightRecorder* flight_recorder() { return flight_.get(); }
  obs::SloBurnTracker* slo_tracker() { return slo_.get(); }
  /// The bound telemetry port (resolves an ephemeral request); 0 when
  /// the endpoint is off.
  int metrics_port() const { return exporter_.port(); }

 private:
  /// Accepts one ready connection and enqueues it for a worker.
  void AcceptOne(int listen_fd);
  void WorkerLoop();
  /// The post-loop drain (see header comment).
  void Teardown();

  ServerOptions options_;
  std::unique_ptr<PaperWorkload> workload_;
  /// Workload constants with the calibration profile applied, and the
  /// base model over them (the histogram model is SharedEngine's).
  SystemConfig config_;
  std::unique_ptr<CostModel> model_;
  DynamicPlanCache plan_cache_;
  std::unique_ptr<AdmissionController> admission_;
  obs::QueryLogWriter query_log_;
  std::unique_ptr<obs::TraceSession> trace_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::CalibrationDriftMonitor> drift_;
  std::unique_ptr<obs::SloBurnTracker> slo_;
  obs::MetricsExporter exporter_;
  SharedEngine engine_;

  int listen_unix_fd_ = -1;
  int listen_tcp_fd_ = -1;
  /// Shutdown self-pipe: [0] polled by Serve, [1] written by Shutdown
  /// and the signal handler.
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> started_{false};

  /// Dispatch queue of accepted, not-yet-served connection fds.
  std::mutex dispatch_mutex_;
  std::condition_variable dispatch_cv_;
  std::deque<int> pending_fds_;
  std::vector<std::thread> workers_;

  /// Live connections, for shutdown(2) during the drain.
  std::mutex conn_mutex_;
  std::set<LineChannel*> connections_;

  std::atomic<int64_t> next_session_id_{0};
};

}  // namespace server
}  // namespace dqep

#endif  // DQEP_SERVER_SERVER_H_
