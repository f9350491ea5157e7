// Admission control for the multi-session query server.
//
// Two gates stand between an arriving query and execution:
//
//   1. MemoryGrantPool — the global side of the per-query memory grant.
//      Every session's ExecContext budget (runtime/startup.h
//      MakeExecContext) is priced and enforced per query; the pool makes
//      the *sum* of concurrent grants respect one process-wide limit.
//      Queries whose grant does not fit queue FIFO (strict arrival order,
//      head-of-line by design: a large query cannot be starved by a
//      stream of small ones) and are politely rejected after a timeout
//      instead of hanging.  Because every admitted query's tracked peak
//      stays within its own grant (exec/exec_context.h: zero forced
//      overflows => peak <= budget), the sum of concurrent tracked bytes
//      stays within the pool by construction.
//
//   2. CostThrottle — a token-bucket over *seconds of execution*, the
//      quota idiom of ydb's persqueue quota tracker: the bucket refills
//      at `rate` seconds-of-work per wall second up to `burst`; each
//      admitted query debits its estimated cost and may drive the bucket
//      negative (debt), so an expensive template delays subsequent
//      admissions in proportion to what it actually costs the fleet
//      rather than blocking outright.  Estimates come from measured
//      seconds (a per-template EWMA, seeded from a persisted query log
//      and updated after every execution), falling back to the
//      optimizer's predicted cost for templates never executed or
//      evicted from the template table.
//
// AdmissionController composes the two behind one Admit() returning an
// RAII ticket; releasing the ticket returns the memory grant (cost
// tokens are consumed, not returned — they meter work performed).  It
// also owns the server's obs::TemplateTable: the cost EWMA is each
// entry's `cost_seconds`, and the server hands the same table to the
// flight recorder, the drift monitor and the SLO tracker.
// Everything here is thread-safe and Shutdown() wakes every waiter so a
// draining server never strands a queued query.

#ifndef DQEP_SERVER_ADMISSION_H_
#define DQEP_SERVER_ADMISSION_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>

#include <condition_variable>

#include "obs/metrics.h"
#include "obs/template_table.h"

namespace dqep {
namespace server {

/// Why an admission attempt did not produce a grant.
enum class AdmitOutcome {
  kAdmitted,
  kTimeout,   ///< queued past the deadline — polite rejection
  kTooLarge,  ///< the ask exceeds the whole pool and can never fit
  kShutdown,  ///< the server is draining
};

const char* AdmitOutcomeName(AdmitOutcome outcome);

/// Global memory-grant pool (pages).  See the header comment.
class MemoryGrantPool {
 public:
  explicit MemoryGrantPool(int64_t total_pages);

  MemoryGrantPool(const MemoryGrantPool&) = delete;
  MemoryGrantPool& operator=(const MemoryGrantPool&) = delete;

  /// Blocks until `pages` can be granted in FIFO order, the deadline
  /// passes, or Shutdown.  A zero/negative page ask admits immediately
  /// (unbounded queries are not the pool's business).
  AdmitOutcome Acquire(int64_t pages, std::chrono::milliseconds timeout);

  /// Returns a grant taken by Acquire.
  void Release(int64_t pages);

  /// Wakes every queued waiter with kShutdown; later Acquires fail fast.
  void Shutdown();

  int64_t total_pages() const { return total_pages_; }
  int64_t available_pages() const;
  /// High-water mark of concurrently granted pages.
  int64_t peak_granted_pages() const;
  /// Acquires that had to queue (the pool was exhausted on arrival).
  int64_t queued_total() const;
  /// Waiters queued right now.
  int64_t queue_depth() const;

 private:
  const int64_t total_pages_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  int64_t available_;
  /// FIFO queue of waiter tickets; only the front may be granted.
  std::deque<uint64_t> waiters_;
  uint64_t next_ticket_ = 0;
  bool shutdown_ = false;
  int64_t queued_total_ = 0;
  obs::CellHandle in_use_gauge_;
  obs::CellHandle peak_gauge_;
  /// Same watermark under the admission namespace, where the exposition
  /// endpoint and `\top` surface it ("server.admission.pool_peak_pages").
  obs::CellHandle admission_peak_gauge_;
  obs::CellHandle queued_counter_;
  obs::CellHandle queue_depth_gauge_;
  /// Wall microseconds a queued Acquire spent waiting (granted, timed
  /// out, or shut down alike — the wait is real either way); exported as
  /// the "server.admission.queue_wait_seconds" histogram.
  obs::HistogramHandle queue_wait_histogram_;
};

/// Token bucket over estimated seconds of work (see header comment).
/// rate <= 0 disables the throttle (every Acquire admits instantly).
///
/// Adaptive mode (PR 7 headroom): the configured rate was a static guess
/// at how many seconds of work the server completes per wall second.
/// With `adaptive` set, the refill rate instead tracks *measured*
/// throughput: RecordCompletion folds each finished query's seconds into
/// a sliding window, the window's throughput feeds an EWMA, and the
/// effective rate becomes clamp(EWMA * headroom, 0.1 * rate, rate).  The
/// configured rate is thereby a ceiling, never exceeded — a saturated
/// server admits less, an idle one recovers toward the configured rate.
class CostThrottle {
 public:
  CostThrottle(double rate_seconds_per_second, double burst_seconds,
               bool adaptive = false);

  CostThrottle(const CostThrottle&) = delete;
  CostThrottle& operator=(const CostThrottle&) = delete;

  AdmitOutcome Acquire(double cost_seconds,
                       std::chrono::milliseconds timeout);

  /// Adaptive mode: folds one finished query's measured seconds into the
  /// throughput window and recomputes the effective rate.  No-op when
  /// adaptive is off or the throttle is disabled.
  void RecordCompletion(double measured_seconds);
  /// Deterministic variant for tests: `now` stands in for the wall clock.
  void RecordCompletionAt(double measured_seconds,
                          std::chrono::steady_clock::time_point now);

  void Shutdown();

  bool enabled() const { return rate_ > 0.0; }
  bool adaptive() const { return adaptive_; }
  /// The refill rate currently in effect (== configured rate until the
  /// adaptive EWMA has a measurement).
  double effective_rate() const;
  /// Current token level in seconds (refilled to now); may be negative.
  double tokens() const;

 private:
  /// Throughput window / smoothing constants for adaptive mode.
  static constexpr double kWindowSeconds = 10.0;
  static constexpr double kThroughputAlpha = 0.4;
  static constexpr double kHeadroom = 1.2;
  static constexpr double kMinRateFraction = 0.1;

  /// Refills tokens_ up to now; callers hold mutex_.
  void RefillLocked();
  /// The rate in effect; callers hold mutex_.
  double RateLocked() const {
    return adaptive_ && have_throughput_ ? adaptive_rate_ : rate_;
  }

  const double rate_;
  const double burst_;
  const bool adaptive_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  double tokens_;
  std::chrono::steady_clock::time_point last_refill_;
  bool shutdown_ = false;
  /// Adaptive state: completions inside the sliding window, the EWMA of
  /// window throughput, and the clamped rate derived from it.
  std::deque<std::pair<std::chrono::steady_clock::time_point, double>>
      completions_;
  double throughput_ewma_ = 0.0;
  bool have_throughput_ = false;
  double adaptive_rate_ = 0.0;
  obs::CellHandle throttled_counter_;
};

struct AdmissionConfig {
  /// Global memory-grant pool in pages (<= 0: unlimited pool).
  int64_t pool_pages = 0;
  /// Queue wait budget before polite rejection.
  int64_t timeout_ms = 5000;
  /// Token-bucket refill in seconds-of-work per wall second (0: off).
  double throttle_rate = 0.0;
  /// Token-bucket capacity in seconds of work.
  double throttle_burst = 1.0;
  /// Adapt the refill rate to measured server throughput (EWMA over a
  /// sliding window of completions), with throttle_rate as the ceiling.
  bool adaptive_throttle = false;
};

class AdmissionController;

/// RAII admission grant: releases the memory pages on destruction.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  AdmissionTicket(AdmissionTicket&& other) noexcept { *this = std::move(other); }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept;
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;
  ~AdmissionTicket();

  bool admitted() const { return controller_ != nullptr; }

 private:
  friend class AdmissionController;
  AdmissionTicket(AdmissionController* controller, int64_t pages)
      : controller_(controller), pages_(pages) {}

  AdmissionController* controller_ = nullptr;
  int64_t pages_ = 0;
};

/// One admission attempt's result: a ticket on success, the reason (and
/// a rendered message for the protocol error) otherwise.
struct AdmitResult {
  AdmitOutcome outcome = AdmitOutcome::kAdmitted;
  AdmissionTicket ticket;
  std::string message;  ///< human-readable rejection reason
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Admits one query asking for `pages` of memory whose template is
  /// `fingerprint`.  `predicted_seconds` is the optimizer's estimate,
  /// used only until the template has measured history.  Queue order is
  /// FIFO; rejection after config.timeout_ms.
  AdmitResult Admit(uint64_t fingerprint, int64_t pages,
                    double predicted_seconds);

  /// Folds a finished query's measured seconds into its template's cost
  /// EWMA and, in adaptive mode, the throttle's throughput window.
  void RecordExecution(uint64_t fingerprint, double measured_seconds);

  /// RecordExecution's cost fold, for a caller holding the table's lock.
  static void FoldCost(obs::TemplateFacts* facts, double measured_seconds);

  /// The template's cost EWMA, or `fallback` (typically the optimizer's
  /// predicted cost) when it has never executed or has been evicted.
  double EstimateSeconds(uint64_t fingerprint, double fallback) const;

  /// Seeds cost EWMAs from a persisted query log's (query_hash,
  /// execution seconds) pairs so a restarted server throttles from
  /// history.  Returns the number of records folded in.
  int64_t SeedFromLog(const std::string& path);

  /// Wakes all waiters; subsequent Admits fail with kShutdown.
  void Shutdown();

  MemoryGrantPool* pool() { return pool_.get(); }  ///< null when unlimited
  CostThrottle& throttle() { return throttle_; }
  obs::TemplateTable& templates() { return templates_; }
  const AdmissionConfig& config() const { return config_; }

 private:
  friend class AdmissionTicket;
  void ReleaseTicket(int64_t pages);

  AdmissionConfig config_;
  std::unique_ptr<MemoryGrantPool> pool_;
  CostThrottle throttle_;
  obs::TemplateTable templates_;
  obs::CellHandle admitted_counter_;
  obs::CellHandle rejected_counter_;
  obs::HistogramHandle wait_histogram_;
};

}  // namespace server
}  // namespace dqep

#endif  // DQEP_SERVER_ADMISSION_H_
