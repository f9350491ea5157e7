#include "server/admission.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <optional>

#include "obs/querylog.h"

namespace dqep {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

const char* AdmitOutcomeName(AdmitOutcome outcome) {
  switch (outcome) {
    case AdmitOutcome::kAdmitted:
      return "admitted";
    case AdmitOutcome::kTimeout:
      return "timeout";
    case AdmitOutcome::kTooLarge:
      return "too-large";
    case AdmitOutcome::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// MemoryGrantPool

MemoryGrantPool::MemoryGrantPool(int64_t total_pages)
    : total_pages_(total_pages),
      available_(total_pages),
      in_use_gauge_(
          obs::MetricsRegistry::Instance().NewGauge("server.pool.pages_in_use")),
      peak_gauge_(obs::MetricsRegistry::Instance().NewGaugeMax(
          "server.pool.peak_pages")),
      admission_peak_gauge_(obs::MetricsRegistry::Instance().NewGaugeMax(
          "server.admission.pool_peak_pages")),
      queued_counter_(
          obs::MetricsRegistry::Instance().NewCounter("server.pool.queued")),
      queue_depth_gauge_(obs::MetricsRegistry::Instance().NewGauge(
          "server.admission.queue_depth")),
      queue_wait_histogram_(obs::MetricsRegistry::Instance().NewHistogram(
          "server.admission.queue_wait_us")) {
  DQEP_CHECK(total_pages_ > 0);
}

AdmitOutcome MemoryGrantPool::Acquire(int64_t pages,
                                      std::chrono::milliseconds timeout) {
  if (pages <= 0) {
    return AdmitOutcome::kAdmitted;
  }
  if (pages > total_pages_) {
    return AdmitOutcome::kTooLarge;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) {
    return AdmitOutcome::kShutdown;
  }
  // Fast path: the pool has room AND nobody is queued ahead of us (an
  // empty waiter queue keeps FIFO exact — a small newcomer must not leap
  // over a large query already waiting for pages to free up).
  if (waiters_.empty() && pages <= available_) {
    available_ -= pages;
    in_use_gauge_.Set(total_pages_ - available_);
    peak_gauge_.RecordMax(total_pages_ - available_);
    admission_peak_gauge_.RecordMax(total_pages_ - available_);
    return AdmitOutcome::kAdmitted;
  }
  const uint64_t ticket = next_ticket_++;
  waiters_.push_back(ticket);
  ++queued_total_;
  queued_counter_.Add(1);
  queue_depth_gauge_.Set(static_cast<int64_t>(waiters_.size()));
  const auto queued_at = Clock::now();
  const auto deadline = queued_at + timeout;
  for (;;) {
    const bool at_front = !waiters_.empty() && waiters_.front() == ticket;
    if (shutdown_ || (at_front && pages <= available_)) {
      break;
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  // Whatever happened, leave the queue (erase is O(queue) but queues are
  // short — bounded by session count).
  auto it = std::find(waiters_.begin(), waiters_.end(), ticket);
  const bool was_front = it == waiters_.begin();
  if (it != waiters_.end()) {
    waiters_.erase(it);
  }
  queue_depth_gauge_.Set(static_cast<int64_t>(waiters_.size()));
  queue_wait_histogram_.Record(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            queued_at)
          .count());
  if (shutdown_) {
    cv_.notify_all();
    return AdmitOutcome::kShutdown;
  }
  if (waiters_.empty() || was_front) {
    // Our departure may unblock the new front (grant or timeout alike).
    cv_.notify_all();
  }
  if (pages <= available_ && was_front) {
    available_ -= pages;
    in_use_gauge_.Set(total_pages_ - available_);
    peak_gauge_.RecordMax(total_pages_ - available_);
    admission_peak_gauge_.RecordMax(total_pages_ - available_);
    return AdmitOutcome::kAdmitted;
  }
  return AdmitOutcome::kTimeout;
}

void MemoryGrantPool::Release(int64_t pages) {
  if (pages <= 0) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    available_ += pages;
    DQEP_CHECK(available_ <= total_pages_);
    in_use_gauge_.Set(total_pages_ - available_);
  }
  cv_.notify_all();
}

void MemoryGrantPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

int64_t MemoryGrantPool::available_pages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return available_;
}

int64_t MemoryGrantPool::peak_granted_pages() const {
  return peak_gauge_.value();
}

int64_t MemoryGrantPool::queued_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_total_;
}

int64_t MemoryGrantPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(waiters_.size());
}

// ---------------------------------------------------------------------------
// CostThrottle

CostThrottle::CostThrottle(double rate_seconds_per_second,
                           double burst_seconds, bool adaptive)
    : rate_(rate_seconds_per_second),
      burst_(burst_seconds > 0.0 ? burst_seconds : 0.0),
      adaptive_(adaptive),
      tokens_(burst_),
      last_refill_(Clock::now()),
      throttled_counter_(obs::MetricsRegistry::Instance().NewCounter(
          "server.throttle.delayed")) {}

void CostThrottle::RefillLocked() {
  const auto now = Clock::now();
  const double elapsed =
      std::chrono::duration<double>(now - last_refill_).count();
  last_refill_ = now;
  tokens_ = std::min(burst_, tokens_ + elapsed * RateLocked());
}

void CostThrottle::RecordCompletion(double measured_seconds) {
  RecordCompletionAt(measured_seconds, Clock::now());
}

void CostThrottle::RecordCompletionAt(double measured_seconds,
                                      Clock::time_point now) {
  if (!enabled() || !adaptive_ || measured_seconds < 0.0) {
    return;
  }
  bool below;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Settle the bucket under the outgoing rate before it changes.
    RefillLocked();
    completions_.emplace_back(now, measured_seconds);
    const auto horizon =
        now - std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(kWindowSeconds));
    double window_work = 0.0;
    while (!completions_.empty() && completions_.front().first < horizon) {
      completions_.pop_front();
    }
    for (const auto& [when, seconds] : completions_) {
      window_work += seconds;
    }
    const double throughput = window_work / kWindowSeconds;
    if (have_throughput_) {
      throughput_ewma_ += kThroughputAlpha * (throughput - throughput_ewma_);
    } else {
      throughput_ewma_ = throughput;
      have_throughput_ = true;
    }
    adaptive_rate_ = std::min(
        rate_, std::max(kMinRateFraction * rate_,
                        throughput_ewma_ * kHeadroom));
    below = tokens_ <= 0.0;
  }
  if (below) {
    // A faster rate shortens the debt-payoff sleep of queued waiters.
    cv_.notify_all();
  }
}

double CostThrottle::effective_rate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return RateLocked();
}

AdmitOutcome CostThrottle::Acquire(double cost_seconds,
                                   std::chrono::milliseconds timeout) {
  if (!enabled() || cost_seconds <= 0.0) {
    return AdmitOutcome::kAdmitted;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  const auto deadline = Clock::now() + timeout;
  bool delayed = false;
  for (;;) {
    if (shutdown_) {
      return AdmitOutcome::kShutdown;
    }
    RefillLocked();
    // Admit whenever the bucket is positive and charge the full cost,
    // possibly driving it into debt — an expensive query is never blocked
    // outright, it just makes everyone after it wait while the debt
    // refills (the quota-tracker idiom).
    if (tokens_ > 0.0) {
      tokens_ -= cost_seconds;
      return AdmitOutcome::kAdmitted;
    }
    if (delayed == false) {
      delayed = true;
      throttled_counter_.Add(1);
    }
    // Sleep until the debt should be paid off (or the deadline).
    const double wait_seconds = -tokens_ / RateLocked();
    auto wake = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(wait_seconds));
    if (wake > deadline) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
        // Re-check once: the clock may have drifted past solvency.
        RefillLocked();
        if (!shutdown_ && tokens_ > 0.0) {
          tokens_ -= cost_seconds;
          return AdmitOutcome::kAdmitted;
        }
        return shutdown_ ? AdmitOutcome::kShutdown : AdmitOutcome::kTimeout;
      }
    } else {
      cv_.wait_until(lock, wake);
    }
  }
}

void CostThrottle::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
}

double CostThrottle::tokens() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - last_refill_).count();
  return std::min(burst_, tokens_ + elapsed * RateLocked());
}

// ---------------------------------------------------------------------------
// AdmissionController

AdmissionTicket& AdmissionTicket::operator=(AdmissionTicket&& other) noexcept {
  if (this != &other) {
    if (controller_ != nullptr) {
      controller_->ReleaseTicket(pages_);
    }
    controller_ = other.controller_;
    pages_ = other.pages_;
    other.controller_ = nullptr;
    other.pages_ = 0;
  }
  return *this;
}

AdmissionTicket::~AdmissionTicket() {
  if (controller_ != nullptr) {
    controller_->ReleaseTicket(pages_);
  }
}

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config),
      pool_(config.pool_pages > 0
                ? std::make_unique<MemoryGrantPool>(config.pool_pages)
                : nullptr),
      throttle_(config.throttle_rate, config.throttle_burst,
                config.adaptive_throttle),
      admitted_counter_(obs::MetricsRegistry::Instance().NewCounter(
          "server.admission.admitted")),
      rejected_counter_(obs::MetricsRegistry::Instance().NewCounter(
          "server.admission.rejected")),
      wait_histogram_(obs::MetricsRegistry::Instance().NewHistogram(
          "server.admission.wait_us")) {}

AdmitResult AdmissionController::Admit(uint64_t fingerprint, int64_t pages,
                                       double predicted_seconds) {
  const auto timeout = std::chrono::milliseconds(
      config_.timeout_ms > 0 ? config_.timeout_ms : 0);
  const auto start = Clock::now();
  AdmitResult result;

  // Memory first: holding pages while waiting on the throttle is fine
  // (pages are the scarcer, deadlock-prone resource; acquiring them in
  // one global FIFO order keeps the pool convoy-free), whereas holding
  // throttle debt while queued for pages would charge for work not yet
  // admitted.
  if (pool_ != nullptr) {
    result.outcome = pool_->Acquire(pages, timeout);
    if (result.outcome != AdmitOutcome::kAdmitted) {
      rejected_counter_.Add(1);
      char buf[160];
      if (result.outcome == AdmitOutcome::kTooLarge) {
        std::snprintf(buf, sizeof(buf),
                      "memory grant %" PRId64
                      " pages exceeds server pool of %" PRId64 " pages",
                      pages, pool_->total_pages());
      } else if (result.outcome == AdmitOutcome::kTimeout) {
        std::snprintf(buf, sizeof(buf),
                      "admission timeout after %" PRId64
                      " ms waiting for %" PRId64 " pages",
                      config_.timeout_ms, pages);
      } else {
        std::snprintf(buf, sizeof(buf), "server shutting down");
      }
      result.message = buf;
      return result;
    }
  }

  // Only an enabled throttle (off by default) needs the template's cost.
  if (throttle_.enabled()) {
    result.outcome = throttle_.Acquire(
        EstimateSeconds(fingerprint, predicted_seconds), timeout);
  }
  if (result.outcome != AdmitOutcome::kAdmitted) {
    if (pool_ != nullptr) {
      pool_->Release(pages);
    }
    rejected_counter_.Add(1);
    result.message = result.outcome == AdmitOutcome::kShutdown
                         ? "server shutting down"
                         : "admission timeout: query-cost throttle saturated";
    return result;
  }

  admitted_counter_.Add(1);
  wait_histogram_.Record(std::chrono::duration_cast<std::chrono::microseconds>(
                             Clock::now() - start)
                             .count());
  result.ticket = AdmissionTicket(this, pool_ != nullptr ? pages : 0);
  return result;
}

void AdmissionController::RecordExecution(uint64_t fingerprint,
                                          double measured_seconds) {
  templates_.Touch(fingerprint, [&](obs::TemplateFacts& facts) {
    FoldCost(&facts, measured_seconds);
  });
  throttle_.RecordCompletion(measured_seconds);
}

void AdmissionController::FoldCost(obs::TemplateFacts* facts,
                                   double measured_seconds) {
  static constexpr double kAlpha = 0.3;  // EWMA smoothing factor
  if (measured_seconds < 0.0) {
    return;
  }
  std::optional<double>& cost = facts->cost_seconds;
  cost = cost ? *cost + kAlpha * (measured_seconds - *cost)
              : measured_seconds;
}

double AdmissionController::EstimateSeconds(uint64_t fingerprint,
                                            double fallback) const {
  double estimate = fallback;
  templates_.Find(fingerprint, [&](const obs::TemplateFacts& facts) {
    estimate = facts.cost_seconds.value_or(fallback);
  });
  return estimate;
}

int64_t AdmissionController::SeedFromLog(const std::string& path) {
  auto records = obs::LoadQueryLog(path);
  if (!records.ok()) {
    return 0;
  }
  int64_t folded = 0;
  for (const obs::QueryRecord& record : *records) {
    // v3 lines carry the execution wall the live EWMA folds; older ones
    // only the root operator's.
    const double seconds = record.exec_seconds > 0.0 ? record.exec_seconds
                                                     : record.actual_seconds;
    if (record.query_hash == 0 || seconds <= 0.0) {
      continue;
    }
    templates_.Touch(record.query_hash, [&](obs::TemplateFacts& facts) {
      FoldCost(&facts, seconds);
    });
    ++folded;
  }
  return folded;
}

void AdmissionController::Shutdown() {
  if (pool_ != nullptr) {
    pool_->Shutdown();
  }
  throttle_.Shutdown();
}

void AdmissionController::ReleaseTicket(int64_t pages) {
  if (pool_ != nullptr) {
    pool_->Release(pages);
  }
}

}  // namespace server
}  // namespace dqep
