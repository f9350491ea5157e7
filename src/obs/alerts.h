// SLO burn-rate alerting: multi-window error-budget tracking against a
// latency objective, per server and per template.
//
// The objective is "`slo_target` of queries finish within `slo_seconds`"
// (e.g. 99% under 50ms).  Every completed query is classified good/bad
// and folded into two sliding windows — a fast window (~1 minute) that
// reacts to spikes, and a slow window (~10 minutes) that confirms them.
// The burn rate of a window is
//
//     burn = (bad / total) / (1 - slo_target)
//
// i.e. how many times faster than "exactly on budget" the error budget
// is being consumed: 1.0 burns the whole budget over the SLO period,
// 0 means no errors.  An alert *fires* when BOTH windows reach the fire
// threshold (the fast window alone is noisy; the slow window alone is
// sluggish — requiring both is the standard multi-window burn-rate
// recipe), and *resolves* once the fast window falls to the resolve
// threshold (hysteresis: resolve < fire, so the alert does not flap on
// a burn rate hovering at the boundary).
//
// Alerts are tracked for the server as a whole (scope "server") and for
// each template fingerprint the server's template table still holds
// (scope "template:0x<fp>").  Transitions are delivered through an
// optional hook — the server forwards them to the flight recorder — and
// the current state is exported as
// `dqep_slo_burn_rate{scope=...,window=...}` gauges plus
// `dqep_slo_alert_firing{scope=...}`.
//
// Determinism: the clock is injected (steady_clock by default), so
// tests drive window expiry explicitly.
//
// Thread-safety: template scopes live under the lock of the server's
// obs::TemplateTable; one mutex, taken inside that lock and never around
// it, guards the server scope.  The hook is invoked OUTSIDE every lock
// (it may itself take locks, e.g. the flight recorder's).

#ifndef DQEP_OBS_ALERTS_H_
#define DQEP_OBS_ALERTS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/template_table.h"

namespace dqep {
namespace obs {

struct SloBurnOptions {
  /// Latency objective in seconds; <= 0 disables the tracker (Fold
  /// becomes a no-op).
  double slo_seconds = 0.0;

  /// Fraction of queries that must meet the objective (0 < target < 1).
  double slo_target = 0.99;

  /// Window lengths in seconds.
  double fast_window_seconds = 60.0;
  double slow_window_seconds = 600.0;

  /// Fire when BOTH windows' burn rates reach this.
  double fire_burn_rate = 1.0;

  /// Resolve once the fast window's burn rate falls to this (must be
  /// below fire_burn_rate for hysteresis).
  double resolve_burn_rate = 0.5;

  /// Minimum samples in the fast window before it can vote to fire —
  /// one bad query out of one total is burn 100/1, not an outage.
  int64_t min_window_samples = 5;

  /// Injected clock returning seconds (monotonic).  Null uses
  /// std::chrono::steady_clock.
  std::function<double()> clock;
};

/// Current state of one scope, as returned by snapshots and delivered
/// to the alert hook on a fire/resolve transition.
struct SloScopeView {
  std::string scope;  ///< "server" or "template:0x<fp>"
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  bool firing = false;
  int64_t fast_total = 0;
  int64_t fast_bad = 0;
  int64_t slow_total = 0;
  int64_t slow_bad = 0;
};
using SloAlertEvent = SloScopeView;

class SloBurnTracker {
 public:
  using AlertHook = std::function<void(const SloAlertEvent&)>;

  /// Template scopes live in `templates`, the server scope here.  `hook`
  /// (nullable) is invoked on each fire/resolve transition.
  SloBurnTracker(SloBurnOptions options, TemplateTable* templates,
                 AlertHook hook = nullptr);

  SloBurnTracker(const SloBurnTracker&) = delete;
  SloBurnTracker& operator=(const SloBurnTracker&) = delete;

  bool enabled() const { return options_.slo_seconds > 0.0; }

  /// Folds one completed query (total wall seconds) into the server
  /// scope and its template's scope in `facts`, appending any transition
  /// to `events`.  Caller holds the table's lock (TemplateTable::Touch).
  void Fold(uint64_t fingerprint, TemplateFacts* facts, double seconds,
            std::vector<SloAlertEvent>* events);
  /// Hands Fold's `events` to the hook; call outside every lock.
  void Deliver(const std::vector<SloAlertEvent>& events) const {
    for (const SloAlertEvent& event : events) {
      if (hook_) {
        hook_(event);
      }
    }
  }

  /// Every scope's current state (windows pruned to now), server first
  /// then templates by fingerprint.
  std::vector<SloScopeView> Snapshot() const;

  /// `\alerts`: human-readable state of every scope plus options.
  std::string RenderText() const;

  /// Prometheus text-format families:
  /// `dqep_slo_burn_rate{scope=...,window="fast"|"slow"}` and
  /// `dqep_slo_alert_firing{scope=...}` gauges, plus
  /// `dqep_slo_alerts_fired_total` / `dqep_slo_alerts_resolved_total`
  /// counters.
  std::string RenderPrometheus() const;

  int64_t alerts_fired() const { return fired_.load(); }
  int64_t alerts_resolved() const { return resolved_.load(); }

 private:
  double Now() const;
  double BurnOf(const SloWindow& window) const;
  /// Folds one sample into `scope`; true on a fire/resolve transition.
  bool FoldScope(SloScope* scope, double now, bool bad);
  SloScopeView ViewOf(std::string name, const SloScope& scope,
                      double now) const;

  const SloBurnOptions options_;
  TemplateTable* const templates_;
  const AlertHook hook_;
  mutable std::mutex mutex_;  ///< guards server_
  SloScope server_;
  std::atomic<int64_t> fired_{0};
  std::atomic<int64_t> resolved_{0};
};

/// Formats a template scope name ("template:0x<16-hex-fp>").
std::string SloTemplateScope(uint64_t fingerprint);

}  // namespace obs
}  // namespace dqep

#endif  // DQEP_OBS_ALERTS_H_
