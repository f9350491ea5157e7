#include "obs/alerts.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <tuple>
#include <utility>

namespace dqep {
namespace obs {

std::string SloTemplateScope(uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "template:0x%016" PRIx64, fingerprint);
  return buf;
}

namespace {

void Prune(SloWindow* w, double horizon) {
  while (!w->events.empty() && w->events.front().first < horizon) {
    if (w->events.front().second) {
      --w->bad;
    }
    w->events.pop_front();
  }
}

}  // namespace

SloBurnTracker::SloBurnTracker(SloBurnOptions options,
                               TemplateTable* templates, AlertHook hook)
    : options_(std::move(options)),
      templates_(templates),
      hook_(std::move(hook)) {}

double SloBurnTracker::Now() const {
  if (options_.clock) {
    return options_.clock();
  }
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SloBurnTracker::BurnOf(const SloWindow& w) const {
  if (w.events.empty()) {
    return 0.0;
  }
  double error_rate = static_cast<double>(w.bad) /
                      static_cast<double>(w.events.size());
  double budget = 1.0 - options_.slo_target;
  if (budget <= 0.0) {
    return error_rate > 0.0 ? 1e9 : 0.0;
  }
  return error_rate / budget;
}

bool SloBurnTracker::FoldScope(SloScope* scope, double now, bool bad) {
  const std::pair<SloWindow*, double> windows[] = {
      {&scope->fast, options_.fast_window_seconds},
      {&scope->slow, options_.slow_window_seconds}};
  for (auto [w, span] : windows) {
    w->events.emplace_back(now, bad);
    w->bad += bad ? 1 : 0;
    Prune(w, now - span);
  }
  const double fast = BurnOf(scope->fast);
  if (!scope->firing) {
    if (static_cast<int64_t>(scope->fast.events.size()) >=
            options_.min_window_samples &&
        fast >= options_.fire_burn_rate &&
        BurnOf(scope->slow) >= options_.fire_burn_rate) {
      scope->firing = true;
      ++fired_;
      return true;
    }
  } else if (fast <= options_.resolve_burn_rate) {
    scope->firing = false;
    ++resolved_;
    return true;
  }
  return false;
}

void SloBurnTracker::Fold(uint64_t fingerprint, TemplateFacts* facts,
                          double seconds,
                          std::vector<SloAlertEvent>* events) {
  if (!enabled()) {
    return;
  }
  const double now = Now();
  const bool bad = seconds > options_.slo_seconds;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (FoldScope(&server_, now, bad)) {
      events->push_back(ViewOf("server", server_, now));
    }
  }
  if (facts->slo == nullptr) {
    facts->slo = std::make_unique<SloScope>();
  }
  if (FoldScope(facts->slo.get(), now, bad)) {
    // The scope is named only for a transition, never per query.
    events->push_back(
        ViewOf(SloTemplateScope(fingerprint), *facts->slo, now));
  }
}

SloScopeView SloBurnTracker::ViewOf(std::string name, const SloScope& scope,
                                    double now) const {
  // Snapshot must not mutate (const); view a pruned copy of the windows
  // so burn rates reflect "now", not the last fold.
  SloWindow fast = scope.fast;
  SloWindow slow = scope.slow;
  Prune(&fast, now - options_.fast_window_seconds);
  Prune(&slow, now - options_.slow_window_seconds);
  return SloScopeView{std::move(name), BurnOf(fast), BurnOf(slow),
                      scope.firing, static_cast<int64_t>(fast.events.size()),
                      fast.bad, static_cast<int64_t>(slow.events.size()),
                      slow.bad};
}

std::vector<SloScopeView> SloBurnTracker::Snapshot() const {
  std::vector<SloScopeView> out;
  if (!enabled()) {
    return out;
  }
  const double now = Now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.push_back(ViewOf("server", server_, now));
  }
  templates_->ForEach([&](uint64_t fp, const TemplateFacts& facts) {
    if (facts.slo != nullptr) {
      out.push_back(ViewOf(SloTemplateScope(fp), *facts.slo, now));
    }
  });
  return out;
}

std::string SloBurnTracker::RenderText() const {
  if (!enabled()) {
    return "slo alerting: disabled (start the server with --slo-ms)\n";
  }
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "slo: %.3fms at %.4f (fast %.0fs / slow %.0fs, fire >= %.2f,"
                " resolve <= %.2f)\n",
                options_.slo_seconds * 1e3, options_.slo_target,
                options_.fast_window_seconds, options_.slow_window_seconds,
                options_.fire_burn_rate, options_.resolve_burn_rate);
  out += line;
  std::snprintf(line, sizeof(line),
                "alerts fired=%" PRId64 " resolved=%" PRId64 "\n",
                alerts_fired(), alerts_resolved());
  out += line;
  for (const SloScopeView& v : Snapshot()) {
    std::snprintf(line, sizeof(line),
                  "%-28s %s fast=%.3f (%" PRId64 "/%" PRId64
                  ") slow=%.3f (%" PRId64 "/%" PRId64 ")\n",
                  v.scope.c_str(), v.firing ? "FIRING " : "ok     ",
                  v.fast_burn, v.fast_bad, v.fast_total, v.slow_burn,
                  v.slow_bad, v.slow_total);
    out += line;
  }
  return out;
}

std::string SloBurnTracker::RenderPrometheus() const {
  if (!enabled()) {
    return std::string();
  }
  auto all = Snapshot();
  std::string out;
  char line[256];
  out += "# HELP dqep_slo_burn_rate Error-budget burn rate per scope and "
         "window (1.0 == exactly on budget).\n";
  out += "# TYPE dqep_slo_burn_rate gauge\n";
  for (const SloScopeView& v : all) {
    std::snprintf(line, sizeof(line),
                  "dqep_slo_burn_rate{scope=\"%s\",window=\"fast\"} %.9g\n"
                  "dqep_slo_burn_rate{scope=\"%s\",window=\"slow\"} %.9g\n",
                  v.scope.c_str(), v.fast_burn, v.scope.c_str(), v.slow_burn);
    out += line;
  }
  out += "# HELP dqep_slo_alert_firing Whether the scope's burn-rate alert "
         "is currently firing.\n";
  out += "# TYPE dqep_slo_alert_firing gauge\n";
  for (const SloScopeView& v : all) {
    std::snprintf(line, sizeof(line),
                  "dqep_slo_alert_firing{scope=\"%s\"} %d\n", v.scope.c_str(),
                  v.firing ? 1 : 0);
    out += line;
  }
  for (auto [name, verb, value] :
       {std::tuple{"dqep_slo_alerts_fired_total", "fired", alerts_fired()},
        std::tuple{"dqep_slo_alerts_resolved_total", "resolved",
                   alerts_resolved()}}) {
    std::snprintf(line, sizeof(line),
                  "# HELP %s Burn-rate alerts %s.\n# TYPE %s counter\n"
                  "%s %" PRId64 "\n",
                  name, verb, name, name, value);
    out += line;
  }
  return out;
}

}  // namespace obs
}  // namespace dqep
