#include "obs/analyze.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "obs/json_util.h"
#include "obs/trace.h"
#include "runtime/query_pipeline.h"

namespace dqep {
namespace obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Exec-side wrappers that have no plan-side counterpart: the row cursor
/// over a batch tree and the exchange operator (whose single child is the
/// top of the merged per-worker profile chain).
bool IsTransparent(const ExecNode& node) {
  const char* name = node.op_name();
  return std::strcmp(name, "tuple-from-batch") == 0 ||
         std::strcmp(name, "exchange") == 0;
}

const ExecNode* SkipTransparent(const ExecNode* node) {
  while (node != nullptr && IsTransparent(*node) &&
         node->child_nodes().size() == 1) {
    node = node->child_nodes().front();
  }
  return node;
}

class AnalyzeWalker {
 public:
  explicit AnalyzeWalker(const AnalyzeInput& input) : input_(input) {}

  std::vector<AnalyzeRow> Run() {
    const PhysNode* res = input_.resolved_root;
    if (res != nullptr) {
      Walk(input_.dynamic_root, res, SkipTransparent(input_.exec_root), 0);
    }
    return std::move(rows_);
  }

 private:
  void Walk(const PhysNode* dyn, const PhysNode* res, const ExecNode* exec,
            int depth) {
    if (dyn != nullptr && dyn->kind() == PhysOpKind::kChoosePlan) {
      EmitDecision(dyn, exec, depth);
      size_t chosen = ChosenIndex(dyn);
      // The resolved plan spliced the chosen alternative in place of the
      // choose node, so the decision row shares its depth with the
      // operator row that follows.
      Walk(dyn->child(chosen).get(), res, exec, depth);
      return;
    }
    AnalyzeRow row;
    row.kind = AnalyzeRow::Kind::kOperator;
    row.depth = depth;
    row.plan_node = res;
    row.op = PhysOpKindName(res->kind());
    row.est_cost = res->est_cost();
    row.est_rows = res->est_cardinality();
    if (exec != nullptr) {
      row.have_actual = true;
      row.actual_seconds = ActualSeconds(*exec);
      row.actual_cpu_seconds = ActualCpuSeconds(*exec);
      row.actual_rows = exec->counters().tuples;
      row.cost_in_interval = row.est_cost.Contains(row.actual_seconds);
    }
    rows_.push_back(std::move(row));

    std::vector<const ExecNode*> exec_children;
    if (exec != nullptr) {
      exec_children = exec->child_nodes();
    }
    // The dynamic node mirrors the resolved node unless a choose node
    // below it was rewritten; kinds and arity still match whenever both
    // sides are present.
    bool dyn_matches = dyn != nullptr && dyn->kind() == res->kind() &&
                       dyn->children().size() == res->children().size();
    for (size_t i = 0; i < res->children().size(); ++i) {
      const PhysNode* dyn_child = dyn_matches ? dyn->child(i).get() : nullptr;
      // Some iterators expose fewer children than the plan node (the
      // index join drives its inner B-tree probes itself), so tolerate a
      // count mismatch by dropping the exec side.
      const ExecNode* exec_child = i < exec_children.size()
                                       ? SkipTransparent(exec_children[i])
                                       : nullptr;
      Walk(dyn_child, res->child(i).get(), exec_child, depth + 1);
    }
  }

  size_t ChosenIndex(const PhysNode* node) const {
    if (input_.startup != nullptr) {
      auto it = input_.startup->choices.find(node);
      if (it != input_.startup->choices.end()) {
        return it->second;
      }
    }
    return 0;
  }

  void EmitDecision(const PhysNode* node, const ExecNode* exec, int depth) {
    AnalyzeRow row;
    row.kind = AnalyzeRow::Kind::kDecision;
    row.depth = depth;
    row.plan_node = node;
    row.alternatives = node->children().size();
    row.chosen = ChosenIndex(node);
    row.chosen_op = PhysOpKindName(node->child(row.chosen)->kind());
    row.chosen_est = kInf;
    row.best_other_est = kInf;
    row.alternative_est.assign(row.alternatives, kInf);
    row.alternative_ops.reserve(row.alternatives);
    for (size_t i = 0; i < row.alternatives; ++i) {
      row.alternative_ops.push_back(PhysOpKindName(node->child(i)->kind()));
    }
    if (input_.startup != nullptr) {
      auto it = input_.startup->alternative_costs.find(node);
      if (it != input_.startup->alternative_costs.end()) {
        const std::vector<double>& costs = it->second;
        for (size_t i = 0; i < costs.size() && i < row.alternatives; ++i) {
          row.alternative_est[i] = costs[i];
        }
        if (row.chosen < costs.size()) {
          row.chosen_est = costs[row.chosen];
        }
        for (size_t i = 0; i < costs.size(); ++i) {
          if (i != row.chosen && costs[i] < row.best_other_est) {
            row.best_other_est = costs[i];
          }
        }
      }
    }
    if (exec != nullptr) {
      row.have_actual = true;
      row.actual_seconds = ActualSeconds(*exec);
      row.actual_cpu_seconds = ActualCpuSeconds(*exec);
      if (row.best_other_est != kInf) {
        // Regret: what the chosen alternative actually cost, minus the
        // model's start-up price for the best road not taken.  Negative
        // means the decision beat that price.
        row.regret = row.actual_seconds - row.best_other_est;
        row.have_regret = true;
      }
    }
    rows_.push_back(std::move(row));
  }

  const AnalyzeInput& input_;
  std::vector<AnalyzeRow> rows_;
};

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

std::string FormatSeconds(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return std::string(buf);
}

std::string FormatInterval(const Interval& interval) {
  char buf[96];
  if (interval.IsPoint()) {
    std::snprintf(buf, sizeof(buf), "%.6g", interval.lo());
  } else {
    std::snprintf(buf, sizeof(buf), "[%.6g, %.6g]", interval.lo(),
                  interval.hi());
  }
  return std::string(buf);
}

std::string RenderText(const std::vector<AnalyzeRow>& rows,
                       const AnalyzeInput& input) {
  std::string out;
  AppendF(&out, "%-34s %-24s %10s %4s %-22s %10s\n", "operator",
          "est_cost[lo,hi]", "act_cost", "in", "est_rows[lo,hi]",
          "act_rows");
  for (const AnalyzeRow& row : rows) {
    std::string indent(static_cast<size_t>(row.depth) * 2, ' ');
    if (row.kind == AnalyzeRow::Kind::kDecision) {
      std::string line = indent + "choose-plan: ";
      AppendF(&line, "%zu alternatives, chose #%zu (%s)", row.alternatives,
              row.chosen, row.chosen_op);
      if (row.chosen_est != kInf) {
        AppendF(&line, ", est %.6g", row.chosen_est);
      }
      if (row.have_actual) {
        AppendF(&line, ", actual %.6f", row.actual_seconds);
      }
      if (row.best_other_est != kInf) {
        AppendF(&line, ", best-other est %.6g", row.best_other_est);
      }
      if (row.have_regret) {
        AppendF(&line, ", regret %+.6f", row.regret);
      } else {
        line += ", regret n/a";
      }
      out += line;
      out += '\n';
      continue;
    }
    std::string name = indent + row.op;
    AppendF(&out, "%-34s %-24s %10s %4s %-22s %10s\n", name.c_str(),
            FormatInterval(row.est_cost).c_str(),
            row.have_actual ? FormatSeconds(row.actual_seconds).c_str() : "-",
            row.have_actual ? (row.cost_in_interval ? "yes" : "no") : "-",
            FormatInterval(row.est_rows).c_str(),
            row.have_actual ? std::to_string(row.actual_rows).c_str() : "-");
  }
  if (input.reopt != nullptr) {
    for (const ReoptCheckpoint& cp : *input.reopt) {
      std::string line = "reopt checkpoint (";
      line += cp.site == ReoptCheckpoint::Site::kHashBuild ? "hash-build"
                                                           : "sort";
      AppendF(&line, " %s): est [%.6g, %.6g], actual %lld", cp.op.c_str(),
              cp.est_lo, cp.est_hi, static_cast<long long>(cp.actual_rows));
      if (cp.triggered) {
        AppendF(&line, " -- triggered%s, suffix cost %.6g -> %.6g",
                cp.spilled_capture ? " (spilled capture)" : "", cp.pre_cost,
                cp.post_cost);
        if (cp.adopted) {
          AppendF(&line, ", adopted (regret delta %+.6g)",
                  cp.post_cost - cp.pre_cost);
        } else {
          line += ", kept spliced order";
        }
        AppendF(&line, ", reopt %.6f s", cp.reopt_seconds);
      } else if (!cp.suppressed_reason.empty()) {
        AppendF(&line, " -- suppressed (%s)", cp.suppressed_reason.c_str());
      } else {
        line += " -- within interval";
      }
      out += line;
      out += '\n';
    }
  }
  if (input.startup != nullptr) {
    const StartupResult& s = *input.startup;
    AppendF(&out,
            "startup: %lld decisions, %lld cost evaluations, "
            "resolve cpu %.6f s, predicted execution cost %.6g",
            static_cast<long long>(s.decisions),
            static_cast<long long>(s.cost_evaluations),
            s.measured_cpu_seconds, s.execution_cost);
    if (input.exec_root != nullptr) {
      AppendF(&out, ", actual %.6f s",
              ActualSeconds(*SkipTransparent(input.exec_root)));
    }
    out += '\n';
  }
  if (!input.plan_cache.empty()) {
    AppendF(&out, "plan cache: %s\n", input.plan_cache.c_str());
  }
  return out;
}

std::string RenderJson(const std::vector<AnalyzeRow>& rows,
                       const AnalyzeInput& input) {
  std::string out = "{\n  \"operators\": [";
  bool first = true;
  for (const AnalyzeRow& row : rows) {
    if (row.kind != AnalyzeRow::Kind::kOperator) {
      continue;
    }
    out += first ? "\n" : ",\n";
    first = false;
    AppendF(&out, "    {\"op\": \"%s\", \"depth\": %d", row.op, row.depth);
    out += ", \"est_cost_lo\": ";
    AppendJsonNumber(&out, row.est_cost.lo());
    out += ", \"est_cost_hi\": ";
    AppendJsonNumber(&out, row.est_cost.hi());
    out += ", \"est_rows_lo\": ";
    AppendJsonNumber(&out, row.est_rows.lo());
    out += ", \"est_rows_hi\": ";
    AppendJsonNumber(&out, row.est_rows.hi());
    if (row.have_actual) {
      out += ", \"actual_cost\": ";
      AppendJsonNumber(&out, row.actual_seconds);
      out += ", \"actual_cpu\": ";
      AppendJsonNumber(&out, row.actual_cpu_seconds);
      AppendF(&out, ", \"actual_rows\": %lld",
              static_cast<long long>(row.actual_rows));
      AppendF(&out, ", \"cost_in_interval\": %s",
              row.cost_in_interval ? "true" : "false");
    }
    out += "}";
  }
  out += "\n  ],\n  \"decisions\": [";
  first = true;
  for (const AnalyzeRow& row : rows) {
    if (row.kind != AnalyzeRow::Kind::kDecision) {
      continue;
    }
    out += first ? "\n" : ",\n";
    first = false;
    AppendF(&out,
            "    {\"depth\": %d, \"alternatives\": %zu, \"chosen\": %zu, "
            "\"chosen_op\": \"%s\"",
            row.depth, row.alternatives, row.chosen, row.chosen_op);
    out += ", \"chosen_est\": ";
    AppendJsonNumber(&out, row.chosen_est);
    out += ", \"best_other_est\": ";
    AppendJsonNumber(&out, row.best_other_est);
    if (row.have_actual) {
      out += ", \"chosen_actual\": ";
      AppendJsonNumber(&out, row.actual_seconds);
    }
    if (row.have_regret) {
      out += ", \"regret\": ";
      AppendJsonNumber(&out, row.regret);
    }
    out += "}";
  }
  out += "\n  ]";
  if (input.reopt != nullptr) {
    out += ",\n  \"reopt_checkpoints\": [";
    first = true;
    for (const ReoptCheckpoint& cp : *input.reopt) {
      out += first ? "\n" : ",\n";
      first = false;
      AppendF(&out, "    {\"site\": \"%s\", \"op\": \"%s\"",
              cp.site == ReoptCheckpoint::Site::kHashBuild ? "hash-build"
                                                           : "sort",
              cp.op.c_str());
      out += ", \"est_lo\": ";
      AppendJsonNumber(&out, cp.est_lo);
      out += ", \"est_hi\": ";
      AppendJsonNumber(&out, cp.est_hi);
      AppendF(&out, ", \"actual_rows\": %lld, \"triggered\": %s",
              static_cast<long long>(cp.actual_rows),
              cp.triggered ? "true" : "false");
      if (!cp.suppressed_reason.empty()) {
        AppendF(&out, ", \"suppressed\": \"%s\"",
                JsonEscape(cp.suppressed_reason).c_str());
      }
      if (cp.triggered) {
        AppendF(&out, ", \"spilled_capture\": %s",
                cp.spilled_capture ? "true" : "false");
        out += ", \"pre_cost\": ";
        AppendJsonNumber(&out, cp.pre_cost);
        out += ", \"post_cost\": ";
        AppendJsonNumber(&out, cp.post_cost);
        out += ", \"regret_delta\": ";
        AppendJsonNumber(&out, cp.post_cost - cp.pre_cost);
        out += ", \"reopt_seconds\": ";
        AppendJsonNumber(&out, cp.reopt_seconds);
        AppendF(&out, ", \"adopted\": %s", cp.adopted ? "true" : "false");
      }
      out += "}";
    }
    out += "\n  ]";
  }
  if (input.startup != nullptr) {
    const StartupResult& s = *input.startup;
    AppendF(&out,
            ",\n  \"startup\": {\"decisions\": %lld, "
            "\"cost_evaluations\": %lld, \"resolve_cpu_seconds\": ",
            static_cast<long long>(s.decisions),
            static_cast<long long>(s.cost_evaluations));
    AppendJsonNumber(&out, s.measured_cpu_seconds);
    out += ", \"predicted_execution_cost\": ";
    AppendJsonNumber(&out, s.execution_cost);
    out += "}";
  }
  if (!input.plan_cache.empty()) {
    AppendF(&out, ",\n  \"plan_cache\": \"%s\"", input.plan_cache.c_str());
  }
  out += "\n}\n";
  return out;
}

}  // namespace

double ActualSeconds(const ExecNode& node) {
  return node.counters().InclusiveWallSeconds();
}

double ActualCpuSeconds(const ExecNode& node) {
  return node.counters().InclusiveCpuSeconds();
}

std::vector<AnalyzeRow> CollectAnalyzeRows(const AnalyzeInput& input) {
  AnalyzeWalker walker(input);
  return walker.Run();
}

AnalyzeInput AnalyzeInputFor(QueryRun& run) {
  AnnotateRun(&run);
  AnalyzeInput input;
  input.dynamic_root = run.prepared.planned.root.get();
  input.resolved_root = run.annotated.get();
  input.startup = &run.prepared.startup;
  input.exec_root = run.exec_tree.get();
  input.plan_cache = run.prepared.cache_status();
  if (run.reoptimized) {
    input.reopt = &run.checkpoints;
  }
  return input;
}

std::string RenderAnalyze(const AnalyzeInput& input, AnalyzeFormat format) {
  return RenderAnalyze(CollectAnalyzeRows(input), input, format);
}

std::string RenderAnalyze(const std::vector<AnalyzeRow>& rows,
                          const AnalyzeInput& input, AnalyzeFormat format) {
  return format == AnalyzeFormat::kJson ? RenderJson(rows, input)
                                        : RenderText(rows, input);
}

}  // namespace obs
}  // namespace dqep
