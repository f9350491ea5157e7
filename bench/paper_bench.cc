// The paper's evaluation (Cole & Graefe, SIGMOD 1994, §6) in one binary:
// Table 1, Figures 3-8, the §6 break-even table, and the checks and
// ablations beyond the paper.
//
//   paper_bench [--json] [SUBCOMMAND...]
//
// With no subcommand every section runs.  Text tables go to stdout; with
// `--json` stdout is instead one unified bench document (bench "paper",
// one row per figure and point, e.g. "fig4/Q5/sel"), checked in as
// BENCH_paper.json and gated by `tools/run_checks.sh paper`.
//
// Each (query point, optimizer mode) is compiled once, and each point
// draws one binding stream (seed kBindingSeed + uncertain_vars) that every
// section reads, so the sections report the same quantity identically:
// Figure 4's c̄ is the break-even table's c̄.  Execution costs are
// optimizer-predicted under the actual bindings (paper footnote 4) except
// in `actual` and `skew`, which execute plans on the storage engine.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "exec/executor.h"
#include "runtime/adaptive.h"
#include "runtime/shrink.h"
#include "runtime/startup.h"
#include "storage/analyze.h"

namespace dqep::bench {
namespace {

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(*result);
}

bool SameCost(double a, double b) {
  return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(a));
}

/// One output row: the text-table cells and the JSON object, filled
/// together so both renderings carry the same columns.
struct Row {
  std::vector<std::string> keys;
  std::vector<std::string> cells;
  JsonObject json;

  explicit Row(const std::string& name) { json.Str("name", name); }
  Row& Text(const std::string& key, const std::string& value) {
    Cell(key, value);
    json.Str(key, value);
    return *this;
  }
  Row& Num(const std::string& key, double value, int digits) {
    Cell(key, std::isfinite(value) ? TextTable::Num(value, digits) : "n/a");
    json.Num(key, value);
    return *this;
  }
  Row& Count(const std::string& key, int64_t value) {
    Cell(key, TextTable::Count(value));
    json.Int(key, value);
    return *this;
  }
  Row& Flag(const std::string& key, bool value) {
    Cell(key, value ? "yes" : "NO");
    json.Bool(key, value);
    return *this;
  }
  /// A break-even count; infinite means the alternative is never beaten.
  Row& BreakEven(const std::string& key, double value) {
    Cell(key, std::isfinite(value) ? TextTable::Count(
                                         static_cast<int64_t>(value))
                                   : "never");
    json.Num(key, value);
    return *this;
  }

 private:
  void Cell(const std::string& key, std::string value) {
    keys.push_back(key);
    cells.push_back(std::move(value));
  }
};

/// One figure, table or ablation: printed as a text table, or
/// contributed as rows named "<section>/<row>" to the JSON document.
struct Section {
  std::string name;
  std::string heading;
  std::string expected;
  std::vector<Row> rows{};

  Row& Add(const std::string& row_name) {
    return rows.emplace_back(name + "/" + row_name);
  }
};

void PrintText(const Section& section) {
  std::printf("%s\n", section.heading.c_str());
  if (!section.rows.empty()) {
    TextTable table(section.rows.front().keys);
    for (const Row& row : section.rows) {
      table.AddRow(row.cells);
    }
    std::printf("%s\n", table.ToString().c_str());
  }
  std::printf("%s\n\n", section.expected.c_str());
}

/// Physical I/O of one executed plan on the storage engine.
struct ExecutedIo {
  int64_t page_reads = 0;
  int64_t rows = 0;
  /// Device-model seconds: sequential misses at sequential page cost,
  /// random misses at random page cost (the cost model's 8:1 ratio).
  double io_seconds = 0.0;

  ExecutedIo& operator+=(const ExecutedIo& other) {
    page_reads += other.page_reads;
    rows += other.rows;
    io_seconds += other.io_seconds;
    return *this;
  }
};

ExecutedIo Execute(PaperWorkload& workload, const PhysNodePtr& plan,
                   const ParamEnv& env) {
  Database& db = workload.db();
  db.ResetIoStats();
  auto rows = Must(ExecutePlan(plan, db, env), "execution");
  const SystemConfig& config = workload.config();
  ExecutedIo io;
  io.page_reads = db.page_store().stats().page_reads;
  io.rows = static_cast<int64_t>(rows.size());
  io.io_seconds = static_cast<double>(db.buffer_pool().sequential_misses()) *
                      config.SeqPageIoSeconds() +
                  static_cast<double>(db.buffer_pool().random_misses()) *
                      config.random_page_io_seconds;
  return io;
}

/// One query point: its compiled plans and its binding stream with the
/// three lifecycles' invocations over it, each computed on first use.
class Point {
 public:
  Point(PaperWorkload* workload, const QueryPoint& point)
      : workload_(workload),
        point_(point),
        query_(workload->ChainQuery(point.num_relations)) {
    Rng rng(kBindingSeed + static_cast<uint64_t>(point.uncertain_vars));
    for (int i = 0; i < kNumInvocations; ++i) {
      bindings_.push_back(
          workload->DrawBindings(&rng, query_, point.uncertain_memory));
    }
  }

  const QueryPoint& point() const { return point_; }
  const Query& query() const { return query_; }
  const std::vector<ParamEnv>& bindings() const { return bindings_; }
  std::string label() const {
    return "Q" + std::to_string(point_.query_index) + "/" +
           SettingName(point_.uncertain_memory);
  }

  const CompiledQuery& Static() {
    return Compile(&static_, OptimizerOptions::Static());
  }
  const CompiledQuery& Dynamic() {
    return Compile(&dynamic_, OptimizerOptions::Dynamic());
  }
  /// The exhaustive plan: every cost comparison forced incomparable.
  const CompiledQuery& Exhaustive() {
    OptimizerOptions options = OptimizerOptions::Dynamic();
    options.force_incomparable = true;
    return Compile(&exhaustive_, options);
  }

  /// c_i: the static plan's invocations.
  const std::vector<InvocationResult>& C() {
    return Invoke(&c_, [this](const ParamEnv& bound) {
      return InvokeStatic(Static(), workload_->model(), bound);
    });
  }
  /// g_i: the dynamic plan's invocations.
  const std::vector<InvocationResult>& G() {
    return Invoke(&g_, [this](const ParamEnv& bound) {
      return InvokeDynamic(Dynamic(), workload_->model(), bound);
    });
  }
  /// d_i: run-time optimization at every invocation.
  const std::vector<InvocationResult>& D() {
    return Invoke(&d_, [this](const ParamEnv& bound) {
      return OptimizeAtRunTime(query_, workload_->model(), bound);
    });
  }

 private:
  const CompiledQuery& Compile(std::optional<CompiledQuery>* slot,
                               const OptimizerOptions& options) {
    if (!slot->has_value()) {
      slot->emplace(MustCompile(*workload_, query_, options,
                                point_.uncertain_memory));
    }
    return **slot;
  }
  template <typename Fn>
  const std::vector<InvocationResult>& Invoke(
      std::vector<InvocationResult>* runs, Fn invoke) {
    if (runs->empty()) {
      for (const ParamEnv& bound : bindings_) {
        runs->push_back(Must(invoke(bound), "invocation"));
      }
    }
    return *runs;
  }

  PaperWorkload* workload_;
  QueryPoint point_;
  Query query_;
  std::vector<ParamEnv> bindings_;
  std::optional<CompiledQuery> static_;
  std::optional<CompiledQuery> dynamic_;
  std::optional<CompiledQuery> exhaustive_;
  std::vector<InvocationResult> c_;
  std::vector<InvocationResult> g_;
  std::vector<InvocationResult> d_;
};

template <typename Fn>
double Mean(const std::vector<InvocationResult>& runs, Fn value) {
  double sum = 0.0;
  for (const InvocationResult& run : runs) {
    sum += value(run);
  }
  return sum / static_cast<double>(runs.size());
}

// Per-invocation quantities averaged by the sections.
double ExecutionCost(const InvocationResult& run) {
  return run.execution_cost;
}
double TotalSeconds(const InvocationResult& run) { return run.TotalSeconds(); }
double Activation(const InvocationResult& run) {
  return run.activation_seconds;
}
double RunTimeOptimize(const InvocationResult& run) {
  return run.optimize_seconds;
}
double Decisions(const InvocationResult& run) {
  return static_cast<double>(run.startup->decisions);
}
double Evaluations(const InvocationResult& run) {
  return static_cast<double>(run.startup->cost_evaluations);
}
double MeasuredCpu(const InvocationResult& run) {
  return run.startup->measured_cpu_seconds;
}
double ModeledCpu(const InvocationResult& run) {
  return run.startup->modeled_cpu_seconds;
}

class PaperBench {
 public:
  PaperBench()
      // Populated, with the buffer pool sized to the expected memory
      // grant (64 pages), so `actual` executes the same compiled plans
      // the cost-only sections resolve.
      : workload_(MustCreateWorkload(/*populate=*/true,
                                     /*buffer_pool_pages=*/64)) {
    for (const QueryPoint& point : PaperQueryPoints()) {
      points_.emplace_back(workload_.get(), point);
    }
  }

  Section Table1() {
    Section s{"table1",
              "Table 1: Logical and Physical Algebra Operators\n"
              "(paper: Cole & Graefe, SIGMOD 1994, Table 1)",
              "Transformation rules: join commutativity and associativity\n"
              "(all bushy trees of connected sub-queries)."};
    const char* const kOperators[][3] = {
        {"Data Retrieval", "Get-Set", "File-Scan"},
        {"Data Retrieval", "Get-Set", "B-tree-Scan"},
        {"Select, Project", "Select", "Filter"},
        {"Select, Project", "Select", "Filter-B-tree-Scan"},
        {"Join", "Join", "Hash-Join"},
        {"Join", "Join", "Merge-Join"},
        {"Join", "Join", "Index-Join"},
        {"Enforcer", "Sort Order", "Sort"},
        {"Enforcer", "Plan Robustness", "Choose-Plan"},
    };
    for (const auto& op : kOperators) {
      s.Add(op[2])
          .Text("operator_type", op[0])
          .Text("logical", op[1])
          .Text("physical", op[2]);
    }
    return s;
  }

  // Figure 3: cumulative effort of the three scenarios at Q5,
  //   static:   a + k*(b + c_i)
  //   run-time: k*(a + d_i)
  //   dynamic:  e + k*(f + g_i)
  Section Fig3() {
    Point& q5 = points_[4];
    const CompiledQuery& static_plan = q5.Static();
    const CompiledQuery& dynamic_plan = q5.Dynamic();
    char heading[512];
    std::snprintf(
        heading, sizeof(heading),
        "Figure 3: Alternative Optimization Scenarios (Q5, 10-way join)\n"
        "Cumulative run-time effort after k invocations (seconds).\n"
        "  static:   a + k*(b + c_i)   a=%0.6f  b=%0.6f\n"
        "  run-time: k*(a + d_i)\n"
        "  dynamic:  e + k*(f + g_i)   e=%0.6f\n",
        static_plan.optimize_seconds, ActivationB(static_plan),
        dynamic_plan.optimize_seconds);
    Section s{"fig3", heading,
              "Expected shape (paper): static plans accumulate large "
              "execution\npenalties; run-time optimization pays "
              "optimization on every\ninvocation; dynamic plans pay one "
              "(larger) optimization once and\nsmall per-invocation "
              "start-up costs, winning as k grows."};
    double total_static = static_plan.optimize_seconds;
    double total_runtime = 0.0;
    double total_dynamic = dynamic_plan.optimize_seconds;
    for (int k = 1; k <= 32; ++k) {
      size_t i = static_cast<size_t>(k - 1);
      total_static += q5.C()[i].TotalSeconds();
      total_runtime += q5.D()[i].TotalSeconds();
      total_dynamic += q5.G()[i].TotalSeconds();
      if ((k & (k - 1)) != 0) {
        continue;  // report k = 1, 2, 4, ..., 32
      }
      const char* best = "dynamic";
      if (total_static < total_runtime && total_static < total_dynamic) {
        best = "static";
      } else if (total_runtime < total_dynamic) {
        best = "run-time";
      }
      s.Add("k" + std::to_string(k))
          .Count("invocations", k)
          .Num("static_total", total_static, 3)
          .Num("runtime_opt_total", total_runtime, 3)
          .Num("dynamic_total", total_dynamic, 3)
          .Text("best", best);
    }
    return s;
  }

  Section Fig4() {
    Section s{
        "fig4",
        "Figure 4: Execution Times of Static and Dynamic Plans\n"
        "(avg predicted execution cost over N=100 random bindings, "
        "seconds)",
        "Expected shape (paper): dynamic plans dominate static plans for\n"
        "every query; the paper reports factors of 5x (Q1) to 24x (Q5)."};
    for (Point& p : points_) {
      double c = Mean(p.C(), ExecutionCost);
      double g = Mean(p.G(), ExecutionCost);
      AddPoint(&s, p)
          .Num("avg_static_c", c, 3)
          .Num("avg_dynamic_g", g, 3)
          .Num("static/dynamic", c / g, 1);
    }
    return s;
  }

  // Figure 5: measured optimizer CPU (unscaled), median of 5 runs per
  // mode; the search counts come from the compiled plans.
  Section Fig5() {
    Section s{
        "fig5",
        "Figure 5: Optimization Time for Static and Dynamic Plans\n"
        "(measured CPU seconds, median of 5 runs)",
        "Expected shape (paper): dynamic-plan optimization costs more than\n"
        "traditional optimization but stays within a small factor (paper:\n"
        "< 3x for Q5); uncertain memory adds little or nothing."};
    for (Point& p : points_) {
      double static_time = MedianOptimizeSeconds(p, OptimizerOptions::Static());
      double dynamic_time =
          MedianOptimizeSeconds(p, OptimizerOptions::Dynamic());
      const SearchStats& st = p.Static().plan.stats;
      const SearchStats& dy = p.Dynamic().plan.stats;
      AddPoint(&s, p)
          .Num("static_opt_a", static_time, 6)
          .Num("dynamic_opt_e", dynamic_time, 6)
          .Num("dynamic/static", dynamic_time / static_time, 2)
          .Count("considered_static", st.plans_considered)
          .Count("considered_dynamic", dy.plans_considered)
          .Count("pruned_static", st.plans_pruned)
          .Count("pruned_dynamic", dy.plans_pruned);
    }
    return s;
  }

  Section Fig6() {
    Section s{
        "fig6",
        "Figure 6: Plan Sizes for Static and Dynamic Plans\n"
        "(operator nodes in the plan DAG; module bytes at 128 B/node)",
        "Expected shape (paper): dynamic plans are orders of magnitude\n"
        "larger than static plans (paper: 14,090 vs 21 nodes at 11 "
        "uncertain\nvariables) yet far below the exponential tree "
        "expansion thanks to\nshared subplans; uncertain memory barely "
        "increases plan size."};
    for (Point& p : points_) {
      const CompiledQuery& dynamic_plan = p.Dynamic();
      const PhysNode& root = *dynamic_plan.plan.root;
      AddPoint(&s, p)
          .Count("static_nodes", p.Static().module.num_nodes())
          .Count("dynamic_nodes", dynamic_plan.module.num_nodes())
          .Count("choose_nodes", dynamic_plan.module.num_choose_nodes())
          .Count("dyn_tree_nodes", std::llround(
                                       root.CountExpandedTreeNodes()))
          .Count("embedded_plans", std::llround(root.CountEmbeddedPlans()))
          .Num("module_KB",
               dynamic_plan.module.ModeledSizeBytes(workload_->config()) /
                   1024.0,
               1);
    }
    return s;
  }

  // Figure 7: start-up CPU re-evaluates the cost functions over the plan
  // DAG (each shared subplan once) and resolves every choose-plan node.
  Section Fig7() {
    Section s{
        "fig7",
        "Figure 7: Start-Up Times for Dynamic Plans\n"
        "(avg over N=100 bindings; measured CPU + modeled I/O, seconds)",
        "Expected shape (paper): start-up CPU time parallels plan size "
        "(one\ncost evaluation per DAG node, shared subplans once) and "
        "remains\nsmall relative to execution cost."};
    for (Point& p : points_) {
      const CompiledQuery& dynamic_plan = p.Dynamic();
      const std::vector<InvocationResult>& g = p.G();
      AddPoint(&s, p)
          .Count("nodes", dynamic_plan.module.num_nodes())
          .Count("choose_nodes", dynamic_plan.module.num_choose_nodes())
          .Num("decisions", Mean(g, Decisions), 1)
          .Num("cost_evals", Mean(g, Evaluations), 1)
          .Num("cpu_measured", Mean(g, MeasuredCpu), 6)
          .Num("cpu_modeled", Mean(g, ModeledCpu), 6)
          .Num("io_transfer",
               dynamic_plan.module.TransferSeconds(workload_->config()), 6)
          .Num("activation_f", Mean(g, Activation), 6);
    }
    return s;
  }

  // Figure 8: per-invocation effort of re-optimizing (a + d_i) against
  // activating the dynamic plan (f + g_i); the plans must be equally
  // good (g_i = d_i, the optimality guarantee).
  Section Fig8() {
    Section s{
        "fig8",
        "Figure 8: Run-Time Optimization versus Dynamic Plans\n"
        "(avg per-invocation run-time effort over N=100 bindings, seconds)",
        "Expected shape (paper): identical executed plans (g = d, the\n"
        "optimality guarantee), with dynamic plans cheaper overall because\n"
        "start-up decisions cost far less than re-optimization; the paper\n"
        "reports a >2x advantage for Q5."};
    for (Point& p : points_) {
      const std::vector<InvocationResult>& d = p.D();
      const std::vector<InvocationResult>& g = p.G();
      bool all_equal = true;
      for (size_t i = 0; i < d.size(); ++i) {
        all_equal =
            all_equal && SameCost(d[i].execution_cost, g[i].execution_cost);
      }
      double runtime = Mean(d, TotalSeconds);
      double dynamic = Mean(g, TotalSeconds);
      AddPoint(&s, p)
          .Num("runtime_opt_a+d", runtime, 4)
          .Num("dynamic_f+g", dynamic, 4)
          .Num("ratio", runtime / dynamic, 2)
          .Flag("g_equals_d", all_equal);
    }
    return s;
  }

  // §6 break-even: invocations before the dynamic plan's total effort
  // drops below the alternative's.
  //   vs. static:                N_be = ceil((e - a) / ((b + c̄) - (f̄ + ḡ)))
  //   vs. run-time optimization: N_be = ceil(e / (ā - f̄))   (since ḡ = d̄)
  Section Breakeven() {
    Section s{
        "breakeven",
        "Break-Even Points (paper Section 6)\n"
        "(averages over N=100 bindings; N_be = invocations needed before "
        "the\ndynamic plan's total effort drops below the alternative's)",
        "Expected shape (paper): N_be vs. static = 1 for every query (the\n"
        "execution savings dominate immediately); N_be vs. run-time\n"
        "optimization is small (paper: 2-4)."};
    for (Point& p : points_) {
      double a = p.Static().optimize_seconds;
      double b = ActivationB(p.Static());
      double e = p.Dynamic().optimize_seconds;
      double c = Mean(p.C(), ExecutionCost);
      double g = Mean(p.G(), ExecutionCost);
      double d = Mean(p.D(), ExecutionCost);
      double f = Mean(p.G(), Activation);
      double a_runtime = Mean(p.D(), RunTimeOptimize);
      double gain = (b + c) - (f + g);
      double vs_static =
          gain > 0 ? std::max(1.0, std::ceil((e - a) / gain)) : INFINITY;
      double vs_runtime = a_runtime > f
                              ? std::max(1.0, std::ceil(e / (a_runtime - f)))
                              : INFINITY;
      AddPoint(&s, p)
          .Num("a", a, 6)
          .Num("b", b, 6)
          .Num("e", e, 6)
          .Num("f_avg", f, 6)
          .Num("a_runtime_avg", a_runtime, 6)
          .Num("c_avg", c, 3)
          .Num("g_avg", g, 3)
          .Num("d_avg", d, 3)
          .BreakEven("N_be_vs_static", vs_static)
          .BreakEven("N_be_vs_runtime", vs_runtime);
    }
    return s;
  }

  // Beyond the paper: execute the static and the start-up-resolved
  // dynamic plans of Q1-Q3 on the paged tables (64-page buffer pool) and
  // count physical page I/O.
  Section Actual() {
    constexpr size_t kInvocations = 20;
    Section s{"actual",
              "Actual Execution Validation (beyond the paper)\n"
              "(physical page reads per invocation, averaged over the "
              "first 20\nbindings; buffer pool = 64 pages; Q1-Q3 executed "
              "end-to-end)",
              "Expected shape: both plans return identical result sizes, "
              "and in\ndevice-model I/O time (sequential vs random misses "
              "weighted like\nthe cost model's 8:1 ratio) the dynamic plan "
              "clearly beats the\nstatic plan."};
    for (size_t q = 0; q < 3; ++q) {
      Point& p = points_[q];
      ExecutedIo sum_static;
      ExecutedIo sum_dynamic;
      bool agree = true;
      for (size_t i = 0; i < kInvocations; ++i) {
        const ParamEnv& bound = p.bindings()[i];
        ExecutedIo st = Execute(*workload_, p.C()[i].executed_plan, bound);
        ExecutedIo dy = Execute(*workload_, p.G()[i].executed_plan, bound);
        agree = agree && st.rows == dy.rows;
        sum_static += st;
        sum_dynamic += dy;
      }
      double n = static_cast<double>(kInvocations);
      s.Add(p.label())
          .Text("query", "Q" + std::to_string(p.point().query_index))
          .Num("reads_static", sum_static.page_reads / n, 1)
          .Num("reads_dynamic", sum_dynamic.page_reads / n, 1)
          .Num("io_s_static", sum_static.io_seconds / n, 3)
          .Num("io_s_dynamic", sum_dynamic.io_seconds / n, 3)
          .Num("io_time_ratio",
               sum_static.io_seconds / sum_dynamic.io_seconds, 2)
          .Num("avg_rows", sum_static.rows / n, 1)
          .Flag("results_agree", agree);
    }
    return s;
  }

  // §3: forcing every cost comparison incomparable keeps every plan; the
  // regular dynamic plan keeps exactly the potentially optimal ones, so
  // both must resolve to equally good plans.  Q5 is skipped (too large).
  Section Exhaustive() {
    Section s{"exhaustive",
              "Ablation: Dynamic Plans versus Exhaustive Plans\n"
              "(force_incomparable keeps every plan; N=100 bindings)",
              "Expected shape: identical start-up execution costs —\n"
              "dominance pruning of comparable plans loses nothing — while "
              "the\nexhaustive plan is larger and costlier to build and "
              "activate."};
    for (Point& p : points_) {
      if (p.point().num_relations > 6) {
        continue;
      }
      const CompiledQuery& exhaustive = p.Exhaustive();
      bool agree = true;
      for (size_t i = 0; i < p.bindings().size(); ++i) {
        InvocationResult exh = Must(
            InvokeDynamic(exhaustive, workload_->model(), p.bindings()[i]),
            "exhaustive invocation");
        agree = agree && SameCost(p.G()[i].execution_cost,
                                  exh.execution_cost);
      }
      AddPoint(&s, p)
          .Count("nodes_dynamic", p.Dynamic().module.num_nodes())
          .Count("nodes_exhaustive", exhaustive.module.num_nodes())
          .Num("opt_time_dyn", p.Dynamic().optimize_seconds, 6)
          .Num("opt_time_exh", exhaustive.optimize_seconds, 6)
          .Flag("costs_agree", agree);
    }
    return s;
  }

  // §4's plan-shrinking heuristic: train on the point's 100 bindings,
  // shrink the module to the components used, then measure size, start-up
  // speedup and execution-cost regret on 100 fresh bindings.
  Section Shrink() {
    Section s{"shrink",
              "Ablation: Plan Shrinking Heuristic\n"
              "(train on the point's 100 bindings, evaluate on 100 fresh "
              "bindings)",
              "Expected shape: substantial size and start-up reductions; "
              "small\naverage regret on fresh bindings (the heuristic may "
              "drop\nalternatives later bindings would prefer — exactly the "
              "risk paper\nSection 4 describes)."};
    for (Point& p : points_) {
      const CompiledQuery& dynamic_plan = p.Dynamic();
      PlanUsageTracker tracker;
      for (const InvocationResult& run : p.G()) {
        tracker.Record(*run.startup);
      }
      PhysNodePtr shrunk = ShrinkDynamicPlan(
          workload_->catalog(), dynamic_plan.plan.root, tracker);
      StartupProgram shrunk_program(shrunk);
      Rng fresh_rng(kBindingSeed ^ 0xabcdef);
      double cpu_full = 0.0;
      double cpu_shrunk = 0.0;
      double regret_sum = 0.0;
      double regret_worst = 0.0;
      for (int i = 0; i < kNumInvocations; ++i) {
        ParamEnv bound = workload_->DrawBindings(&fresh_rng, p.query(),
                                                 p.point().uncertain_memory);
        StartupResult full = Must(
            ResolveDynamicPlan(*dynamic_plan.program, workload_->model(),
                               bound),
            "resolution");
        StartupResult small = Must(
            ResolveDynamicPlan(shrunk_program, workload_->model(), bound),
            "resolution");
        cpu_full += full.measured_cpu_seconds;
        cpu_shrunk += small.measured_cpu_seconds;
        double regret = (small.execution_cost - full.execution_cost) /
                        full.execution_cost;
        regret_sum += regret;
        regret_worst = std::max(regret_worst, regret);
      }
      AddPoint(&s, p)
          .Count("nodes_full", dynamic_plan.module.num_nodes())
          .Count("nodes_shrunk", shrunk->CountNodes())
          .Count("choose_full", dynamic_plan.module.num_choose_nodes())
          .Count("choose_shrunk", shrunk->CountChooseNodes())
          .Num("startup_speedup", cpu_full / cpu_shrunk, 2)
          .Num("fresh_regret%", 100.0 * regret_sum / kNumInvocations, 2)
          .Num("worst_regret%", 100.0 * regret_worst, 2);
    }
    return s;
  }

  // §7 directions: with skewed data a uniform-assumption estimator
  // misjudges selectivities.  Compares start-up decisions with the
  // uniform estimator, ANALYZE histograms, and observed cardinalities of
  // maximal single-relation subplans, on executed plans (device-weighted
  // physical I/O), with the static plan as the baseline.  Runs on its own
  // skewed workload, so its chains are compiled here.
  Section Skew() {
    constexpr int kInvocations = 10;
    constexpr double kSkew = 3.0;
    std::unique_ptr<PaperWorkload> skewed =
        MustCreateWorkload(/*populate=*/true, /*buffer_pool_pages=*/64, kSkew);
    StatisticsCatalog stats = AnalyzeDatabase(skewed->db());
    CostModel histogram_model(&skewed->catalog(), skewed->config(), &stats);
    Section s{"skew",
              "Ablation: Decision Quality under Skewed Data (skew exponent "
              "3.0)\n(device-weighted actual I/O seconds per invocation, "
              "avg of 10\nrandom bindings; executed on the real storage "
              "engine)",
              "Expected shape: every dynamic variant beats the static plan; "
              "the\nhistogram- and observation-backed decision procedures "
              "close the\ngap the uniform assumption leaves on skewed data. "
              " (Observation\nI/O is not charged here; a production system "
              "reuses the temporary\nresults it materializes.)"};
    for (int32_t n : {2, 3, 4}) {
      Query query = skewed->ChainQuery(n);
      CompiledQuery static_plan =
          MustCompile(*skewed, query, OptimizerOptions::Static(), false);
      CompiledQuery dynamic_plan =
          MustCompile(*skewed, query, OptimizerOptions::Dynamic(), false);
      Rng rng(kBindingSeed + static_cast<uint64_t>(n));
      double io_static = 0.0;
      double io_uniform = 0.0;
      double io_histogram = 0.0;
      double io_observed = 0.0;
      for (int i = 0; i < kInvocations; ++i) {
        ParamEnv bound = skewed->DrawBindings(&rng, query, false);
        StartupResult uniform =
            Must(ResolveDynamicPlan(*dynamic_plan.program, skewed->model(),
                                    bound),
                 "resolution");
        StartupResult histogram =
            Must(ResolveDynamicPlan(*dynamic_plan.program, histogram_model,
                                    bound),
                 "resolution");
        AdaptiveResult observed =
            Must(ResolveWithObservation(dynamic_plan.plan.root,
                                        skewed->model(), bound, skewed->db()),
                 "observed resolution");
        io_static += Execute(*skewed, static_plan.plan.root, bound).io_seconds;
        io_uniform += Execute(*skewed, uniform.resolved, bound).io_seconds;
        io_histogram +=
            Execute(*skewed, histogram.resolved, bound).io_seconds;
        io_observed +=
            Execute(*skewed, observed.startup.resolved, bound).io_seconds;
      }
      double best =
          std::min({io_static, io_uniform, io_histogram, io_observed});
      const char* best_name = best == io_observed    ? "observed"
                              : best == io_histogram ? "histograms"
                              : best == io_uniform   ? "uniform"
                                                     : "static";
      std::string chain = "chain-" + std::to_string(n);
      s.Add(chain)
          .Text("query", chain)
          .Num("static", io_static / kInvocations, 3)
          .Num("dyn_uniform", io_uniform / kInvocations, 3)
          .Num("dyn_histograms", io_histogram / kInvocations, 3)
          .Num("dyn_observed", io_observed / kInvocations, 3)
          .Text("best", best_name);
    }
    return s;
  }

  // §4 proposes start-up branch-and-bound (the paper did not implement
  // it): abandon an alternative once its partial cost exceeds the best so
  // far.  The chosen plans must be identical; the saving is in
  // cost-function evaluations.
  Section StartupBnb() {
    Section s{"startup_bnb",
              "Ablation: Start-Up Branch-and-Bound\n"
              "(avg over N=100 bindings; evaluations = cost-function calls)",
              "Expected shape: identical chosen plans with fewer "
              "cost-function\nevaluations under branch-and-bound, growing "
              "with plan size.  Note:\nnaive budget aborts would re-evaluate "
              "shared subplans once per\nparent budget and *lose* by orders "
              "of magnitude; the evaluator\nmemoizes abort budgets to avoid "
              "that."};
    StartupOptions options;
    options.use_branch_and_bound = true;
    for (Point& p : points_) {
      const std::vector<InvocationResult>& full = p.G();
      std::vector<InvocationResult> bnb;
      bool agree = true;
      for (size_t i = 0; i < full.size(); ++i) {
        bnb.push_back(Must(InvokeDynamic(p.Dynamic(), workload_->model(),
                                         p.bindings()[i], options),
                           "branch-and-bound invocation"));
        agree = agree &&
                SameCost(full[i].execution_cost, bnb.back().execution_cost);
      }
      double evals_full = Mean(full, Evaluations);
      double evals_bnb = Mean(bnb, Evaluations);
      AddPoint(&s, p)
          .Count("nodes", p.Dynamic().module.num_nodes())
          .Num("evals_full", evals_full, 1)
          .Num("evals_bnb", evals_bnb, 1)
          .Num("saved%", 100.0 * (1.0 - evals_bnb / evals_full), 1)
          .Num("cpu_full", Mean(full, MeasuredCpu), 6)
          .Num("cpu_bnb", Mean(bnb, MeasuredCpu), 6)
          .Flag("plans_agree", agree);
    }
    return s;
  }

 private:
  /// Activation of a static plan: b = constant + module transfer.
  double ActivationB(const CompiledQuery& compiled) const {
    return workload_->config().activation_constant_seconds +
           compiled.module.TransferSeconds(workload_->config());
  }

  /// A row for `point`, keyed "<query>/<setting>", with the three
  /// columns that identify the point.
  static Row& AddPoint(Section* section, const Point& point) {
    return section->Add(point.label())
        .Text("query", "Q" + std::to_string(point.point().query_index))
        .Text("setting", SettingName(point.point().uncertain_memory))
        .Count("uncertain_vars", point.point().uncertain_vars);
  }

  double MedianOptimizeSeconds(const Point& point,
                               const OptimizerOptions& options) const {
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
      Optimizer optimizer(&workload_->model(), options);
      times.push_back(
          Must(optimizer.Optimize(point.query(), workload_->CompileTimeEnv(
                                                     point.point()
                                                         .uncertain_memory)),
               "optimize")
              .stats.optimize_seconds);
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
  }

  std::unique_ptr<PaperWorkload> workload_;
  std::vector<Point> points_;
};

struct Subcommand {
  const char* name;
  Section (PaperBench::*run)();
};

constexpr Subcommand kSubcommands[] = {
    {"table1", &PaperBench::Table1},
    {"fig3", &PaperBench::Fig3},
    {"fig4", &PaperBench::Fig4},
    {"fig5", &PaperBench::Fig5},
    {"fig6", &PaperBench::Fig6},
    {"fig7", &PaperBench::Fig7},
    {"fig8", &PaperBench::Fig8},
    {"breakeven", &PaperBench::Breakeven},
    {"actual", &PaperBench::Actual},
    {"exhaustive", &PaperBench::Exhaustive},
    {"shrink", &PaperBench::Shrink},
    {"startup_bnb", &PaperBench::StartupBnb},
    {"skew", &PaperBench::Skew},
};

int Main(int argc, char** argv) {
  bool json = false;
  std::vector<const Subcommand*> selected;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
      continue;
    }
    const Subcommand* found = nullptr;
    for (const Subcommand& sub : kSubcommands) {
      if (std::strcmp(argv[i], sub.name) == 0) {
        found = &sub;
      }
    }
    if (found == nullptr) {
      std::fprintf(stderr, "usage: %s [--json] [SUBCOMMAND...]\nsubcommands:",
                   argv[0]);
      for (const Subcommand& sub : kSubcommands) {
        std::fprintf(stderr, " %s", sub.name);
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(found);
  }
  if (selected.empty()) {
    for (const Subcommand& sub : kSubcommands) {
      selected.push_back(&sub);
    }
  }

  PaperBench bench;
  std::vector<JsonObject> rows;
  for (const Subcommand* sub : selected) {
    Section section = (bench.*(sub->run))();
    if (!json) {
      PrintText(section);
      std::fflush(stdout);
      continue;
    }
    for (Row& row : section.rows) {
      rows.push_back(std::move(row.json));
    }
  }
  if (json) {
    PrintBenchDocument("paper",
                       JsonObject()
                           .Int("workload_seed", kWorkloadSeed)
                           .Int("binding_seed", kBindingSeed)
                           .Int("invocations", kNumInvocations),
                       rows);
  }
  return 0;
}

}  // namespace
}  // namespace dqep::bench

int main(int argc, char** argv) { return dqep::bench::Main(argc, argv); }
