// Micro-benchmarks (google-benchmark) for the primitives whose speed the
// paper's argument depends on: interval cost comparison, cost-function
// evaluation over plan DAGs, start-up resolution, optimization in both
// modes, access-module (de)serialization, and tuple- vs. batch-mode
// execution of scan, scan+filter, and hash-join pipelines.
//
// `--json` emits the unified bench schema (see bench/unified_report.h).

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "bench/unified_report.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "physical/access_module.h"
#include "physical/costing.h"
#include "runtime/startup.h"
#include "runtime/startup_program.h"

namespace dqep::bench {
namespace {

const PaperWorkload& Workload() {
  static const PaperWorkload* workload = MustCreateWorkload().release();
  return *workload;
}

/// Workload with populated tables, for execution benchmarks.  Mutable so
/// each benchmark can reset the shared buffer-pool statistics.
PaperWorkload& PopulatedWorkload() {
  static PaperWorkload* workload =
      MustCreateWorkload(/*populate=*/true).release();
  return *workload;
}

void BM_IntervalCompare(benchmark::State& state) {
  Rng rng(1);
  std::vector<Interval> intervals;
  for (int i = 0; i < 1024; ++i) {
    double lo = rng.NextDouble(0, 10);
    intervals.emplace_back(lo, lo + rng.NextDouble(0, 10));
  }
  size_t i = 0;
  for (auto _ : state) {
    const Interval& a = intervals[i % intervals.size()];
    const Interval& b = intervals[(i * 7 + 3) % intervals.size()];
    benchmark::DoNotOptimize(a.Compare(b));
    ++i;
  }
}
BENCHMARK(BM_IntervalCompare);

void BM_EstimatePlan(benchmark::State& state) {
  int32_t n = static_cast<int32_t>(state.range(0));
  const PaperWorkload& workload = Workload();
  Query query = workload.ChainQuery(n);
  Optimizer optimizer(&workload.model(), OptimizerOptions::Dynamic());
  auto plan = optimizer.Optimize(query, workload.CompileTimeEnv(false));
  DQEP_CHECK(plan.ok());
  ParamEnv env = workload.CompileTimeEnv(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimatePlan(*plan->root, workload.model(), env,
                                          EstimationMode::kInterval));
  }
  state.counters["nodes"] =
      static_cast<double>(plan->root->CountNodes());
}
BENCHMARK(BM_EstimatePlan)->Arg(2)->Arg(4)->Arg(10);

/// The dynamic plan of the n-way chain query plus one seeded binding —
/// the shared setup of the start-up benchmarks.
struct StartupCase {
  Query query;
  PhysNodePtr root;
  ParamEnv bound;
};

StartupCase MakeStartupCase(int32_t n) {
  const PaperWorkload& workload = Workload();
  StartupCase c{workload.ChainQuery(n), nullptr, ParamEnv()};
  Optimizer optimizer(&workload.model(), OptimizerOptions::Dynamic());
  auto plan = optimizer.Optimize(c.query, workload.CompileTimeEnv(false));
  DQEP_CHECK(plan.ok());
  c.root = plan->root;
  Rng rng(2);
  c.bound = workload.DrawBindings(&rng, c.query, false);
  return c;
}

/// Compiling the start-up program: once per cached plan, on the plan
/// cache's miss path.
void BM_StartupCompile(benchmark::State& state) {
  StartupCase c = MakeStartupCase(static_cast<int32_t>(state.range(0)));
  for (auto _ : state) {
    StartupProgram program(c.root);
    benchmark::DoNotOptimize(program);
  }
  state.counters["nodes"] = static_cast<double>(c.root->CountNodes());
}
BENCHMARK(BM_StartupCompile)->Arg(2)->Arg(4)->Arg(10);

/// Start-up resolution over a prebuilt program: what every plan-cache
/// hit pays.
void BM_StartupResolve(benchmark::State& state) {
  StartupCase c = MakeStartupCase(static_cast<int32_t>(state.range(0)));
  StartupProgram program(c.root);
  for (auto _ : state) {
    auto startup = ResolveDynamicPlan(program, Workload().model(), c.bound);
    benchmark::DoNotOptimize(startup);
  }
  state.counters["nodes"] = static_cast<double>(program.size());
}
BENCHMARK(BM_StartupResolve)->Arg(2)->Arg(4)->Arg(10);

void BM_OptimizeStatic(benchmark::State& state) {
  int32_t n = static_cast<int32_t>(state.range(0));
  const PaperWorkload& workload = Workload();
  Query query = workload.ChainQuery(n);
  ParamEnv env = workload.CompileTimeEnv(false);
  for (auto _ : state) {
    Optimizer optimizer(&workload.model(), OptimizerOptions::Static());
    benchmark::DoNotOptimize(optimizer.Optimize(query, env));
  }
}
BENCHMARK(BM_OptimizeStatic)->Arg(2)->Arg(4)->Arg(10);

void BM_OptimizeDynamic(benchmark::State& state) {
  int32_t n = static_cast<int32_t>(state.range(0));
  const PaperWorkload& workload = Workload();
  Query query = workload.ChainQuery(n);
  ParamEnv env = workload.CompileTimeEnv(false);
  for (auto _ : state) {
    Optimizer optimizer(&workload.model(), OptimizerOptions::Dynamic());
    benchmark::DoNotOptimize(optimizer.Optimize(query, env));
  }
}
BENCHMARK(BM_OptimizeDynamic)->Arg(2)->Arg(4)->Arg(10);

void BM_AccessModuleSerialize(benchmark::State& state) {
  const PaperWorkload& workload = Workload();
  Query query = workload.ChainQuery(static_cast<int32_t>(state.range(0)));
  Optimizer optimizer(&workload.model(), OptimizerOptions::Dynamic());
  auto plan = optimizer.Optimize(query, workload.CompileTimeEnv(false));
  DQEP_CHECK(plan.ok());
  AccessModule module(plan->root);
  for (auto _ : state) {
    benchmark::DoNotOptimize(module.Serialize());
  }
  state.counters["bytes"] = static_cast<double>(module.Serialize().size());
}
BENCHMARK(BM_AccessModuleSerialize)->Arg(4)->Arg(10);

void BM_AccessModuleDeserialize(benchmark::State& state) {
  const PaperWorkload& workload = Workload();
  Query query = workload.ChainQuery(static_cast<int32_t>(state.range(0)));
  Optimizer optimizer(&workload.model(), OptimizerOptions::Dynamic());
  auto plan = optimizer.Optimize(query, workload.CompileTimeEnv(false));
  DQEP_CHECK(plan.ok());
  std::string bytes = AccessModule(plan->root).Serialize();
  for (auto _ : state) {
    auto module = AccessModule::Deserialize(bytes);
    benchmark::DoNotOptimize(module);
  }
}
BENCHMARK(BM_AccessModuleDeserialize)->Arg(4)->Arg(10);

// --- Execution: tuple vs. batch ----------------------------------------------

/// Publishes each operator's counters (averaged per iteration) under a
/// path-prefixed name, e.g. "filter/0:file-scan.tuples".
void ExportCounters(benchmark::State& state, const ExecNode& node,
                    const std::string& prefix) {
  std::string path = prefix + node.op_name();
  const OperatorCounters& c = node.counters();
  state.counters[path + ".next_calls"] = benchmark::Counter(
      static_cast<double>(c.next_calls), benchmark::Counter::kAvgIterations);
  state.counters[path + ".tuples"] = benchmark::Counter(
      static_cast<double>(c.tuples), benchmark::Counter::kAvgIterations);
  if (c.batches > 0) {
    state.counters[path + ".batches"] = benchmark::Counter(
        static_cast<double>(c.batches), benchmark::Counter::kAvgIterations);
  }
  std::vector<const ExecNode*> children = node.child_nodes();
  for (size_t i = 0; i < children.size(); ++i) {
    ExportCounters(state, *children[i],
                   path + "/" + std::to_string(i) + ":");
  }
}

/// Publishes per-iteration buffer-pool statistics.  The pool is shared by
/// every benchmark in the binary, so the caller must ResetStats() before
/// its timed loop or the averages would mix in earlier benchmarks' I/O.
void ExportPoolCounters(benchmark::State& state, const BufferPool& pool) {
  state.counters["pool.hits"] = benchmark::Counter(
      static_cast<double>(pool.hits()), benchmark::Counter::kAvgIterations);
  state.counters["pool.misses"] = benchmark::Counter(
      static_cast<double>(pool.misses()), benchmark::Counter::kAvgIterations);
}

/// Runs `plan` to exhaustion once per iteration, without materializing
/// results.
void RunExecBenchmark(benchmark::State& state, const PhysNodePtr& plan) {
  PaperWorkload& workload = PopulatedWorkload();
  ParamEnv env;
  workload.db().buffer_pool().ResetStats();
  int64_t rows = 0;
  auto iter = BuildBatchExecutor(plan, workload.db(), env);
  DQEP_CHECK(iter.ok());
  TupleBatch batch;
  for (auto _ : state) {
    (*iter)->Open();
    while ((*iter)->Next(&batch)) {
      rows += batch.num_rows();
    }
    (*iter)->Close();
  }
  ExportCounters(state, **iter, "");
  ExportPoolCounters(state, workload.db().buffer_pool());
  state.SetItemsProcessed(rows);
}

void BM_ExecScan(benchmark::State& state) {
  const PaperWorkload& workload = PopulatedWorkload();
  PhysNodePtr plan =
      PhysNode::FileScan(workload.catalog(), /*relation=*/0);
  RunExecBenchmark(state, plan);
}
BENCHMARK(BM_ExecScan);

void BM_ExecScanFilter(benchmark::State& state) {
  const PaperWorkload& workload = PopulatedWorkload();
  SelectionPredicate pred;
  pred.attr = AttrRef{0, ExperimentColumns::kSelect};
  pred.op = CompareOp::kLt;
  pred.operand = Operand::Literal(
      workload.model().ValueForSelectivity(pred, /*sel=*/0.5));
  PhysNodePtr plan = PhysNode::Filter(
      {pred}, PhysNode::FileScan(workload.catalog(), /*relation=*/0));
  RunExecBenchmark(state, plan);
}
BENCHMARK(BM_ExecScanFilter);

void BM_ExecHashJoin(benchmark::State& state) {
  const PaperWorkload& workload = PopulatedWorkload();
  JoinPredicate join;
  join.left = AttrRef{0, ExperimentColumns::kJoinNext};
  join.right = AttrRef{1, ExperimentColumns::kJoinPrev};
  PhysNodePtr plan = PhysNode::HashJoin(
      {join}, PhysNode::FileScan(workload.catalog(), /*relation=*/0),
      PhysNode::FileScan(workload.catalog(), /*relation=*/1));
  RunExecBenchmark(state, plan);
}
BENCHMARK(BM_ExecHashJoin);

}  // namespace
}  // namespace dqep::bench

int main(int argc, char** argv) {
  return dqep::bench::RunUnifiedBenchmarkMain(argc, argv, "micro");
}
