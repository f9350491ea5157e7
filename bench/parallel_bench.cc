// Thread-count sweep for the exchange operator: scan, scan+filter, and
// hash-join pipelines at 1/2/4/8 workers over tables large enough that
// morsel dispatch, not setup, dominates.  Items-per-second across the
// Arg=threads rows gives the speedup curve checked into
// BENCH_parallel.json.
//
// `--json` emits the unified bench schema (see bench/unified_report.h).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/unified_report.h"
#include "common/rng.h"
#include "exec/executor.h"
#include "physical/plan.h"
#include "storage/data_generator.h"
#include "storage/database.h"

namespace dqep::bench {
namespace {

// The paper workload's relations (<1000 rows) finish in microseconds, too
// small to amortize worker dispatch; the sweep uses dedicated tables.
constexpr int64_t kProbeRows = 200'000;
constexpr int64_t kBuildRows = 50'000;
constexpr int64_t kDomain = 50'000;

std::vector<ColumnInfo> SweepColumns() {
  std::vector<ColumnInfo> columns;
  for (const char* name : {"k0", "k1", "s", "pay"}) {
    ColumnInfo column;
    column.name = name;
    column.type = ColumnType::kInt64;
    column.domain_size = kDomain;
    column.width_bytes = 8;
    columns.push_back(column);
  }
  return columns;
}

struct SweepDb {
  Database db{/*buffer_pool_pages=*/8192};
  RelationId probe = kInvalidRelation;
  RelationId build = kInvalidRelation;
};

SweepDb& Db() {
  static SweepDb* instance = [] {
    auto* sweep = new SweepDb();
    auto probe = sweep->db.CreateTable("probe", SweepColumns(), kProbeRows);
    auto build = sweep->db.CreateTable("build", SweepColumns(), kBuildRows);
    DQEP_CHECK(probe.ok());
    DQEP_CHECK(build.ok());
    sweep->probe = *probe;
    sweep->build = *build;
    Rng rng(11);
    for (RelationId id : {sweep->probe, sweep->build}) {
      Rng table_rng = rng.Fork();
      Status status = GenerateTableData(&table_rng, &sweep->db.table(id));
      DQEP_CHECK(status.ok());
    }
    return sweep;
  }();
  return *instance;
}

/// Runs `plan` to exhaustion once per iteration with state.range(0)
/// worker threads.
void RunSweep(benchmark::State& state, const PhysNodePtr& plan) {
  SweepDb& sweep = Db();
  ParamEnv env;
  ExecOptions options;
  options.threads = static_cast<int32_t>(state.range(0));
  state.SetLabel("threads=" + std::to_string(options.threads));
  auto iter = BuildParallelBatchExecutor(plan, sweep.db, env, options);
  DQEP_CHECK(iter.ok());
  // The pool is shared across the whole sweep; reset so the hit/miss
  // averages below describe this benchmark's iterations only.
  sweep.db.buffer_pool().ResetStats();
  int64_t rows = 0;
  TupleBatch batch;
  for (auto _ : state) {
    (*iter)->Open();
    while ((*iter)->Next(&batch)) {
      rows += batch.num_rows();
    }
    (*iter)->Close();
  }
  const BufferPool& pool = sweep.db.buffer_pool();
  state.counters["pool.hits"] = benchmark::Counter(
      static_cast<double>(pool.hits()), benchmark::Counter::kAvgIterations);
  state.counters["pool.misses"] = benchmark::Counter(
      static_cast<double>(pool.misses()), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(rows);
}

void BM_ParallelScan(benchmark::State& state) {
  const SweepDb& sweep = Db();
  RunSweep(state, PhysNode::FileScan(sweep.db.catalog(), sweep.probe));
}
BENCHMARK(BM_ParallelScan)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ParallelScanFilter(benchmark::State& state) {
  const SweepDb& sweep = Db();
  SelectionPredicate pred;
  pred.attr = AttrRef{sweep.probe, 2};
  pred.op = CompareOp::kLt;
  pred.operand = Operand::Literal(Value(kDomain / 2));  // ~50% selectivity
  RunSweep(state,
           PhysNode::Filter({pred}, PhysNode::FileScan(sweep.db.catalog(),
                                                       sweep.probe)));
}
BENCHMARK(BM_ParallelScanFilter)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_ParallelHashJoin(benchmark::State& state) {
  const SweepDb& sweep = Db();
  JoinPredicate join;
  join.left = AttrRef{sweep.build, 0};
  join.right = AttrRef{sweep.probe, 1};
  // Serial shared build over 50k rows, parallel probe over 200k (~1 match
  // per probe row at domain 50k).
  RunSweep(state, PhysNode::HashJoin(
                      {join}, PhysNode::FileScan(sweep.db.catalog(),
                                                 sweep.build),
                      PhysNode::FileScan(sweep.db.catalog(), sweep.probe)));
}
BENCHMARK(BM_ParallelHashJoin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

}  // namespace
}  // namespace dqep::bench

int main(int argc, char** argv) {
  return dqep::bench::RunUnifiedBenchmarkMain(argc, argv, "parallel");
}
