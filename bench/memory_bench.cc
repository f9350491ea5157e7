// Memory-budget sweep (beyond the paper): execute the five paper queries
// under an enforced memory grant from the system minimum (16 pages) to
// the maximum (112 pages) and report, per budget, the tracked peak,
// spill volume, physical I/O, and the join methods choose-plan resolved
// to at that grant.
//
// Two claims are checked.  First, enforcement: at every budget the peak
// tracked bytes stay at or under the grant while results stay identical
// to the unbounded run (the acceptance criterion of the spill work; the
// differential tests assert it, this bench quantifies the cost).  Second,
// the choose-plan crossover: as the grant shrinks, start-up resolution
// flips joins from the memory-hungry hash method toward index joins, and
// whatever hash joins remain turn into spilling grace joins — so spill
// I/O does not grow monotonically as memory falls; the plan adapts first.
//
// Output is a JSON document on stdout in the unified bench schema
// ({bench, config, rows, metrics} — see bench/bench_common.h); the
// committed copy lives in BENCH_memory.json (regeneration:
// `build/bench/memory_bench --json > BENCH_memory.json`).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "runtime/startup.h"
#include "tests/reference_eval.h"

namespace dqep::bench {
namespace {

const int64_t kBudgets[] = {16, 24, 32, 48, 64, 80, 96, 112};
constexpr int kInvocations = 20;

/// Joins by method in a resolved (choose-free) plan.
struct JoinMix {
  int64_t hash = 0;
  int64_t index = 0;
  int64_t merge = 0;
};

void CountJoins(const PhysNodePtr& node, JoinMix* mix) {
  switch (node->kind()) {
    case PhysOpKind::kHashJoin:
      ++mix->hash;
      break;
    case PhysOpKind::kIndexJoin:
      ++mix->index;
      break;
    case PhysOpKind::kMergeJoin:
      ++mix->merge;
      break;
    default:
      break;
  }
  for (const PhysNodePtr& child : node->children()) {
    CountJoins(child, mix);
  }
}

/// Per-(query, budget) totals over the invocations.
struct SweepPoint {
  int64_t peak_bytes = 0;  // max over invocations
  int64_t temp_files = 0;
  int64_t tuples_spilled = 0;
  int64_t bytes_spilled = 0;
  int64_t page_reads = 0;
  int64_t page_writes = 0;
  int64_t rows = 0;
  int64_t overflows = 0;
  JoinMix joins;
  bool results_match = true;
};

/// Selection bindings at the model's U[0,1]-selectivity values, with the
/// memory grant pinned to `budget_pages` — the number both choose-plan
/// and the ExecContext see.
ParamEnv BoundEnv(const PaperWorkload& workload, Rng* rng,
                  const Query& query, int64_t budget_pages) {
  ParamEnv bound(Interval::Point(static_cast<double>(budget_pages)));
  for (const RelationTerm& term : query.terms()) {
    for (const SelectionPredicate& pred : term.predicates) {
      bound.Bind(pred.operand.param(), workload.model().ValueForSelectivity(
                                           pred, rng->NextDouble(0, 1)));
    }
  }
  return bound;
}

SweepPoint SweepQueryAtBudget(PaperWorkload& workload,
                              const CompiledQuery& compiled,
                              const Query& query, int64_t budget) {
  SweepPoint point;
  Rng rng(kBindingSeed + static_cast<uint64_t>(budget));
  for (int i = 0; i < kInvocations; ++i) {
    ParamEnv bound = BoundEnv(workload, &rng, query, budget);
    auto startup =
        ResolveDynamicPlan(compiled.plan.root, workload.model(), bound);
    if (!startup.ok()) {
      std::fprintf(stderr, "startup failed: %s\n",
                   startup.status().ToString().c_str());
      std::abort();
    }
    if (i == 0) {
      CountJoins(startup->resolved, &point.joins);
    }

    ExecOptions options;
    auto ctx = MakeExecContext(bound, workload.config(), options);
    workload.db().ResetIoStats();
    auto rows = ExecutePlan(startup->resolved, workload.db(), bound, *ctx);
    if (!rows.ok()) {
      std::fprintf(stderr, "execution failed: %s\n",
                   rows.status().ToString().c_str());
      std::abort();
    }
    IoStats io = workload.db().page_store().stats();
    point.peak_bytes = std::max(point.peak_bytes, ctx->tracker().peak_bytes());
    point.temp_files += ctx->temp_files_created();
    point.tuples_spilled += ctx->tuples_spilled();
    point.bytes_spilled += ctx->bytes_spilled();
    point.page_reads += io.page_reads;
    point.page_writes += io.page_writes;
    point.rows += static_cast<int64_t>(rows->size());
    point.overflows += ctx->overflows();

    // Unbounded reference on the same resolved plan: identical multiset.
    auto unbounded = ExecutePlan(startup->resolved, workload.db(), bound);
    if (!unbounded.ok() ||
        Canonicalize(*rows) != Canonicalize(*unbounded)) {
      point.results_match = false;
    }
  }
  return point;
}

void Run() {
  std::unique_ptr<PaperWorkload> workload =
      MustCreateWorkload(/*populate=*/true);

  std::vector<JsonObject> rows;
  const std::vector<int32_t>& sizes = PaperWorkload::PaperQuerySizes();
  for (size_t qi = 0; qi < sizes.size(); ++qi) {
    int32_t n = sizes[qi];
    Query query = workload->ChainQuery(n);
    // Compile with the grant uncertain so the dynamic plan keeps
    // memory-dependent alternatives open for start-up to pick from.
    CompiledQuery compiled = MustCompile(*workload, query,
                                         OptimizerOptions::Dynamic(),
                                         /*uncertain_memory=*/true);
    for (int64_t budget : kBudgets) {
      SweepPoint p = SweepQueryAtBudget(*workload, compiled, query, budget);
      rows.push_back(JsonObject()
                         .Str("query", "Q" + std::to_string(qi + 1))
                         .Int("relations", n)
                         .Int("memory_pages", budget)
                         .Int("budget_bytes", budget * kPageSize)
                         .Int("peak_bytes_max", p.peak_bytes)
                         .Int("temp_files", p.temp_files)
                         .Int("tuples_spilled", p.tuples_spilled)
                         .Int("bytes_spilled", p.bytes_spilled)
                         .Int("page_reads", p.page_reads)
                         .Int("page_writes", p.page_writes)
                         .Int("rows", p.rows)
                         .Int("forced_overflows", p.overflows)
                         .Int("hash_joins", p.joins.hash)
                         .Int("index_joins", p.joins.index)
                         .Int("merge_joins", p.joins.merge)
                         .Bool("results_match", p.results_match));
    }
  }
  PrintBenchDocument("memory",
                     JsonObject()
                         .Int("invocations_per_point", kInvocations)
                         .Int("workload_seed", kWorkloadSeed)
                         .Int("binding_seed", kBindingSeed)
                         .Array("budgets_pages", kBudgets),
                     rows);
}

}  // namespace
}  // namespace dqep::bench

int main(int argc, char** argv) {
  // Output is always the unified JSON document; `--json` is accepted so
  // all three bench binaries share one CLI convention.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) {
      std::fprintf(stderr, "unknown flag: %s (only --json is accepted)\n",
                   argv[i]);
      return 1;
    }
  }
  dqep::bench::Run();
  return 0;
}
