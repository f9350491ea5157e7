#include "streams.h"

#include "logical/expr.h"
#include "workload/paper_workload.h"

namespace perfbench {

using dqep::CompareOp;
using dqep::ExperimentColumns;

namespace {

/// Distinct texts cycled by the pooled workloads.  Large enough that the
/// server never sees the same literals twice within a few hundred
/// queries; small enough that the output check evaluates each once.
constexpr int64_t kWarmPool = 1024;
constexpr int64_t kWidePool = 600;

/// wide_bindings templates as (first relation, length): Q1 on R1, Q2 on
/// R1-R2, a 3-way chain on R2-R4, so the full-scan branches cover R1..R4.
constexpr int32_t kWideShapes[][2] = {{0, 1}, {0, 2}, {1, 3}};
constexpr int64_t kWidePerShape = kWidePool / 3;

/// Selectivity ceiling of warm_chains and cold_templates selections:
/// tiny intermediate results, so planning and start-up dominate.
constexpr double kMaxNarrowSelectivity = 0.02;

constexpr int32_t kRelations = 10;

struct Op {
  const char* text;
  CompareOp op;
};
constexpr Op kOps[] = {{"<", CompareOp::kLt},
                       {"<=", CompareOp::kLe},
                       {"=", CompareOp::kEq},
                       {">=", CompareOp::kGe},
                       {">", CompareOp::kGt}};
constexpr int kNumOps = 5;
/// The optional predicates on `a` and `b`: none, or a range operator.
constexpr const Op* kRangeShapes[] = {nullptr, &kOps[0], &kOps[1], &kOps[3],
                                      &kOps[4]};

std::string Rel(int32_t relation) {
  return "R" + std::to_string(relation + 1);
}

/// "SELECT <select> FROM R<first+1>, ... WHERE <join chain> AND <preds>",
/// relations 0-based.
std::string ChainSql(const std::string& select, int32_t first, int32_t n,
                     const std::vector<std::string>& predicates) {
  std::string sql = "SELECT " + select + " FROM ";
  for (int32_t i = 0; i < n; ++i) {
    sql += (i > 0 ? ", " : "") + Rel(first + i);
  }
  std::string where;
  for (int32_t i = 0; i + 1 < n; ++i) {
    where += (where.empty() ? "" : " AND ") + Rel(first + i) + ".b = " +
             Rel(first + i + 1) + ".a";
  }
  for (const std::string& predicate : predicates) {
    where += (where.empty() ? "" : " AND ") + predicate;
  }
  return sql + " WHERE " + where;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* workload) {
  if (name == "warm_chains") {
    *workload = Workload::kWarmChains;
  } else if (name == "cold_templates") {
    *workload = Workload::kColdTemplates;
  } else if (name == "wide_bindings") {
    *workload = Workload::kWideBindings;
  } else {
    return false;
  }
  return true;
}

QueryStream::QueryStream(Workload workload, uint64_t seed,
                         const dqep::CostModel& model)
    : workload_(workload), model_(model), rng_(seed) {
  if (workload_ == Workload::kWideBindings) {
    // One seeded permutation of the strata per (template, relation).
    for (const auto& shape : kWideShapes) {
      for (int32_t i = 0; i < shape[1]; ++i) {
        std::vector<int64_t> strata(kWidePerShape);
        for (int64_t k = 0; k < kWidePerShape; ++k) {
          strata[static_cast<size_t>(k)] = k;
        }
        for (int64_t k = kWidePerShape - 1; k > 0; --k) {
          std::swap(strata[static_cast<size_t>(k)],
                    strata[static_cast<size_t>(rng_.NextInt(0, k))]);
        }
        wide_strata_.push_back(std::move(strata));
      }
    }
  }
}

std::pair<int64_t, std::string> QueryStream::Next() {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t pool = workload_ == Workload::kWarmChains    ? kWarmPool
                       : workload_ == Workload::kWideBindings ? kWidePool
                                                              : 0;
  const int64_t id = pool > 0 ? position_ % pool : position_;
  ++position_;
  if (id == static_cast<int64_t>(texts_.size())) {
    GenerateLocked();
  }
  return {id, texts_[static_cast<size_t>(id)]};
}

std::string QueryStream::Text(int64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return texts_.at(static_cast<size_t>(id));
}

void QueryStream::GenerateLocked() {
  switch (workload_) {
    case Workload::kWarmChains:
      texts_.push_back(WarmChain());
      break;
    case Workload::kColdTemplates:
      texts_.push_back(ColdTemplate());
      break;
    case Workload::kWideBindings:
      texts_.push_back(WideBinding());
      break;
  }
}

int64_t QueryStream::Literal(int32_t relation, int32_t column, CompareOp op,
                             double selectivity) const {
  // Only the column and the operator matter to ValueForSelectivity.
  dqep::SelectionPredicate predicate;
  predicate.attr = dqep::AttrRef{relation, column};
  predicate.op = op;
  return model_.ValueForSelectivity(predicate, selectivity).AsInt64();
}

std::string QueryStream::WarmChain() {
  // Templates in strict rotation, so every seed runs the same mix.
  static constexpr int32_t kSizes[] = {4, 6, 10};
  const int32_t n = kSizes[texts_.size() % 3];
  std::vector<std::string> predicates;
  for (int32_t i = 0; i < n; ++i) {
    const double selectivity = rng_.NextDouble() * kMaxNarrowSelectivity;
    predicates.push_back(
        Rel(i) + ".s < " +
        std::to_string(Literal(i, ExperimentColumns::kSelect, CompareOp::kLt,
                               selectivity)));
  }
  return ChainSql("*", 0, n, predicates);
}

std::string QueryStream::ColdTemplate() {
  // Chain lengths 2..6 in strict rotation.  Shape per relation: an
  // operator on `s` (narrow, so results stay tiny) and optional mild
  // predicates on `a` and `b` — 125 shapes.  Offset and shapes are
  // redrawn until the template is new to this stream.
  const int32_t n = 2 + static_cast<int32_t>(texts_.size() % 5);
  for (;;) {
    const int32_t first = static_cast<int32_t>(rng_.NextInt(0, kRelations - n));
    std::string key = std::to_string(first) + ":" + std::to_string(n);
    std::vector<std::string> predicates;
    for (int32_t i = first; i < first + n; ++i) {
      const Op& s_op = kOps[rng_.NextInt(0, kNumOps - 1)];
      key += std::string(":") + s_op.text;
      predicates.push_back(
          Rel(i) + ".s " + s_op.text + " " +
          std::to_string(Literal(i, ExperimentColumns::kSelect, s_op.op,
                                 rng_.NextDouble() * kMaxNarrowSelectivity)));
      for (const auto& [column, name] :
           {std::pair{ExperimentColumns::kJoinPrev, "a"},
            std::pair{ExperimentColumns::kJoinNext, "b"}}) {
        const Op* op = kRangeShapes[rng_.NextInt(0, 4)];
        key += std::string(",") + (op == nullptr ? "" : op->text);
        if (op != nullptr) {
          predicates.push_back(
              Rel(i) + "." + name + " " + op->text + " " +
              std::to_string(Literal(i, column, op->op,
                                     rng_.NextDouble(0.5, 1.0))));
        }
      }
    }
    if (cold_templates_.insert(key).second) {
      return ChainSql("*", first, n, predicates);
    }
  }
}

std::string QueryStream::WideBinding() {
  // Templates in strict rotation, and the selectivities of each
  // template's selections a Latin hypercube over U[0, 1]: every seed
  // covers the selectivity range evenly, so the pool's cost mix (and the
  // latency tail) barely moves from seed to seed.
  const size_t position = texts_.size();
  const size_t shape = position % 3;
  const auto k = static_cast<size_t>(position / 3);
  const int32_t first = kWideShapes[shape][0];
  const int32_t n = kWideShapes[shape][1];
  size_t strata = 0;
  for (size_t s = 0; s < shape; ++s) {
    strata += static_cast<size_t>(kWideShapes[s][1]);
  }
  std::string select;
  std::vector<std::string> predicates;
  for (int32_t i = 0; i < n; ++i) {
    const double selectivity =
        (static_cast<double>(wide_strata_[strata + static_cast<size_t>(i)][k]) +
         rng_.NextDouble()) /
        static_cast<double>(kWidePerShape);
    select += (select.empty() ? "" : ", ") + Rel(first + i) + ".s";
    predicates.push_back(
        Rel(first + i) + ".s < " +
        std::to_string(Literal(first + i, ExperimentColumns::kSelect,
                               CompareOp::kLt, selectivity)));
  }
  return ChainSql(select, first, n, predicates);
}

}  // namespace perfbench
