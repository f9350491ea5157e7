#include "workload/paper_workload.h"

#include <string>

#include "storage/data_generator.h"

namespace dqep {

namespace {

constexpr int32_t kNumRelations = 10;
constexpr int32_t kRecordBytes = 512;
constexpr int64_t kMinCardinality = 100;
constexpr int64_t kMaxCardinality = 1000;
constexpr double kMinDomainFactor = 0.2;
constexpr double kMaxDomainFactor = 1.25;

}  // namespace

Result<std::unique_ptr<PaperWorkload>> PaperWorkload::Create(
    uint64_t seed, bool populate, int32_t buffer_pool_pages,
    double skew_exponent) {
  auto workload = std::unique_ptr<PaperWorkload>(new PaperWorkload());
  workload->db_ = std::make_unique<Database>(buffer_pool_pages);
  Rng rng(seed);
  for (int32_t i = 1; i <= kNumRelations; ++i) {
    int64_t cardinality = rng.NextInt(kMinCardinality, kMaxCardinality);
    auto domain = [&rng, cardinality]() {
      double factor =
          rng.NextDouble(kMinDomainFactor, kMaxDomainFactor);
      return std::max<int64_t>(
          1, static_cast<int64_t>(factor * static_cast<double>(cardinality)));
    };
    std::vector<ColumnInfo> columns = {
        {.name = "a", .type = ColumnType::kInt64, .domain_size = domain(),
         .width_bytes = 8},
        {.name = "b", .type = ColumnType::kInt64, .domain_size = domain(),
         .width_bytes = 8},
        {.name = "s", .type = ColumnType::kInt64, .domain_size = domain(),
         .width_bytes = 8},
        {.name = "pay", .type = ColumnType::kString, .domain_size = 1,
         .width_bytes = kRecordBytes - 3 * 8},
    };
    Result<RelationId> id = workload->db_->CreateTable(
        "R" + std::to_string(i), std::move(columns), cardinality);
    if (!id.ok()) {
      return id.status();
    }
    // Unclustered B-trees on every selection and join attribute (paper §6).
    DQEP_RETURN_IF_ERROR(
        workload->db_->CreateIndex(*id, ExperimentColumns::kJoinPrev));
    DQEP_RETURN_IF_ERROR(
        workload->db_->CreateIndex(*id, ExperimentColumns::kJoinNext));
    DQEP_RETURN_IF_ERROR(
        workload->db_->CreateIndex(*id, ExperimentColumns::kSelect));
  }
  if (populate) {
    DQEP_RETURN_IF_ERROR(GenerateDatabaseData(seed ^ 0x9e3779b9,
                                              workload->db_.get(),
                                              skew_exponent));
  }
  workload->model_ = std::make_unique<CostModel>(&workload->db_->catalog(),
                                                 workload->config_);
  return workload;
}

Query PaperWorkload::ChainQuery(int32_t num_relations) const {
  DQEP_CHECK_GE(num_relations, 1);
  DQEP_CHECK_LE(num_relations, kNumRelations);
  Query query;
  for (int32_t i = 0; i < num_relations; ++i) {
    RelationTerm term;
    term.relation = i;  // RelationIds are assigned densely from 0.
    SelectionPredicate pred;
    pred.attr = AttrRef{term.relation, ExperimentColumns::kSelect};
    pred.op = CompareOp::kLt;
    pred.operand = Operand::Param(i);
    term.predicates.push_back(pred);
    query.AddTerm(std::move(term));
  }
  for (int32_t i = 0; i + 1 < num_relations; ++i) {
    JoinPredicate join;
    join.left = AttrRef{i, ExperimentColumns::kJoinNext};
    join.right = AttrRef{i + 1, ExperimentColumns::kJoinPrev};
    query.AddJoin(join);
  }
  return query;
}

std::string PaperWorkload::ChainSql(int32_t n,
                                    const std::vector<int64_t>& literals) {
  std::string sql = "SELECT * FROM R1";
  for (int32_t i = 2; i <= n; ++i) {
    sql += ", R" + std::to_string(i);
  }
  std::string where;
  for (int32_t i = 1; i < n; ++i) {
    where += " AND R" + std::to_string(i) + ".b = R" +
             std::to_string(i + 1) + ".a";
  }
  for (int32_t i = 1; i <= n; ++i) {
    where += " AND R" + std::to_string(i) + ".s < " +
             std::to_string(literals[static_cast<size_t>(i - 1)]);
  }
  return sql + " WHERE" + where.substr(4);
}

std::vector<int64_t> PaperWorkload::DrawChainLiterals(
    int32_t n, Rng* rng, double max_selectivity) const {
  std::vector<int64_t> literals;
  for (int32_t i = 0; i < n; ++i) {
    SelectionPredicate pred{AttrRef{i, ExperimentColumns::kSelect},
                            CompareOp::kLt,
                            Operand::Literal(Value(static_cast<int64_t>(0)))};
    literals.push_back(
        model_->ValueForSelectivity(pred, rng->NextDouble() * max_selectivity)
            .AsInt64());
  }
  return literals;
}

const std::vector<int32_t>& PaperWorkload::PaperQuerySizes() {
  static const std::vector<int32_t> kSizes = {1, 2, 4, 6, 10};
  return kSizes;
}

ParamEnv PaperWorkload::CompileTimeEnv(bool uncertain_memory) const {
  Interval memory =
      uncertain_memory
          ? config_.UncertainMemoryPages()
          : Interval::Point(config_.expected_memory_pages);
  return ParamEnv(memory);
}

ParamEnv PaperWorkload::BindingsAt(const Query& query,
                                   double selectivity) const {
  ParamEnv env = CompileTimeEnv(/*uncertain_memory=*/false);
  for (const RelationTerm& term : query.terms()) {
    for (const SelectionPredicate& pred : term.predicates) {
      if (pred.HasParam()) {
        env.Bind(pred.operand.param(),
                 model_->ValueForSelectivity(pred, selectivity));
      }
    }
  }
  return env;
}

ParamEnv PaperWorkload::DrawBindings(Rng* rng, const Query& query,
                                     bool uncertain_memory) const {
  DQEP_CHECK(rng != nullptr);
  Interval memory =
      uncertain_memory
          ? Interval::Point(rng->NextDouble(config_.memory_pages_min,
                                            config_.memory_pages_max))
          : Interval::Point(config_.expected_memory_pages);
  ParamEnv env(memory);
  for (const RelationTerm& term : query.terms()) {
    for (const SelectionPredicate& pred : term.predicates) {
      if (pred.HasParam()) {
        double selectivity = rng->NextDouble();
        env.Bind(pred.operand.param(),
                 model_->ValueForSelectivity(pred, selectivity));
      }
    }
  }
  return env;
}

}  // namespace dqep
