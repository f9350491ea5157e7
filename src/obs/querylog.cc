#include "obs/querylog.h"

#include <cinttypes>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/json_util.h"
#include "obs/trace.h"
#include "physical/costing.h"
#include "runtime/query_pipeline.h"

namespace dqep {
namespace obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Appends `"key": value` members to one JSON object, comma-separated.
class JsonFields {
 public:
  explicit JsonFields(std::string* out) : out_(out) {}

  void Key(const char* key) {
    *out_ += first_ ? "\"" : ", \"";
    first_ = false;
    *out_ += key;
    *out_ += "\": ";
  }
  void Number(const char* key, double v) {
    Key(key);
    AppendJsonNumber(out_, v);
  }
  void Int(const char* key, int64_t v) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    *out_ += buf;
  }
  void String(const char* key, const std::string& v) {
    Key(key);
    *out_ += '"';
    *out_ += JsonEscape(v);
    *out_ += '"';
  }

 private:
  std::string* out_;
  bool first_ = true;
};

void AppendTerms(std::string* out, const CostTerms& terms) {
  *out += "{";
  JsonFields f(out);
  f.Number("seq_pages", terms.seq_pages);
  f.Number("random_pages", terms.random_pages);
  f.Number("tuple_ops", terms.tuple_ops);
  f.Number("compare_ops", terms.compare_ops);
  f.Number("hash_ops", terms.hash_ops);
  *out += "}";
}

/// Number when present and finite, +infinity otherwise (the writer
/// encodes infinities as null).
double NumberOrInf(const JsonValue& object, const char* key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->is_number() ? v->number : kInf;
}

bool ParseRecord(const JsonValue& doc, QueryRecord* record) {
  if (!doc.is_object()) {
    return false;
  }
  record->query = doc.StringOr("query", "");
  const JsonValue* hash = doc.Find("query_hash");
  if (hash != nullptr && hash->is_string()) {
    record->query_hash =
        std::strtoull(hash->string_value.c_str(), nullptr, 16);
  }
  record->query_template = doc.StringOr("query_template", "");
  record->plan_cache = doc.StringOr("plan_cache", "");
  if (const JsonValue* bindings = doc.Find("bindings");
      bindings != nullptr && bindings->is_object()) {
    for (const auto& [name, value] : bindings->members) {
      if (value.is_number()) {
        record->bindings.emplace_back(name,
                                      static_cast<int64_t>(value.number));
      }
    }
  }
  record->session_id = doc.IntOr("session_id", 0);
  record->threads = static_cast<int32_t>(doc.IntOr("threads", 1));
  record->memory_pages = doc.NumberOr("memory_pages", 0.0);
  record->predicted_cost = doc.NumberOr("predicted_cost", 0.0);
  record->decision_count = doc.IntOr("decision_count", 0);
  record->cost_evaluations = doc.IntOr("cost_evaluations", 0);
  record->resolve_cpu_seconds = doc.NumberOr("resolve_cpu_seconds", 0.0);
  record->total_seconds = doc.NumberOr("total_seconds", 0.0);
  record->grant_wait_seconds = doc.NumberOr("grant_wait_seconds", 0.0);
  record->exec_seconds = doc.NumberOr("exec_seconds", 0.0);
  record->actual_seconds = doc.NumberOr("actual_seconds", 0.0);
  record->actual_cpu_seconds = doc.NumberOr("actual_cpu_seconds", 0.0);
  record->result_rows = doc.IntOr("result_rows", 0);
  record->peak_memory_bytes = doc.IntOr("peak_memory_bytes", 0);
  record->spill_files = doc.IntOr("spill_files", 0);
  record->spill_tuples = doc.IntOr("spill_tuples", 0);
  record->pool_hits = doc.IntOr("pool_hits", 0);
  record->pool_misses = doc.IntOr("pool_misses", 0);
  record->reopt_checkpoints = doc.IntOr("reopt_checkpoints", 0);
  record->reopt_triggers = doc.IntOr("reopt_triggers", 0);
  record->reopt_adoptions = doc.IntOr("reopt_adoptions", 0);
  record->reopt_seconds = doc.NumberOr("reopt_seconds", 0.0);
  record->reopt_cost_pre = doc.NumberOr("reopt_cost_pre", 0.0);
  record->reopt_cost_post = doc.NumberOr("reopt_cost_post", 0.0);
  if (const JsonValue* ops = doc.Find("operators");
      ops != nullptr && ops->is_array()) {
    for (const JsonValue& item : ops->items) {
      if (!item.is_object()) {
        return false;
      }
      QueryOperator op;
      op.op = item.StringOr("op", "");
      op.depth = static_cast<int>(item.IntOr("depth", 0));
      op.est_cost_lo = item.NumberOr("est_cost_lo", 0.0);
      op.est_cost_hi = item.NumberOr("est_cost_hi", 0.0);
      op.est_cost_point = item.NumberOr("est_cost_point", 0.0);
      op.est_rows_lo = item.NumberOr("est_rows_lo", 0.0);
      op.est_rows_hi = item.NumberOr("est_rows_hi", 0.0);
      op.have_actual = item.Find("actual_seconds") != nullptr;
      op.actual_seconds = item.NumberOr("actual_seconds", 0.0);
      op.actual_cpu_seconds = item.NumberOr("actual_cpu_seconds", 0.0);
      op.self_seconds = item.NumberOr("self_seconds", 0.0);
      op.actual_rows = item.IntOr("actual_rows", 0);
      if (const JsonValue* terms = item.Find("terms");
          terms != nullptr && terms->is_object()) {
        op.have_terms = true;
        op.terms.seq_pages = terms->NumberOr("seq_pages", 0.0);
        op.terms.random_pages = terms->NumberOr("random_pages", 0.0);
        op.terms.tuple_ops = terms->NumberOr("tuple_ops", 0.0);
        op.terms.compare_ops = terms->NumberOr("compare_ops", 0.0);
        op.terms.hash_ops = terms->NumberOr("hash_ops", 0.0);
      }
      record->operators.push_back(std::move(op));
    }
  }
  if (const JsonValue* decisions = doc.Find("decisions");
      decisions != nullptr && decisions->is_array()) {
    for (const JsonValue& item : decisions->items) {
      if (!item.is_object()) {
        return false;
      }
      QueryDecision d;
      d.depth = static_cast<int>(item.IntOr("depth", 0));
      d.alternatives = item.IntOr("alternatives", 0);
      d.chosen = item.IntOr("chosen", 0);
      d.chosen_op = item.StringOr("chosen_op", "");
      d.chosen_est = NumberOrInf(item, "chosen_est");
      d.best_other_est = NumberOrInf(item, "best_other_est");
      d.have_actual = item.Find("actual_seconds") != nullptr;
      d.actual_seconds = item.NumberOr("actual_seconds", 0.0);
      d.have_regret = item.Find("regret") != nullptr;
      d.regret = item.NumberOr("regret", 0.0);
      record->decisions.push_back(std::move(d));
    }
  }
  return true;
}

/// The start-up summary and re-opt counts (either source may be null).
void FillSummary(const StartupResult* startup,
                 const std::vector<ReoptCheckpoint>* reopt,
                 QueryRecord* record) {
  if (startup != nullptr) {
    record->predicted_cost = startup->execution_cost;
    record->decision_count = startup->decisions;
    record->cost_evaluations = startup->cost_evaluations;
    record->resolve_cpu_seconds = startup->measured_cpu_seconds;
  }
  if (reopt == nullptr) {
    return;
  }
  record->reopt_checkpoints = static_cast<int64_t>(reopt->size());
  for (const ReoptCheckpoint& cp : *reopt) {
    record->reopt_adoptions += cp.adopted ? 1 : 0;
    if (!cp.triggered) {
      continue;
    }
    ++record->reopt_triggers;
    record->reopt_seconds += cp.reopt_seconds;
    record->reopt_cost_pre = cp.pre_cost;
    record->reopt_cost_post = cp.post_cost;
  }
}

}  // namespace

double QueryRecord::RegretSeconds() const {
  double sum = 0.0;
  for (const QueryDecision& d : decisions) {
    if (d.have_regret) {
      sum += d.regret;
    }
  }
  return sum;
}

QueryRecord BuildQueryRecord(const AnalyzeInput& input,
                             const std::vector<AnalyzeRow>& rows,
                             const CostModel* model,
                             const ParamEnv& bound_env) {
  QueryRecord record;
  FillSummary(input.startup, input.reopt, &record);
  if (input.resolved_root == nullptr) {
    return record;
  }
  // Bound-point estimates and unit-operation counts: the compile-time
  // interval annotations on the plan can't provide either.
  PlanEstimateMap points;
  PlanTermsMap terms;
  if (model != nullptr) {
    points = EstimatePlan(*input.resolved_root, *model, bound_env,
                          EstimationMode::kExpectedValue);
    terms = ComputePlanTerms(*input.resolved_root, *model, bound_env);
  }

  for (const AnalyzeRow& row : rows) {
    if (row.kind == AnalyzeRow::Kind::kDecision) {
      QueryDecision d;
      d.depth = row.depth;
      d.alternatives = static_cast<int64_t>(row.alternatives);
      d.chosen = static_cast<int64_t>(row.chosen);
      d.chosen_op = row.chosen_op;
      d.chosen_est = row.chosen_est;
      d.best_other_est = row.best_other_est;
      d.have_actual = row.have_actual;
      d.actual_seconds = row.actual_seconds;
      d.have_regret = row.have_regret;
      d.regret = row.regret;
      record.decisions.push_back(std::move(d));
      continue;
    }
    QueryOperator op;
    op.op = row.op;
    op.depth = row.depth;
    op.est_cost_lo = row.est_cost.lo();
    op.est_cost_hi = row.est_cost.hi();
    op.est_rows_lo = row.est_rows.lo();
    op.est_rows_hi = row.est_rows.hi();
    op.have_actual = row.have_actual;
    op.actual_seconds = row.actual_seconds;
    op.actual_cpu_seconds = row.actual_cpu_seconds;
    op.actual_rows = row.actual_rows;
    auto point = points.find(row.plan_node);
    auto term = terms.find(row.plan_node);
    if (point != points.end() && term != terms.end()) {
      op.est_cost_point = point->second.cost.lo();
      op.terms = term->second;
      op.have_terms = true;
    }
    record.operators.push_back(std::move(op));
  }

  // Exclusive wall share: inclusive minus the direct children's inclusive
  // seconds.  Children of the operator at pre-order position i / depth d
  // are the depth d+1 operator rows before the subtree ends (first row at
  // depth <= d).  Missing exec subtrees (e.g. an index join's inner
  // B-tree probes) contribute nothing, which correctly leaves their time
  // in the parent that actually drove the work.
  size_t op_index = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].kind != AnalyzeRow::Kind::kOperator) {
      continue;
    }
    QueryOperator& op = record.operators[op_index++];
    if (!op.have_actual) {
      continue;
    }
    double child_sum = 0.0;
    for (size_t j = i + 1; j < rows.size(); ++j) {
      if (rows[j].depth <= rows[i].depth) {
        break;
      }
      if (rows[j].kind == AnalyzeRow::Kind::kOperator &&
          rows[j].depth == rows[i].depth + 1 && rows[j].have_actual) {
        child_sum += rows[j].actual_seconds;
      }
    }
    op.self_seconds = std::max(0.0, op.actual_seconds - child_sum);
  }

  if (!record.operators.empty() && record.operators.front().have_actual) {
    record.actual_seconds = record.operators.front().actual_seconds;
    record.actual_cpu_seconds = record.operators.front().actual_cpu_seconds;
    record.result_rows = record.operators.front().actual_rows;
  }
  return record;
}

QueryRecord BuildQueryRecord(const QueryRun& run, const AnalyzeInput& input,
                             const std::vector<AnalyzeRow>& rows,
                             bool with_terms) {
  const PreparedQuery& prepared = run.prepared;
  QueryRecord record = BuildQueryRecord(
      input, rows, with_terms ? prepared.request.model : nullptr,
      prepared.planned.bound);
  record.query = prepared.sql;
  record.query_hash = prepared.planned.fingerprint;
  record.query_template = prepared.planned.template_text;
  record.plan_cache = prepared.cache_status();
  record.bindings = prepared.HostBindings();
  record.threads = run.threads;
  record.memory_pages = prepared.request.memory_pages;
  if (input.startup == nullptr) {
    // No analyze walk: summarize what AnalyzeInputFor would point at.
    FillSummary(&prepared.startup,
                run.reoptimized ? &run.checkpoints : nullptr, &record);
  }
  record.exec_seconds = run.exec_seconds;
  record.result_rows = static_cast<int64_t>(run.rows.size());
  record.peak_memory_bytes = run.peak_memory_bytes;
  record.spill_files = run.spill_files;
  record.spill_tuples = run.spill_tuples;
  return record;
}

std::string RenderQueryRecordJson(const QueryRecord& record) {
  std::string out = "{";
  JsonFields f(&out);
  f.Int("v", 3);
  f.String("query", record.query);
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, record.query_hash);
  f.String("query_hash", hash);
  if (!record.query_template.empty()) {
    f.String("query_template", record.query_template);
  }
  if (!record.plan_cache.empty()) {
    f.String("plan_cache", record.plan_cache);
  }
  f.Key("bindings");
  out += "{";
  JsonFields bindings(&out);
  for (const auto& [name, value] : record.bindings) {
    bindings.Int(JsonEscape(name).c_str(), value);
  }
  out += "}";
  f.Int("session_id", record.session_id);
  f.Int("threads", record.threads);
  f.Number("memory_pages", record.memory_pages);
  f.Number("predicted_cost", record.predicted_cost);
  f.Int("decision_count", record.decision_count);
  f.Int("cost_evaluations", record.cost_evaluations);
  f.Number("resolve_cpu_seconds", record.resolve_cpu_seconds);
  f.Number("total_seconds", record.total_seconds);
  f.Number("grant_wait_seconds", record.grant_wait_seconds);
  f.Number("exec_seconds", record.exec_seconds);
  f.Number("actual_seconds", record.actual_seconds);
  f.Number("actual_cpu_seconds", record.actual_cpu_seconds);
  f.Int("result_rows", record.result_rows);
  f.Int("peak_memory_bytes", record.peak_memory_bytes);
  f.Int("spill_files", record.spill_files);
  f.Int("spill_tuples", record.spill_tuples);
  f.Int("pool_hits", record.pool_hits);
  f.Int("pool_misses", record.pool_misses);
  f.Int("reopt_checkpoints", record.reopt_checkpoints);
  f.Int("reopt_triggers", record.reopt_triggers);
  f.Int("reopt_adoptions", record.reopt_adoptions);
  f.Number("reopt_seconds", record.reopt_seconds);
  f.Number("reopt_cost_pre", record.reopt_cost_pre);
  f.Number("reopt_cost_post", record.reopt_cost_post);
  f.Key("operators");
  out += "[";
  for (size_t i = 0; i < record.operators.size(); ++i) {
    const QueryOperator& op = record.operators[i];
    out += i == 0 ? "{" : ", {";
    JsonFields o(&out);
    o.String("op", op.op);
    o.Int("depth", op.depth);
    o.Number("est_cost_lo", op.est_cost_lo);
    o.Number("est_cost_hi", op.est_cost_hi);
    if (op.have_terms) {
      o.Number("est_cost_point", op.est_cost_point);
    }
    o.Number("est_rows_lo", op.est_rows_lo);
    o.Number("est_rows_hi", op.est_rows_hi);
    if (op.have_actual) {
      o.Number("actual_seconds", op.actual_seconds);
      o.Number("actual_cpu_seconds", op.actual_cpu_seconds);
      o.Number("self_seconds", op.self_seconds);
      o.Int("actual_rows", op.actual_rows);
    }
    if (op.have_terms) {
      o.Key("terms");
      AppendTerms(&out, op.terms);
    }
    out += "}";
  }
  out += "]";
  f.Key("decisions");
  out += "[";
  for (size_t i = 0; i < record.decisions.size(); ++i) {
    const QueryDecision& d = record.decisions[i];
    out += i == 0 ? "{" : ", {";
    JsonFields o(&out);
    o.Int("depth", d.depth);
    o.Int("alternatives", d.alternatives);
    o.Int("chosen", d.chosen);
    o.String("chosen_op", d.chosen_op);
    o.Number("chosen_est", d.chosen_est);
    o.Number("best_other_est", d.best_other_est);
    if (d.have_actual) {
      o.Number("actual_seconds", d.actual_seconds);
    }
    if (d.have_regret) {
      o.Number("regret", d.regret);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

QueryLogWriter::~QueryLogWriter() { Close(); }

bool QueryLogWriter::Open(const std::string& path, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open query log " + path;
    }
    return false;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
  }
  file_ = file;
  path_ = path;
  return true;
}

bool QueryLogWriter::Append(const QueryRecord& record) {
  // Serialize outside the lock; hold it only for the write + flush so
  // concurrent sessions' records land as whole, unmixed lines.
  std::string line = RenderQueryRecordJson(record);
  line += '\n';
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) {
    return false;
  }
  size_t written = std::fwrite(line.data(), 1, line.size(), file_);
  return written == line.size() && std::fflush(file_) == 0;
}

void QueryLogWriter::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  path_.clear();
}

Result<std::vector<QueryRecord>> LoadQueryLog(const std::string& path,
                                                 int64_t* skipped_lines) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::NotFound("cannot open query log " + path);
  }
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);

  std::vector<QueryRecord> records;
  int64_t skipped = 0;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t end = content.find('\n', pos);
    if (end == std::string::npos) {
      end = content.size();
    }
    std::string line = content.substr(pos, end - pos);
    pos = end + 1;
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    JsonValue doc;
    QueryRecord record;
    if (ParseJson(line, &doc) && ParseRecord(doc, &record)) {
      records.push_back(std::move(record));
    } else {
      ++skipped;
    }
  }
  if (skipped_lines != nullptr) {
    *skipped_lines = skipped;
  }
  return records;
}

}  // namespace obs
}  // namespace dqep
