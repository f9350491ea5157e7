#include "obs/querylog.h"

#include <cinttypes>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/hash.h"
#include "obs/json_util.h"
#include "obs/trace.h"
#include "physical/costing.h"
#include "runtime/query_pipeline.h"
#include "sql/normalize.h"

namespace dqep {
namespace obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void AppendKey(std::string* out, const char* key) {
  *out += '"';
  *out += key;
  *out += "\": ";
}

void AppendNumberField(std::string* out, const char* key, double v) {
  AppendKey(out, key);
  AppendJsonNumber(out, v);
}

void AppendIntField(std::string* out, const char* key, int64_t v) {
  AppendKey(out, key);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

void AppendStringField(std::string* out, const char* key,
                       const std::string& v) {
  AppendKey(out, key);
  *out += '"';
  *out += JsonEscape(v);
  *out += '"';
}

void AppendTerms(std::string* out, const CostTerms& terms) {
  *out += "{";
  AppendNumberField(out, "seq_pages", terms.seq_pages);
  *out += ", ";
  AppendNumberField(out, "random_pages", terms.random_pages);
  *out += ", ";
  AppendNumberField(out, "tuple_ops", terms.tuple_ops);
  *out += ", ";
  AppendNumberField(out, "compare_ops", terms.compare_ops);
  *out += ", ";
  AppendNumberField(out, "hash_ops", terms.hash_ops);
  *out += "}";
}

/// Number when present and finite, +infinity otherwise (the writer
/// encodes infinities as null).
double NumberOrInf(const JsonValue& object, const char* key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->is_number() ? v->number : kInf;
}

bool ParseRecord(const JsonValue& doc, QueryLogRecord* record) {
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
  record->threads = static_cast<int32_t>(doc.IntOr("threads", 1));
  record->memory_pages = doc.NumberOr("memory_pages", 0.0);
  record->predicted_cost = doc.NumberOr("predicted_cost", 0.0);
  record->decision_count = doc.IntOr("decision_count", 0);
  record->cost_evaluations = doc.IntOr("cost_evaluations", 0);
  record->resolve_cpu_seconds = doc.NumberOr("resolve_cpu_seconds", 0.0);
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
  record->reopt_seconds = doc.NumberOr("reopt_seconds", 0.0);
  record->reopt_cost_pre = doc.NumberOr("reopt_cost_pre", 0.0);
  record->reopt_cost_post = doc.NumberOr("reopt_cost_post", 0.0);
  if (const JsonValue* ops = doc.Find("operators");
      ops != nullptr && ops->is_array()) {
    for (const JsonValue& item : ops->items) {
      if (!item.is_object()) {
        return false;
      }
      QueryLogOperator op;
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
      QueryLogDecision d;
      d.depth = static_cast<int>(item.IntOr("depth", 0));
      d.alternatives = item.IntOr("alternatives", 0);
      d.chosen = item.IntOr("chosen", 0);
      d.chosen_op = item.StringOr("chosen_op", "");
      d.chosen_est = NumberOrInf(item, "chosen_est");
      d.best_other_est = NumberOrInf(item, "best_other_est");
      d.have_actual = item.Find("actual_seconds") != nullptr;
      d.actual_seconds = item.NumberOr("actual_seconds", 0.0);
      record->decisions.push_back(std::move(d));
    }
  }
  return true;
}

}  // namespace

uint64_t HashQueryText(const std::string& text) {
  Result<NormalizedQuery> normalized = NormalizeQuery(text);
  if (normalized.ok()) {
    return normalized->fingerprint;
  }
  return Fnv1a64(text);
}

QueryLogRecord BuildQueryLogRecord(const std::string& query_text,
                                   const AnalyzeInput& input,
                                   const CostModel& model,
                                   const ParamEnv& bound_env) {
  QueryLogRecord record;
  record.query = query_text;
  Result<NormalizedQuery> normalized = NormalizeQuery(query_text);
  if (normalized.ok()) {
    record.query_hash = normalized->fingerprint;
    record.query_template = normalized->template_text;
  } else {
    record.query_hash = Fnv1a64(query_text);
  }
  if (input.startup != nullptr) {
    record.predicted_cost = input.startup->execution_cost;
    record.decision_count = input.startup->decisions;
    record.cost_evaluations = input.startup->cost_evaluations;
    record.resolve_cpu_seconds = input.startup->measured_cpu_seconds;
  }
  if (input.reopt != nullptr) {
    record.reopt_checkpoints =
        static_cast<int64_t>(input.reopt->size());
    for (const ReoptCheckpoint& cp : *input.reopt) {
      if (!cp.triggered) {
        continue;
      }
      ++record.reopt_triggers;
      record.reopt_seconds += cp.reopt_seconds;
      record.reopt_cost_pre = cp.pre_cost;
      record.reopt_cost_post = cp.post_cost;
    }
  }
  if (input.resolved_root == nullptr) {
    return record;
  }
  // Bound-point estimates and unit-operation counts: the compile-time
  // interval annotations on the plan can't provide either.
  PlanEstimateMap points = EstimatePlan(*input.resolved_root, model,
                                        bound_env,
                                        EstimationMode::kExpectedValue);
  PlanTermsMap terms =
      ComputePlanTerms(*input.resolved_root, model, bound_env);

  std::vector<AnalyzeRow> rows = CollectAnalyzeRows(input);
  for (const AnalyzeRow& row : rows) {
    if (row.kind == AnalyzeRow::Kind::kDecision) {
      QueryLogDecision d;
      d.depth = row.depth;
      d.alternatives = static_cast<int64_t>(row.alternatives);
      d.chosen = static_cast<int64_t>(row.chosen);
      d.chosen_op = row.chosen_op;
      d.chosen_est = row.chosen_est;
      d.best_other_est = row.best_other_est;
      d.have_actual = row.have_actual;
      d.actual_seconds = row.actual_seconds;
      record.decisions.push_back(std::move(d));
      continue;
    }
    QueryLogOperator op;
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
    if (auto it = points.find(row.plan_node); it != points.end()) {
      op.est_cost_point = it->second.cost.lo();
    }
    if (auto it = terms.find(row.plan_node); it != terms.end()) {
      op.terms = it->second;
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
    QueryLogOperator& op = record.operators[op_index++];
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

QueryLogRecord BuildQueryLogRecord(const QueryRun& run,
                                   const AnalyzeInput& input) {
  const PreparedQuery& prepared = run.prepared;
  QueryLogRecord record =
      BuildQueryLogRecord(prepared.sql, input, *prepared.request.model,
                          prepared.planned.bound);
  record.plan_cache = prepared.cache_status();
  record.bindings = prepared.HostBindings();
  record.threads = run.threads;
  record.memory_pages = prepared.request.memory_pages;
  record.peak_memory_bytes = run.peak_memory_bytes;
  record.spill_files = run.spill_files;
  record.spill_tuples = run.spill_tuples;
  return record;
}

std::string RenderQueryLogRecordJson(const QueryLogRecord& record) {
  std::string out = "{";
  AppendIntField(&out, "v", 2);
  out += ", ";
  AppendStringField(&out, "query", record.query);
  out += ", ";
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016" PRIx64, record.query_hash);
  AppendStringField(&out, "query_hash", hash);
  if (!record.query_template.empty()) {
    out += ", ";
    AppendStringField(&out, "query_template", record.query_template);
  }
  if (!record.plan_cache.empty()) {
    out += ", ";
    AppendStringField(&out, "plan_cache", record.plan_cache);
  }
  out += ", \"bindings\": {";
  bool first = true;
  for (const auto& [name, value] : record.bindings) {
    if (!first) {
      out += ", ";
    }
    first = false;
    AppendIntField(&out, JsonEscape(name).c_str(), value);
  }
  out += "}, ";
  AppendIntField(&out, "threads", record.threads);
  out += ", ";
  AppendNumberField(&out, "memory_pages", record.memory_pages);
  out += ", ";
  AppendNumberField(&out, "predicted_cost", record.predicted_cost);
  out += ", ";
  AppendIntField(&out, "decision_count", record.decision_count);
  out += ", ";
  AppendIntField(&out, "cost_evaluations", record.cost_evaluations);
  out += ", ";
  AppendNumberField(&out, "resolve_cpu_seconds",
                    record.resolve_cpu_seconds);
  out += ", ";
  AppendNumberField(&out, "actual_seconds", record.actual_seconds);
  out += ", ";
  AppendNumberField(&out, "actual_cpu_seconds", record.actual_cpu_seconds);
  out += ", ";
  AppendIntField(&out, "result_rows", record.result_rows);
  out += ", ";
  AppendIntField(&out, "peak_memory_bytes", record.peak_memory_bytes);
  out += ", ";
  AppendIntField(&out, "spill_files", record.spill_files);
  out += ", ";
  AppendIntField(&out, "spill_tuples", record.spill_tuples);
  out += ", ";
  AppendIntField(&out, "pool_hits", record.pool_hits);
  out += ", ";
  AppendIntField(&out, "pool_misses", record.pool_misses);
  out += ", ";
  AppendIntField(&out, "reopt_checkpoints", record.reopt_checkpoints);
  out += ", ";
  AppendIntField(&out, "reopt_triggers", record.reopt_triggers);
  out += ", ";
  AppendNumberField(&out, "reopt_seconds", record.reopt_seconds);
  out += ", ";
  AppendNumberField(&out, "reopt_cost_pre", record.reopt_cost_pre);
  out += ", ";
  AppendNumberField(&out, "reopt_cost_post", record.reopt_cost_post);
  out += ", \"operators\": [";
  first = true;
  for (const QueryLogOperator& op : record.operators) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "{";
    AppendStringField(&out, "op", op.op);
    out += ", ";
    AppendIntField(&out, "depth", op.depth);
    out += ", ";
    AppendNumberField(&out, "est_cost_lo", op.est_cost_lo);
    out += ", ";
    AppendNumberField(&out, "est_cost_hi", op.est_cost_hi);
    out += ", ";
    AppendNumberField(&out, "est_cost_point", op.est_cost_point);
    out += ", ";
    AppendNumberField(&out, "est_rows_lo", op.est_rows_lo);
    out += ", ";
    AppendNumberField(&out, "est_rows_hi", op.est_rows_hi);
    if (op.have_actual) {
      out += ", ";
      AppendNumberField(&out, "actual_seconds", op.actual_seconds);
      out += ", ";
      AppendNumberField(&out, "actual_cpu_seconds", op.actual_cpu_seconds);
      out += ", ";
      AppendNumberField(&out, "self_seconds", op.self_seconds);
      out += ", ";
      AppendIntField(&out, "actual_rows", op.actual_rows);
    }
    if (op.have_terms) {
      out += ", \"terms\": ";
      AppendTerms(&out, op.terms);
    }
    out += "}";
  }
  out += "], \"decisions\": [";
  first = true;
  for (const QueryLogDecision& d : record.decisions) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += "{";
    AppendIntField(&out, "depth", d.depth);
    out += ", ";
    AppendIntField(&out, "alternatives", d.alternatives);
    out += ", ";
    AppendIntField(&out, "chosen", d.chosen);
    out += ", ";
    AppendStringField(&out, "chosen_op", d.chosen_op);
    out += ", ";
    AppendNumberField(&out, "chosen_est", d.chosen_est);
    out += ", ";
    AppendNumberField(&out, "best_other_est", d.best_other_est);
    if (d.have_actual) {
      out += ", ";
      AppendNumberField(&out, "actual_seconds", d.actual_seconds);
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

bool QueryLogWriter::Append(const QueryLogRecord& record) {
  // Serialize outside the lock; hold it only for the write + flush so
  // concurrent sessions' records land as whole, unmixed lines.
  std::string line = RenderQueryLogRecordJson(record);
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

Result<std::vector<QueryLogRecord>> LoadQueryLog(const std::string& path,
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

  std::vector<QueryLogRecord> records;
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
    QueryLogRecord record;
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
