#include "obs/calibrate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/json_util.h"

namespace dqep {
namespace obs {

namespace {

constexpr int kUnits = CostTerms::kCount;

/// Base unit constants of `config`, in CostTerms component order.
void BaseUnits(const SystemConfig& config, double* u0) {
  u0[0] = config.SeqPageIoSeconds();
  u0[1] = config.random_page_io_seconds;
  u0[2] = config.cpu_tuple_seconds;
  u0[3] = config.cpu_compare_seconds;
  u0[4] = config.cpu_hash_seconds;
}

double TermsDotUnits(const CostTerms& terms, const double* units) {
  double sum = 0.0;
  for (int k = 0; k < kUnits; ++k) {
    sum += terms.component(k) * units[k];
  }
  return sum;
}

/// Solves the n x n system `a * x = b` in place by Gaussian elimination
/// with partial pivoting.  Returns false on a (numerically) singular
/// matrix.
bool SolveLinearSystem(int n, double* a, double* b, double* x) {
  for (int col = 0; col < n; ++col) {
    int pivot = col;
    for (int row = col + 1; row < n; ++row) {
      if (std::fabs(a[row * n + col]) > std::fabs(a[pivot * n + col])) {
        pivot = row;
      }
    }
    if (std::fabs(a[pivot * n + col]) < 1e-300) {
      return false;
    }
    if (pivot != col) {
      for (int k = 0; k < n; ++k) {
        std::swap(a[col * n + k], a[pivot * n + k]);
      }
      std::swap(b[col], b[pivot]);
    }
    for (int row = col + 1; row < n; ++row) {
      double factor = a[row * n + col] / a[col * n + col];
      for (int k = col; k < n; ++k) {
        a[row * n + k] -= factor * a[col * n + k];
      }
      b[row] -= factor * b[col];
    }
  }
  for (int row = n - 1; row >= 0; --row) {
    double sum = b[row];
    for (int k = row + 1; k < n; ++k) {
      sum -= a[row * n + k] * x[k];
    }
    x[row] = sum / a[row * n + row];
  }
  return true;
}

struct OperatorPair {
  CostTerms terms;
  double self_seconds = 0.0;
};

/// Mean |log10(estimate/actual)| at plan roots when every unit constant
/// u0_k is multiplied by `mult[k]`.  Uniform multipliers rescale the
/// logged scalar estimate exactly; non-uniform ones are evaluated through
/// the logged unit-operation counts (valid when every operator carried
/// terms, which the caller gates on).
double RootError(const std::vector<QueryRecord>& records,
                 const double* u0, const double* mult, int64_t* pairs) {
  bool uniform = true;
  for (int k = 1; k < kUnits; ++k) {
    uniform = uniform && mult[k] == mult[0];
  }
  double units[kUnits];
  for (int k = 0; k < kUnits; ++k) {
    units[k] = u0[k] * mult[k];
  }
  double sum = 0.0;
  int64_t n = 0;
  for (const QueryRecord& record : records) {
    if (record.operators.empty()) {
      continue;
    }
    const QueryOperator& root = record.operators.front();
    if (!root.have_actual || root.actual_seconds <= 0.0 ||
        root.est_cost_point <= 0.0) {
      continue;
    }
    double est;
    if (uniform) {
      est = root.est_cost_point * mult[0];
    } else {
      est = 0.0;
      for (const QueryOperator& op : record.operators) {
        est += TermsDotUnits(op.terms, units);
      }
    }
    if (est <= 0.0) {
      continue;
    }
    sum += std::fabs(std::log10(est / root.actual_seconds));
    ++n;
  }
  if (pairs != nullptr) {
    *pairs = n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double OperatorError(const std::vector<OperatorPair>& pairs,
                     const double* u0, const double* mult) {
  double units[kUnits];
  for (int k = 0; k < kUnits; ++k) {
    units[k] = u0[k] * mult[k];
  }
  double sum = 0.0;
  int64_t n = 0;
  for (const OperatorPair& pair : pairs) {
    double est = TermsDotUnits(pair.terms, units);
    if (est > 0.0 && pair.self_seconds > 0.0) {
      sum += std::fabs(std::log10(est / pair.self_seconds));
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace

Result<CalibrationReport> Calibrate(
    const std::vector<QueryRecord>& records,
    const SystemConfig& base_config, const CalibrationOptions& options) {
  CalibrationReport report;
  report.records = static_cast<int64_t>(records.size());

  double u0[kUnits];
  BaseUnits(base_config, u0);

  // --- Stage 1: global scale from root pairs ---------------------------
  double log_sum = 0.0;
  int64_t root_pairs = 0;
  for (const QueryRecord& record : records) {
    if (record.operators.empty()) {
      continue;
    }
    const QueryOperator& root = record.operators.front();
    if (root.have_actual && root.actual_seconds > 0.0 &&
        root.est_cost_point > 0.0) {
      log_sum += std::log(root.actual_seconds / root.est_cost_point);
      ++root_pairs;
    }
  }
  if (root_pairs == 0) {
    return Status::InvalidArgument(
        "query log holds no usable (estimate, actual) root pair");
  }
  report.root_pairs = root_pairs;
  double alpha = std::exp(log_sum / static_cast<double>(root_pairs));
  report.global_scale = alpha;

  // --- Decision margins: the trust region ------------------------------
  double rho = std::numeric_limits<double>::infinity();
  int64_t decisions = 0;
  double regret_before_sum = 0.0;
  double regret_after_sum = 0.0;
  int64_t regret_pairs = 0;
  for (const QueryRecord& record : records) {
    for (const QueryDecision& d : record.decisions) {
      ++decisions;
      if (std::isfinite(d.chosen_est) && d.chosen_est > 0.0 &&
          std::isfinite(d.best_other_est) && d.best_other_est > 0.0) {
        rho = std::min(rho, d.best_other_est / d.chosen_est);
      }
      if (d.have_actual && std::isfinite(d.best_other_est)) {
        regret_before_sum += d.actual_seconds - d.best_other_est;
        regret_after_sum += d.actual_seconds - alpha * d.best_other_est;
        ++regret_pairs;
      }
    }
  }
  report.decision_count = decisions;
  if (!std::isfinite(rho)) {
    rho = 1.0;
  }
  // The start-up argmin guarantees chosen <= best other; anything else in
  // the log is corrupt, and a spread below 1 would invert the region.
  rho = std::max(rho, 1.0);
  report.min_decision_margin = rho;
  double spread = std::sqrt(rho);
  report.unit_spread_limit = spread;
  if (regret_pairs > 0) {
    report.mean_regret_before =
        regret_before_sum / static_cast<double>(regret_pairs);
    report.mean_regret_after =
        regret_after_sum / static_cast<double>(regret_pairs);
  }

  // --- Operator pairs for the per-unit stage ---------------------------
  std::vector<OperatorPair> pairs;
  bool full_terms = true;
  for (const QueryRecord& record : records) {
    for (const QueryOperator& op : record.operators) {
      if (!op.have_terms) {
        full_terms = false;
        continue;
      }
      if (op.have_actual && op.self_seconds > 0.0 && !op.terms.IsZero()) {
        pairs.push_back({op.terms, op.self_seconds});
      }
    }
  }
  report.operator_pairs = static_cast<int64_t>(pairs.size());

  double global_mult[kUnits];
  for (int k = 0; k < kUnits; ++k) {
    global_mult[k] = alpha;
  }
  double ones[kUnits] = {1.0, 1.0, 1.0, 1.0, 1.0};
  report.root_error_before = RootError(records, u0, ones, nullptr);
  double global_root_error = RootError(records, u0, global_mult, nullptr);
  report.op_error_before = OperatorError(pairs, u0, ones);

  // --- Stage 2: per-unit least squares in alpha-scaled coordinates -----
  double chosen_mult[kUnits];
  for (int k = 0; k < kUnits; ++k) {
    chosen_mult[k] = alpha;
  }
  bool per_unit_used = false;
  if (options.allow_per_unit && full_terms &&
      static_cast<int>(pairs.size()) >= kUnits) {
    double ata[kUnits * kUnits] = {0.0};
    double atb[kUnits] = {0.0};
    for (const OperatorPair& pair : pairs) {
      double row[kUnits];
      for (int k = 0; k < kUnits; ++k) {
        row[k] = pair.terms.component(k) * alpha * u0[k];
      }
      for (int j = 0; j < kUnits; ++j) {
        for (int k = 0; k < kUnits; ++k) {
          ata[j * kUnits + k] += row[j] * row[k];
        }
        atb[j] += row[j] * pair.self_seconds;
      }
    }
    double trace = 0.0;
    for (int k = 0; k < kUnits; ++k) {
      trace += ata[k * kUnits + k];
    }
    if (trace > 0.0) {
      double lambda = options.ridge * trace / kUnits;
      for (int k = 0; k < kUnits; ++k) {
        ata[k * kUnits + k] += lambda;
        atb[k] += lambda;  // ridge pull toward x_k = 1 (the global fit)
      }
      double x[kUnits];
      if (SolveLinearSystem(kUnits, ata, atb, x)) {
        double candidate[kUnits];
        for (int k = 0; k < kUnits; ++k) {
          double clamped =
              std::clamp(x[k], 1.0 / spread, spread);
          candidate[k] = alpha * clamped;
        }
        double candidate_root_error =
            RootError(records, u0, candidate, nullptr);
        if (candidate_root_error < global_root_error) {
          for (int k = 0; k < kUnits; ++k) {
            chosen_mult[k] = candidate[k];
          }
          per_unit_used = true;
        }
      }
    }
  }
  report.per_unit_fit_used = per_unit_used;

  report.profile.seq_page_io = chosen_mult[0];
  report.profile.random_page_io = chosen_mult[1];
  report.profile.cpu_tuple = chosen_mult[2];
  report.profile.cpu_compare = chosen_mult[3];
  report.profile.cpu_hash = chosen_mult[4];
  report.profile.startup = alpha;

  report.root_error_after = RootError(records, u0, chosen_mult, nullptr);
  report.op_error_after = OperatorError(pairs, u0, chosen_mult);
  return report;
}

std::string RenderCalibrationReport(const CalibrationReport& report) {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "calibration: %lld records, %lld root pairs, %lld operator "
                "pairs, %lld decisions\n",
                static_cast<long long>(report.records),
                static_cast<long long>(report.root_pairs),
                static_cast<long long>(report.operator_pairs),
                static_cast<long long>(report.decision_count));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "global scale: %.6g  (min decision margin %.6g, unit "
                "spread limit %.6g, per-unit fit %s)\n",
                report.global_scale, report.min_decision_margin,
                report.unit_spread_limit,
                report.per_unit_fit_used ? "used" : "not used");
  out += buf;
  const CostProfile& p = report.profile;
  std::snprintf(buf, sizeof(buf),
                "multipliers: seq_page_io=%.6g random_page_io=%.6g "
                "cpu_tuple=%.6g cpu_compare=%.6g cpu_hash=%.6g "
                "startup=%.6g\n",
                p.seq_page_io, p.random_page_io, p.cpu_tuple, p.cpu_compare,
                p.cpu_hash, p.startup);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "root mean |log10(est/actual)|: %.4f -> %.4f\n",
                report.root_error_before, report.root_error_after);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "operator mean |log10(est/actual)|: %.4f -> %.4f\n",
                report.op_error_before, report.op_error_after);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "mean decision regret (s): %.6g -> %.6g\n",
                report.mean_regret_before, report.mean_regret_after);
  out += buf;
  return out;
}

std::string RenderCostProfileJson(const CalibrationReport& report) {
  const CostProfile& p = report.profile;
  std::string out = "{\n  \"v\": 1,\n  \"kind\": \"dqep-cost-profile\",\n";
  out += "  \"multipliers\": {\n";
  const struct {
    const char* name;
    double value;
  } mults[] = {
      {"seq_page_io", p.seq_page_io},   {"random_page_io", p.random_page_io},
      {"cpu_tuple", p.cpu_tuple},       {"cpu_compare", p.cpu_compare},
      {"cpu_hash", p.cpu_hash},         {"startup", p.startup},
  };
  for (size_t i = 0; i < sizeof(mults) / sizeof(mults[0]); ++i) {
    out += "    \"";
    out += mults[i].name;
    out += "\": ";
    AppendJsonNumber(&out, mults[i].value);
    out += i + 1 < sizeof(mults) / sizeof(mults[0]) ? ",\n" : "\n";
  }
  out += "  },\n  \"fit\": {\n";
  out += "    \"records\": " + std::to_string(report.records) + ",\n";
  out += "    \"root_pairs\": " + std::to_string(report.root_pairs) + ",\n";
  out += "    \"operator_pairs\": " + std::to_string(report.operator_pairs) +
         ",\n";
  out += "    \"decisions\": " + std::to_string(report.decision_count) +
         ",\n";
  out += "    \"global_scale\": " + JsonNumber(report.global_scale) + ",\n";
  out += "    \"min_decision_margin\": " +
         JsonNumber(report.min_decision_margin) + ",\n";
  out += "    \"per_unit\": ";
  out += report.per_unit_fit_used ? "true" : "false";
  out += ",\n";
  out += "    \"root_error_before\": " + JsonNumber(report.root_error_before) +
         ",\n";
  out += "    \"root_error_after\": " + JsonNumber(report.root_error_after) +
         "\n  }\n}\n";
  return out;
}

Result<CostProfile> LoadCostProfile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::NotFound("cannot open cost profile " + path);
  }
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);

  JsonValue doc;
  std::string error;
  if (!ParseJson(content, &doc, &error)) {
    return Status::Corruption("cost profile " + path + ": " + error);
  }
  if (!doc.is_object()) {
    return Status::Corruption("cost profile " + path +
                              ": top level is not an object");
  }
  const JsonValue* mults = doc.Find("multipliers");
  if (mults == nullptr || !mults->is_object()) {
    return Status::Corruption("cost profile " + path +
                              ": missing \"multipliers\" object");
  }
  CostProfile profile;
  profile.seq_page_io = mults->NumberOr("seq_page_io", 1.0);
  profile.random_page_io = mults->NumberOr("random_page_io", 1.0);
  profile.cpu_tuple = mults->NumberOr("cpu_tuple", 1.0);
  profile.cpu_compare = mults->NumberOr("cpu_compare", 1.0);
  profile.cpu_hash = mults->NumberOr("cpu_hash", 1.0);
  profile.startup = mults->NumberOr("startup", 1.0);
  const double values[] = {profile.seq_page_io, profile.random_page_io,
                           profile.cpu_tuple,  profile.cpu_compare,
                           profile.cpu_hash,   profile.startup};
  for (double v : values) {
    if (!std::isfinite(v) || v <= 0.0) {
      return Status::Corruption("cost profile " + path +
                                ": multipliers must be positive and finite");
    }
  }
  return profile;
}

}  // namespace obs
}  // namespace dqep
