#include "src/robust/invariants.h"

#include <cmath>
#include <string>

#include "src/obs/metrics_registry.h"

namespace speedscale::robust {

namespace {

void breach(InvariantReport& report, ErrorCode code, std::string message,
            std::string context = {}) {
  report.breaches.push_back(Diagnostic{code, std::move(message), std::move(context)});
  if (obs::metrics_enabled()) {
    obs::registry()
        .counter(std::string("robust.invariants.breach.") + error_code_name(code))
        .add(1);
  }
}

}  // namespace

std::string InvariantReport::to_string() const {
  std::string out;
  for (const Diagnostic& d : breaches) {
    if (!out.empty()) out += "; ";
    out += d.to_string();
  }
  return out.empty() ? "ok" : out;
}

InvariantReport check_sampled_run(const Instance& instance, const SampledRun& run,
                                  const InvariantOptions& options) {
  InvariantReport report;
  OBS_COUNT("robust.invariants.checks", 1);

  // --- Structural: bands ----------------------------------------------------
  for (std::size_t i = 0; i < run.bands.size(); ++i) {
    const WeightBand& b = run.bands[i];
    const bool finite = std::isfinite(b.t0) && std::isfinite(b.t1) &&
                        std::isfinite(b.w_start) && std::isfinite(b.w_end) && std::isfinite(b.rho);
    const char* what = !finite ? "non-finite band"
                       : b.t1 < b.t0 || (i + 1 < run.bands.size() && run.bands[i + 1].t0 < b.t1)
                           ? "band times decrease"
                       : b.w_start < 0.0 || b.w_end < 0.0 || !(b.rho > 0.0)
                           ? "negative weight or density"
                           : nullptr;
    if (what != nullptr) {
      breach(report, finite ? ErrorCode::kInvariantBreach : ErrorCode::kNumericNonfinite, what,
             "band " + std::to_string(i) + ", t0=" + std::to_string(b.t0));
      break;  // one locus suffices; downstream values are all suspect
    }
  }

  // --- Structural: objectives ----------------------------------------------
  for (const auto& [name, v] :
       {std::pair<const char*, double>{"energy", run.energy},
        {"fractional_flow", run.fractional_flow},
        {"integral_flow", run.integral_flow}}) {
    if (!std::isfinite(v)) {
      breach(report, ErrorCode::kNumericNonfinite, std::string("non-finite ") + name);
    } else if (v < 0.0) {
      breach(report, ErrorCode::kInvariantBreach, std::string("negative ") + name);
    }
  }

  // --- Structural: completions ---------------------------------------------
  for (const Job& j : instance.jobs()) {
    const auto it = run.completions.find(j.id);
    if (it == run.completions.end()) {
      breach(report, ErrorCode::kInvariantBreach, "job never completed",
             "job " + std::to_string(j.id));
      continue;
    }
    if (!std::isfinite(it->second)) {
      breach(report, ErrorCode::kNumericNonfinite, "non-finite completion time",
             "job " + std::to_string(j.id));
    } else if (it->second < j.release) {
      breach(report, ErrorCode::kInvariantBreach, "completion precedes release",
             "job " + std::to_string(j.id));
    }
  }
  if (!report.breaches.empty()) return report;  // identities need clean numbers

  // --- Identities ------------------------------------------------------------
  const auto identity = [&](const char* what, double lhs, double rhs) {
    const double residual = std::abs(lhs - rhs) / std::max(1.0, std::abs(rhs));
    if (residual > options.identity_tol) {
      breach(report, ErrorCode::kInvariantBreach, what,
             "residual " + std::to_string(residual));
    }
  };
  if (options.kind == RunKind::kAlgorithmC) {
    identity("Algorithm C energy != fractional flow", run.fractional_flow, run.energy);
  }
  if (options.kind == RunKind::kAlgorithmNC && options.reference_c != nullptr) {
    identity("Lemma 3 energy equality violated", run.energy, options.reference_c->energy);
  }
  if (options.kind == RunKind::kAlgorithmNC && options.alpha.has_value()) {
    identity("Lemma 4 flow ratio violated", run.fractional_flow,
             run.energy / (1.0 - 1.0 / *options.alpha));
  }
  return report;
}

}  // namespace speedscale::robust
