#include "src/sim/numeric_engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <tuple>

#include "src/engine/online_metrics.h"
#include "src/numerics/roots.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/robust/diagnostics.h"
#include "src/robust/invariants.h"

namespace speedscale {

namespace {

using robust::ErrorCode;
using robust::RobustError;

// 15-point Kronrod nodes on [-1, 1] (the odd-indexed ones are the 7-point
// Gauss nodes) and their weights (QUADPACK qk15).
constexpr double kXgk[8] = {0.99145537112081263921, 0.94910791234275852453,
                            0.86486442335976907279, 0.74153118559939443986,
                            0.58608723546769113029, 0.40584515137739716691,
                            0.20778495500789846760, 0.0};
constexpr double kWgk[8] = {0.02293532201052922496, 0.06309209262997855329,
                            0.10479001032225018384, 0.14065325971552591875,
                            0.16900472663926790283, 0.19035057806478540991,
                            0.20443294007529889241, 0.20948214108472782801};
constexpr double kWg[4] = {0.12948496616886969327, 0.27970539148927666790,
                           0.38183005050511894495, 0.41795918367346938776};

constexpr double kPieceRelTol = 1e-14;  ///< per-piece relative error target
constexpr int kMaxGkPerBand = 4096;     ///< evaluation budget: 15 points each
constexpr double kRatioAgree = 1e-14;   ///< successive tail ratios "agree"
constexpr double kStopShrinking = 1e-6; ///< ratio within this of 1: diverges

/// (T, E) integrands or integrals side by side.
struct Pair {
  double t = 0.0;
  double e = 0.0;
};

struct Quadrature {
  const PowerFunction& power;
  int gk_calls = 0;

  /// The integrands at speed s: P(s)/s^2 and P(s)^2/(2 s^2).
  Pair integrand(double s) const {
    const double p = power.power(s), q = p / s / s;
    const Pair f{q, 0.5 * p * q};
    if (!std::isfinite(f.t) || !std::isfinite(f.e)) {
      throw RobustError(ErrorCode::kNumericNonfinite, "band_integrals: non-finite integrand",
                        "s=" + std::to_string(s) + " power=" + power.name());
    }
    return f;
  }

  /// One G7/K15 rule on [a, b]: the Kronrod values, and QUADPACK's error
  /// estimate from the Gauss-Kronrod difference (without its rounding
  /// floor, which adapt() adds to what it reports).
  std::pair<Pair, Pair> gk15(double a, double b) {
    if (++gk_calls > kMaxGkPerBand) {
      throw RobustError(ErrorCode::kNoConvergence,
                        "band_integrals: evaluation budget exhausted", power.name());
    }
    const double c = 0.5 * (a + b), h = 0.5 * (b - a);
    Pair f[15];
    f[7] = integrand(c);
    for (int k = 0; k < 7; ++k) {
      f[k] = integrand(c - h * kXgk[k]);
      f[14 - k] = integrand(c + h * kXgk[k]);
    }
    const auto rule = [&](double Pair::*m) {
      double kron = kWgk[7] * f[7].*m, gauss = kWg[3] * f[7].*m;
      for (int k = 0; k < 7; ++k) {
        kron += kWgk[k] * (f[k].*m + f[14 - k].*m);
        if (k % 2 == 1) gauss += kWg[k / 2] * (f[k].*m + f[14 - k].*m);
      }
      const double mean = 0.5 * kron;
      double asc = kWgk[7] * std::abs(f[7].*m - mean);
      for (int k = 0; k < 7; ++k) {
        asc += kWgk[k] * (std::abs(f[k].*m - mean) + std::abs(f[14 - k].*m - mean));
      }
      const double diff = std::abs(kron - gauss) * h;
      asc *= h;
      const double err = asc > 0.0 ? asc * std::min(1.0, std::pow(200.0 * diff / asc, 1.5)) : 0.0;
      return std::pair<double, double>{kron * h, err};
    };
    const auto [kt, et] = rule(&Pair::t);
    const auto [ke, ee] = rule(&Pair::e);
    return {{kt, ke}, {et, ee}};
  }

  /// Adaptive bisection of [a, b] until each leaf meets kPieceRelTol; adds
  /// the integrals to `sum` and their error estimates, with QUADPACK's
  /// 50 eps rounding floor, to `err`.
  void adapt(double a, double b, Pair& sum, Pair& err) {
    const auto [v, e] = gk15(a, b);
    const double m = 0.5 * (a + b);
    if ((e.t <= kPieceRelTol * v.t && e.e <= kPieceRelTol * v.e) || !(a < m && m < b)) {
      constexpr double kRounding = 50.0 * std::numeric_limits<double>::epsilon();
      sum.t += v.t;
      sum.e += v.e;
      err.t += std::max(e.t, kRounding * std::abs(v.t));
      err.e += std::max(e.e, kRounding * std::abs(v.e));
      return;
    }
    adapt(m, b, sum, err);
    adapt(a, m, sum, err);
  }
};

/// True when a band can reach weight 0 in finite time (P'(0) = 0).
bool reaches_zero(const PowerFunction& power) { return !(power.derivative(0.0) > 0.0); }

/// Copies the accumulated objectives into `run` and runs the post-run
/// checks once.  Nothing is retried: the quadrature meets its tolerance or
/// throws, so a breach is an error.
void finish(SampledRun& run, const engine::OnlineMetrics& om, const Instance& instance,
            const robust::InvariantOptions& check) {
  run.energy = om.energy();
  run.fractional_flow = om.fractional_flow();
  run.integral_flow = om.integral_flow();
  const robust::InvariantReport report = robust::check_sampled_run(instance, run, check);
  if (!report.ok()) throw RobustError(report.breaches.front());
}

}  // namespace

BandIntegrals band_integrals(const PowerFunction& power, double lo, double hi) {
  if (!(hi > lo)) return {};
  Quadrature q{power};
  const double s_lo = lo > 0.0 ? power.speed_for_power(lo) : 0.0;
  const double s_hi = power.speed_for_power(hi);
  Pair sum, err, prev{kInf, kInf}, ratio{kInf, kInf};
  int pieces = 0;
  for (double a = s_hi; a > s_lo;) {
    const double b = std::max(0.5 * a, s_lo);
    Pair p;
    q.adapt(b, a, p, err);
    sum.t += p.t;
    sum.e += p.e;
    a = b;
    if (s_lo > 0.0) continue;
    // lo = 0: once two successive piece ratios agree, the rest is the
    // geometric series below this piece (exact for a power law near 0).
    const Pair r{p.t / prev.t, p.e / prev.e};
    if (r.t >= 1.0 - kStopShrinking || r.e >= 1.0 - kStopShrinking) {
      throw RobustError(ErrorCode::kNoConvergence,
                        "band_integrals: tail pieces stop shrinking (P'(0) > 0?)", power.name());
    }
    if (std::abs(r.t - ratio.t) <= kRatioAgree && std::abs(r.e - ratio.e) <= kRatioAgree) {
      sum.t += p.t * r.t / (1.0 - r.t);
      sum.e += p.e * r.e / (1.0 - r.e);
      err.t += p.t * std::abs(r.t - ratio.t) / ((1.0 - r.t) * (1.0 - r.t));
      err.e += p.e * std::abs(r.e - ratio.e) / ((1.0 - r.e) * (1.0 - r.e));
      break;
    }
    prev = p;
    ratio = r;
    if (!(a > 0.0) || ++pieces > 2200) {
      throw RobustError(ErrorCode::kNoConvergence, "band_integrals: tail did not converge",
                        power.name());
    }
  }
  // The integrated-out boundary terms [w / s] and [w^2 / (2 s)]; at lo = 0
  // they vanish (P(s)/s -> P'(0) = 0 wherever the tail converged).
  sum.t += hi / s_hi - (lo > 0.0 ? lo / s_lo : 0.0);
  sum.e += 0.5 * (hi * (hi / s_hi) - (lo > 0.0 ? lo * (lo / s_lo) : 0.0));
  OBS_COUNT("sim.generic.bands", 1);
  OBS_COUNT("sim.generic.quad_intervals", q.gk_calls);
  return {sum.t, sum.e, err.t, err.e};
}

double SampledRun::weight_left(const PowerFunction& power, double x) const {
  // The last band starting before x; x beyond its end is an idle gap.
  const auto it = std::partition_point(bands.begin(), bands.end(),
                                       [x](const WeightBand& b) { return b.t0 < x; });
  if (it == bands.begin()) return 0.0;
  const WeightBand& b = *(it - 1);
  if (b.t1 < x) return 0.0;
  if (b.t1 == x) return b.w_end;
  // Invert the band: the weight w whose sweep from w_start takes x - t0.
  const double target = b.rho * (x - b.t0);
  const double lo = std::min(b.w_start, b.w_end), hi = std::max(b.w_start, b.w_end);
  const bool decay = b.w_end < b.w_start;
  return numerics::brent(
      [&](double w) {
        const double swept = decay ? band_integrals(power, w, hi).time
                                   : band_integrals(power, lo, w).time;
        return decay ? target - swept : swept - target;
      },
      lo, hi, 1e-15 * std::min(1.0, hi));
}

double SampledRun::time_at_or_above(const PowerFunction& power, double x) const {
  if (!(x > 0.0)) return bands.empty() ? 0.0 : bands.back().t1;
  const double level = power.power(x);
  double total = 0.0;
  for (const WeightBand& b : bands) {
    const double lo = std::min(b.w_start, b.w_end), hi = std::max(b.w_start, b.w_end);
    if (level <= lo) {
      total += b.t1 - b.t0;
    } else if (level < hi) {
      total += band_integrals(power, level, hi).time / b.rho;
    }
  }
  return total;
}

SampledRun run_generic_c(const Instance& instance, const PowerFunction& power) {
  SampledRun run;
  engine::OnlineMetrics om;
  const bool exact_zero = reaches_zero(power);
  std::vector<double> remaining(instance.size());
  for (const Job& j : instance.jobs()) remaining[static_cast<std::size_t>(j.id)] = j.volume;
  const std::vector<JobId> fifo = instance.fifo_order();
  std::size_t next = 0;  // next release in fifo
  // Active jobs in HDF order, FIFO among equal densities: (-density, release, id).
  std::set<std::tuple<double, double, JobId>> active;

  double t = 0.0;
  while (!active.empty() || next < fifo.size()) {
    if (active.empty()) t = std::max(t, instance.job(fifo[next]).release);  // idle gap
    for (; next < fifo.size() && instance.job(fifo[next]).release <= t; ++next) {
      const Job& j = instance.job(fifo[next]);
      active.insert({-j.density, j.release, j.id});
      TRACE_EVENT(.kind = obs::EventKind::kJobRelease, .t = j.release, .job = j.id,
                  .value = j.volume, .aux = j.density, .label = "numeric_c");
    }
    const double next_release = next < fifo.size() ? instance.job(fifo[next]).release : kInf;
    const Job& job = instance.job(std::get<2>(*active.begin()));
    double& rem = remaining[static_cast<std::size_t>(job.id)];
    // The waiting jobs' weight is the band's floor; the current job sweeps
    // the band above it, down to the floor or to a cut at the next release.
    double w_rest = 0.0;
    for (auto it = std::next(active.begin()); it != active.end(); ++it) {
      w_rest += -std::get<0>(*it) * remaining[static_cast<std::size_t>(std::get<2>(*it))];
    }
    const double w = w_rest + job.density * rem;
    const double floor =
        (w_rest > 0.0 || exact_zero) ? w_rest : job.density * kCompletionRelEps * job.volume;
    BandIntegrals band = band_integrals(power, floor, w);
    double w_end = floor, t_end = t + band.time / job.density;
    const bool completes = t_end <= next_release;
    if (!completes) {
      // The weight whose sweep from w lasts exactly until the release.
      t_end = next_release;
      const double swept = job.density * (t_end - t);
      w_end = numerics::brent([&](double v) { return band_integrals(power, v, w).time - swept; },
                              floor, w, 1e-15 * std::min(1.0, w));
      band = band_integrals(power, w_end, w);
    }
    const double dt = t_end - t, energy = band.energy / job.density;
    // Fractional flow: the waiting jobs accrue their weight, the current
    // job the part of the swept weight above them.
    om.add_energy(energy);
    om.add_fractional_flow(w_rest * dt);
    om.add_fractional_flow(energy - w_rest * dt);
    run.energy_error += band.energy_error / job.density;
    run.bands.push_back({t, t_end, w, w_end, job.density});
    t = t_end;
    if (completes) {
      rem = 0.0;  // the residual epsilon-volume, if any, is declared complete
      active.erase(active.begin());
      run.completions[job.id] = t;
      om.add_integral_flow(job.weight() * (t - job.release));
      TRACE_EVENT(.kind = obs::EventKind::kJobComplete, .t = t, .job = job.id,
                  .value = om.energy(), .aux = om.fractional_flow(), .label = "numeric_c");
    } else {
      rem = (w_end - w_rest) / job.density;
    }
  }
  finish(run, om, instance, {});  // the Algorithm C identity
  return run;
}

SampledRun run_generic_nc_uniform(const Instance& instance, const PowerFunction& power) {
  if (!instance.uniform_density(1e-9)) {
    throw ModelError("run_generic_nc_uniform: instance must have uniform density");
  }
  // The NC speed rule needs W^C(r_j^-): run the clairvoyant algorithm first.
  // It is a virtual run — its events stay out of the NC trace.
  const SampledRun c_run = [&] {
    obs::TraceSuppressGuard suppress_virtual_run;
    return run_generic_c(instance, power);
  }();

  SampledRun run;
  engine::OnlineMetrics om;
  const std::vector<JobId> fifo = instance.fifo_order();
  const double bootstrap =
      reaches_zero(power) ? 0.0 : kBootstrapRelEps * std::max(instance.total_weight(), 1e-300);

  // Release events interleave into the trace in time order.
  std::size_t next_rel_idx = 0;
  const auto emit_releases_up_to = [&](double tau) {
    while (next_rel_idx < fifo.size() && instance.job(fifo[next_rel_idx]).release <= tau) {
      const Job& j = instance.job(fifo[next_rel_idx]);
      TRACE_EVENT(.kind = obs::EventKind::kJobRelease, .t = j.release, .job = j.id,
                  .value = j.volume, .aux = j.density, .label = "numeric_nc");
      ++next_rel_idx;
    }
  };

  double t = 0.0;
  double cohort_release = -kInf, cohort_weight = 0.0;
  for (JobId jid : fifo) {
    const Job& job = instance.job(jid);
    // U starts at W^C(r_j^-) plus the weight of the jobs released with j
    // and ahead of it in FIFO order (C receives them at the same instant).
    if (job.release != cohort_release) {
      cohort_release = job.release;
      cohort_weight = 0.0;
    }
    const double u0 = std::max(c_run.weight_left(power, job.release) + cohort_weight, bootstrap);
    cohort_weight += job.weight();
    const double u1 = u0 + job.weight();
    const double start = std::max(t, job.release);
    emit_releases_up_to(start);
    const BandIntegrals band = band_integrals(power, u0, u1);
    const double dt = band.time / job.density, energy = band.energy / job.density;
    // Waiting from release to start at full weight, then the current job's
    // unprocessed part int (u1 - U) dt.
    om.add_energy(energy);
    om.add_fractional_flow(job.weight() * (start - job.release));
    om.add_fractional_flow(u1 * dt - energy);
    run.energy_error += band.energy_error / job.density;
    t = start + dt;
    run.bands.push_back({start, t, u0, u1, job.density});
    run.completions[jid] = t;
    om.add_integral_flow(job.weight() * (t - job.release));
    emit_releases_up_to(t);
    TRACE_EVENT(.kind = obs::EventKind::kJobComplete, .t = t, .job = jid,
                .value = om.energy(), .aux = om.fractional_flow(), .label = "numeric_nc");
  }
  if (obs::tracing_enabled()) emit_releases_up_to(kInf);
  robust::InvariantOptions check;
  check.kind = robust::RunKind::kAlgorithmNC;
  check.reference_c = &c_run;
  if (const auto* law = dynamic_cast<const PowerLaw*>(&power)) check.alpha = law->alpha();
  finish(run, om, instance, check);
  return run;
}

}  // namespace speedscale
