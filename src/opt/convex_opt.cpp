#include "src/opt/convex_opt.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/numerics/projection.h"
#include "src/obs/metrics_registry.h"
#include "src/opt/opt_cache.h"
#include "src/sim/c_machine.h"

namespace speedscale {

namespace {

/// The discretized program, job-major: x[j * n_slots + i] is job j's volume
/// in slot i.  Every floating-point sum keeps the order of the slot-major
/// formulation (sigma_i over jobs in id order, the flow and the line-search
/// terms over jobs, then slots), so the iterates are bit-identical to it.
/// Slots before a job's first allowed slot hold exact zeros in x, y, cand
/// and g; the sums skip them, which is exact because an accumulator started
/// at +0 is never -0 and adding +-0 to it changes nothing.
struct Problem {
  const Instance& instance;
  double alpha;
  int n_slots;
  double h;                       ///< slot width
  double energy_weight = 1.0;
  std::vector<int> first_slot;    ///< per job: first allowed slot
  std::vector<double> flow_coef;  ///< rho_j (t_i - r_j) for i >= first_slot[j], else 0
  std::vector<double> sigma;      ///< scratch: per-slot total volume

  [[nodiscard]] std::size_t idx(JobId j, int i) const {
    return static_cast<std::size_t>(j) * static_cast<std::size_t>(n_slots) +
           static_cast<std::size_t>(i);
  }

  /// sigma_i = sum_j x[j, i], jobs in id order.
  void accumulate_sigma(const std::vector<double>& x) {
    std::fill(sigma.begin(), sigma.end(), 0.0);
    for (const Job& j : instance.jobs()) {
      const double* row = x.data() + idx(j.id, 0);
      for (int i = first_slot[static_cast<std::size_t>(j.id)]; i < n_slots; ++i) {
        sigma[static_cast<std::size_t>(i)] += row[i];
      }
    }
  }

  /// Energy of the accumulated sigma; with `marginal`, also each slot's
  /// energy_weight * dE/dsigma_i.  Momentum iterates (FISTA's y) may be
  /// infeasible; the energy extends by 0 below zero speed, which keeps the
  /// objective convex and finite.  About 70% of the slots idle at the
  /// optimum; pow(0, a) = +0 for a > 0, so those skip pow (`== 0.0` is false
  /// for NaN, which still takes the pow path).
  [[nodiscard]] double energy(double* marginal) const {
    const bool skip_idle = alpha > 1.0;
    double energy = 0.0;
    for (int i = 0; i < n_slots; ++i) {
      const double s = std::max(sigma[static_cast<std::size_t>(i)], 0.0);
      const bool idle = skip_idle && s == 0.0;
      energy += h * (idle ? 0.0 : std::pow(s / h, alpha));
      if (marginal) {
        marginal[i] = energy_weight * alpha * (idle ? 0.0 : std::pow(s / h, alpha - 1.0));
      }
    }
    return energy;
  }

  [[nodiscard]] double flow(const std::vector<double>& x) const {
    double flow = 0.0;
    for (const Job& j : instance.jobs()) {
      for (int i = first_slot[static_cast<std::size_t>(j.id)]; i < n_slots; ++i) {
        flow += flow_coef[idx(j.id, i)] * x[idx(j.id, i)];
      }
    }
    return flow;
  }

  [[nodiscard]] double objective(const std::vector<double>& x, double* energy_out = nullptr,
                                 double* flow_out = nullptr) {
    accumulate_sigma(x);
    const double e = energy(nullptr);
    const double f = flow(x);
    if (energy_out) *energy_out = e;
    if (flow_out) *flow_out = f;
    return energy_weight * e + f;
  }

  /// The gradient at y into g and the objective at y, from one sigma pass.
  [[nodiscard]] double gradient_and_objective(const std::vector<double>& y, std::vector<double>& g,
                                              std::vector<double>& marginal) {
    accumulate_sigma(y);
    const double e = energy(marginal.data());
    double flow = 0.0;
    for (const Job& j : instance.jobs()) {
      const int f = first_slot[static_cast<std::size_t>(j.id)];
      const std::size_t d0 = idx(j.id, 0);
      std::fill_n(g.begin() + static_cast<std::ptrdiff_t>(d0), f, 0.0);
      for (int i = f; i < n_slots; ++i) {
        const std::size_t d = d0 + static_cast<std::size_t>(i);
        g[d] = marginal[static_cast<std::size_t>(i)] + flow_coef[d];
        flow += flow_coef[d] * y[d];
      }
    }
    return energy_weight * e + flow;
  }

  /// cand = Proj(y - g / lipschitz): each job's allocation onto its scaled
  /// simplex over its allowed slots, with `order` (per-row descending order
  /// of the previous projection) as the sort hint.
  void gradient_step(const std::vector<double>& y, const std::vector<double>& g,
                     double lipschitz, std::vector<double>& cand,
                     std::vector<std::uint32_t>& order) const {
    for (const Job& j : instance.jobs()) {
      const int f = first_slot[static_cast<std::size_t>(j.id)];
      const std::size_t d0 = idx(j.id, 0);
      const std::size_t begin = idx(j.id, f);
      const std::size_t end = idx(j.id, n_slots);
      std::fill(cand.begin() + static_cast<std::ptrdiff_t>(d0),
                cand.begin() + static_cast<std::ptrdiff_t>(begin), 0.0);
      for (std::size_t d = begin; d < end; ++d) cand[d] = y[d] - g[d] / lipschitz;
      numerics::project_simplex(std::span<double>(cand.data() + begin, end - begin), j.volume,
                                std::span<std::uint32_t>(order.data() + begin, end - begin));
    }
  }
};

}  // namespace

ConvexOptResult solve_fractional_opt(const Instance& instance, double alpha,
                                     const ConvexOptParams& params) {
  if (OptSolveCache* cache = active_opt_cache()) {
    return cache->solve(instance, alpha, params);
  }
  return detail::solve_fractional_opt_uncached(instance, alpha, params);
}

namespace detail {

ConvexOptResult solve_fractional_opt_uncached(const Instance& instance, double alpha,
                                              const ConvexOptParams& params) {
  if (instance.empty()) return {};
  if (params.slots < 1) throw ModelError("solve_fractional_opt: slots must be positive");
  double horizon = params.horizon;
  if (horizon <= 0.0) {
    const Schedule c = run_algorithm_c(instance, alpha);
    horizon = 3.0 * std::max(c.makespan(), 1e-12);
  }
  const int N = params.slots;
  const std::size_t dim = instance.size() * static_cast<std::size_t>(N);
  Problem prob{instance, alpha, N, horizon / N, params.energy_weight, {}, {}, {}};
  prob.first_slot.resize(instance.size());
  prob.flow_coef.assign(dim, 0.0);
  prob.sigma.resize(static_cast<std::size_t>(N));
  for (const Job& j : instance.jobs()) {
    int f = static_cast<int>(std::ceil(j.release / prob.h - 1e-12));
    f = std::min(f, N - 1);
    prob.first_slot[static_cast<std::size_t>(j.id)] = f;
    for (int i = f; i < N; ++i) {
      const double mid = (static_cast<double>(i) + 0.5) * prob.h;
      prob.flow_coef[prob.idx(j.id, i)] = j.density * (mid - j.release);
    }
  }

  std::vector<double> x(dim, 0.0);
  // Feasible start: each job uniform over its allowed slots.
  for (const Job& j : instance.jobs()) {
    const int f = prob.first_slot[static_cast<std::size_t>(j.id)];
    const double per = j.volume / static_cast<double>(N - f);
    for (int i = f; i < N; ++i) x[prob.idx(j.id, i)] = per;
  }
  // Projection sort hints: each row's descending order from its previous
  // projection, indices relative to the job's first allowed slot.
  std::vector<std::uint32_t> order(dim);
  for (const Job& j : instance.jobs()) {
    const int f = prob.first_slot[static_cast<std::size_t>(j.id)];
    for (int i = f; i < N; ++i) order[prob.idx(j.id, i)] = static_cast<std::uint32_t>(i - f);
  }

  std::vector<double> x_prev = x;
  std::vector<double> y = x;
  std::vector<double> g(dim), cand(dim), marginal(static_cast<std::size_t>(N));
  double tk = 1.0;
  double lipschitz = 1.0;
  double best_obj = prob.objective(x);
  int stall = 0;
  int iter = 0;
  std::int64_t projections = 0;  // line-search steps: one projection each

  for (; iter < params.max_iters; ++iter) {
    const double fy = prob.gradient_and_objective(y, g, marginal);
    // Backtracking line search on the FISTA majorization.
    double fx_new = 0.0;
    for (int bt = 0; bt < 60; ++bt) {
      ++projections;
      prob.gradient_step(y, g, lipschitz, cand, order);
      prob.accumulate_sigma(cand);
      const double energy = prob.energy(nullptr);
      // The flow and the majorization terms, three independent sums in one pass.
      double flow = 0.0, lin = 0.0, quad = 0.0;
      for (const Job& j : instance.jobs()) {
        const std::size_t end = prob.idx(j.id, N);
        for (std::size_t d = prob.idx(j.id, prob.first_slot[static_cast<std::size_t>(j.id)]);
             d < end; ++d) {
          const double diff = cand[d] - y[d];
          flow += prob.flow_coef[d] * cand[d];
          lin += g[d] * diff;
          quad += diff * diff;
        }
      }
      fx_new = prob.energy_weight * energy + flow;
      if (fx_new <= fy + lin + 0.5 * lipschitz * quad + 1e-14 * std::abs(fy)) break;
      lipschitz *= 2.0;
    }
    // Momentum with restart on non-descent.
    const double tk1 = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * tk * tk));
    const double mom = (tk - 1.0) / tk1;
    if (fx_new > best_obj) {
      // Restart: drop momentum, continue from the best point.
      tk = 1.0;
      y = cand;
      x_prev = cand;
      x = cand;
    } else {
      for (std::size_t d = 0; d < dim; ++d) y[d] = cand[d] + mom * (cand[d] - x_prev[d]);
      // x_prev = x, x = cand; the next line search rewrites all of cand.
      std::swap(x_prev, x);
      std::swap(x, cand);
      tk = tk1;
    }
    const double improvement = (best_obj - fx_new) / std::max(1.0, std::abs(best_obj));
    if (fx_new < best_obj) best_obj = fx_new;
    if (improvement < params.rel_tol) {
      if (++stall > 50) break;
    } else {
      stall = 0;
    }
    lipschitz *= 0.9;  // allow the step to grow back
  }

  OBS_COUNT("opt.fista.iterations", iter);
  OBS_COUNT("opt.fista.projections", projections);

  ConvexOptResult out;
  out.iterations = iter;
  out.horizon = horizon;
  out.objective = prob.objective(x, &out.energy, &out.fractional_flow);
  // objective(x) left x's sigma in prob.sigma.
  out.slot_speed.resize(static_cast<std::size_t>(N));
  for (int i = 0; i < N; ++i) {
    out.slot_speed[static_cast<std::size_t>(i)] = prob.sigma[static_cast<std::size_t>(i)] / prob.h;
  }
  return out;
}

}  // namespace detail

}  // namespace speedscale
