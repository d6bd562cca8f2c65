#include "src/opt/convex_opt.h"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// A job's first allowed slot: the first slot boundary at or after its
/// release, clamped to the last slot (in double, so a release far past the
/// horizon cannot overflow the int).
int first_allowed_slot(double release, double h, int n_slots) {
  return static_cast<int>(
      std::min(std::ceil(release / h - 1e-12), static_cast<double>(n_slots - 1)));
}

/// Rejects parameters the program is undefined for and returns the grid's
/// horizon (the explicit one, or 3x the Algorithm C makespan).
double checked_horizon(const Instance& instance, double alpha, const ConvexOptParams& params) {
  if (params.slots < 1) throw ModelError("solve_fractional_opt: slots must be positive");
  if (!(alpha > 1.0) || !std::isfinite(alpha)) {
    throw ModelError("solve_fractional_opt: alpha must be finite and exceed 1");
  }
  if (!(params.horizon >= 0.0) || !std::isfinite(params.horizon)) {
    throw ModelError("solve_fractional_opt: horizon must be finite and non-negative");
  }
  if (!(params.energy_weight > 0.0) || !std::isfinite(params.energy_weight)) {
    throw ModelError("solve_fractional_opt: energy_weight must be finite and positive");
  }
  if (params.horizon > 0.0) return params.horizon;
  const Schedule c = run_algorithm_c(instance, alpha);
  return 3.0 * std::max(c.makespan(), 1e-12);
}

ConvexOptResult fista(const Instance& instance, double alpha, const ConvexOptParams& params,
                      double horizon) {
  const int N = params.slots;
  const std::size_t dim = instance.size() * static_cast<std::size_t>(N);
  Problem prob{instance, alpha, N, horizon / N, params.energy_weight, {}, {}, {}};
  prob.first_slot.resize(instance.size());
  prob.flow_coef.assign(dim, 0.0);
  prob.sigma.resize(static_cast<std::size_t>(N));
  for (const Job& j : instance.jobs()) {
    const int f = first_allowed_slot(j.release, prob.h, N);
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

/// The exact solve when every job has the same density rho.  The flow term
/// is then rho * sum_i t_i sigma_i - rho * sum_j r_j V_j, so the program sees
/// x only through the slot totals sigma_i, and a sigma >= 0 with the right
/// total is feasible iff no prefix of slots holds more than the volume
/// released into it.  Its KKT conditions give each maximal run of release
/// groups (jobs sharing a first slot) one water level lambda: every busy slot
/// of the run has marginal cost w * alpha * (sigma_i/h)^(alpha-1) + rho t_i
/// equal to lambda, and every idle one rho t_i >= lambda.  Levels rise from
/// run to run, so pool-adjacent-violators over the groups finds the runs.
class WaterFill {
 public:
  WaterFill(double alpha, double h, double rho, double energy_weight)
      : alpha_(alpha), h_(h), step_(rho * h), wa_(energy_weight * alpha),
        p_(1.0 / (alpha - 1.0)) {}

  /// A run of release groups over slots [begin, end).  Its busy slots are
  /// [begin, begin + busy); `top` is lambda - rho t of the last of them, so
  /// every busy slot's headroom is `top` plus a multiple of rho h: no
  /// difference of two large times, and the last slot keeps its digits
  /// however close lambda is to starting the next one.
  struct Block {
    int begin = 0;
    int end = 0;
    std::size_t first_job = 0;  ///< [first_job, end_job) in release order
    std::size_t end_job = 0;
    double volume = 0.0;
    int busy = 0;
    double top = 0.0;
  };

  /// Appends the next release group and merges it backwards while an earlier
  /// run's level exceeds the later one's.
  void add_group(Block b, std::vector<Block>& blocks) {
    solve(b);
    blocks.push_back(b);
    while (blocks.size() >= 2) {
      Block& prev = blocks[blocks.size() - 2];
      const Block& last = blocks.back();
      // Both levels relative to rho t at last.begin.
      if (!(headroom(prev, last.begin - prev.begin) > headroom(last, 0))) break;
      prev.end = last.end;
      prev.end_job = last.end_job;
      prev.volume += last.volume;
      blocks.pop_back();
      solve(blocks.back());
    }
  }

  /// Slot speed sigma_i / h of slot begin + k of a solved run.
  [[nodiscard]] double speed(const Block& b, int k) const {
    return k < b.busy ? std::pow(headroom(b, k) / wa_, p_) : 0.0;
  }

  [[nodiscard]] long steps() const { return steps_; }

 private:
  /// lambda - rho t at slot begin + k (negative past the busy slots).
  [[nodiscard]] double headroom(const Block& b, int k) const {
    return b.top + step_ * static_cast<double>(b.busy - 1 - k);
  }

  /// Finds the run's busy slots and level.  The volume the first K slots
  /// hold when lambda just reaches slot K's idle marginal cost is
  /// sum_{m=1..K} h (rho h m / (w alpha))^(1/(alpha-1)); the least K whose
  /// sum reaches V is the busy count.  The headroom u of the last busy slot
  /// then solves S(u) = sum_{m<K} h ((u + rho h m) / (w alpha))^p = V, by
  /// Newton on S(u)^(alpha-1) (exact when one slot is busy) inside a
  /// bisection bracket.
  void solve(Block& b) {
    const double V = b.volume;
    const int slots = b.end - b.begin;
    int K = 1;
    for (double full = 0.0; K < slots; ++K) {
      full += h_ * std::pow(step_ * K / wa_, p_);
      if (full >= V) break;
    }
    b.busy = K;
    // One busy slot holding V is an upper end, as is the next slot's start.
    double lo = 0.0;
    double hi = wa_ * std::pow(V / h_, alpha_ - 1.0);
    if (K < slots) hi = std::min(hi, step_);
    double u = hi;
    for (;;) {
      ++steps_;
      // S(u) and S'(u) / p = sum_m h * speed_m / (u + rho h m).
      double S = 0.0, dS = 0.0;
      for (int m = K - 1; m >= 0; --m) {
        const double x = u + step_ * static_cast<double>(m);
        const double sigma = h_ * std::pow(x / wa_, p_);
        S += sigma;
        dS += sigma / x;
      }
      if (S == V) break;
      (S > V ? hi : lo) = u;
      double next = u - S * (1.0 - std::pow(V / S, alpha_ - 1.0)) / dS;
      if (!(next > lo && next < hi)) {
        next = lo > 0.0 && hi > 2.0 * lo ? std::sqrt(lo * hi) : 0.5 * (lo + hi);
      }
      const bool done = !(next > lo && next < hi) ||
                        std::abs(next - u) <= 4.0 * std::numeric_limits<double>::epsilon() * u;
      u = next;
      if (done) break;
    }
    b.top = u;
  }

  double alpha_;
  double h_;
  double step_;  ///< rho * h: the marginal flow cost from one slot to the next
  double wa_;    ///< energy_weight * alpha
  double p_;     ///< 1 / (alpha - 1)
  long steps_ = 0;
};

ConvexOptResult water_fill(const Instance& instance, double alpha, const ConvexOptParams& params,
                           double horizon) {
  const int N = params.slots;
  const double h = horizon / N;
  const double rho = instance.jobs().front().density;
  WaterFill wf(alpha, h, rho, params.energy_weight);

  // Release groups in release order; first slots never decrease along it.
  const std::vector<JobId> order = instance.fifo_order();
  std::vector<WaterFill::Block> blocks;
  for (std::size_t k = 0; k < order.size();) {
    WaterFill::Block b;
    b.begin = first_allowed_slot(instance.job(order[k]).release, h, N);
    b.first_job = k;
    for (; k < order.size(); ++k) {
      const Job& j = instance.job(order[k]);
      if (first_allowed_slot(j.release, h, N) != b.begin) break;
      b.volume += j.volume;
    }
    b.end_job = k;
    b.end = k < order.size() ? first_allowed_slot(instance.job(order[k]).release, h, N) : N;
    wf.add_group(b, blocks);
  }

  ConvexOptResult out;
  out.iterations = static_cast<int>(wf.steps());
  out.horizon = horizon;
  out.slot_speed.assign(static_cast<std::size_t>(N), 0.0);
  for (const WaterFill::Block& b : blocks) {
    for (int k = 0; k < b.busy; ++k) {
      out.slot_speed[static_cast<std::size_t>(b.begin + k)] = wf.speed(b, k);
    }
    // The flow, job by job in release order over the run's slots, so each
    // term is rho * (t_i - r_j) * x and keeps its digits when t is large.
    const int busy_end = b.begin + b.busy;
    int i = b.begin;
    double left = h * out.slot_speed[static_cast<std::size_t>(i)];
    for (std::size_t k = b.first_job; k < b.end_job; ++k) {
      const Job& j = instance.job(order[k]);
      const bool last = k + 1 == b.end_job;  // takes whatever rounding left over
      double need = j.volume;
      while (i < busy_end && (last || need > 0.0)) {
        const double take = last ? left : std::min(need, left);
        const double mid = (static_cast<double>(i) + 0.5) * h;
        out.fractional_flow += j.density * (mid - j.release) * take;
        need -= take;
        left -= take;
        if (last || !(left > 0.0)) {
          if (++i < busy_end) left = h * out.slot_speed[static_cast<std::size_t>(i)];
        }
      }
    }
  }
  for (double s : out.slot_speed) {
    if (s > 0.0) out.energy += h * std::pow(s, alpha);
  }
  out.objective = params.energy_weight * out.energy + out.fractional_flow;
  OBS_COUNT("opt.waterfill.solves", 1);
  return out;
}

bool single_density(const Instance& instance) {
  const double rho = instance.jobs().front().density;
  return std::all_of(instance.jobs().begin(), instance.jobs().end(),
                     [rho](const Job& j) { return j.density == rho; });
}

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
  const double horizon = checked_horizon(instance, alpha, params);
  return single_density(instance) ? water_fill(instance, alpha, params, horizon)
                                  : fista(instance, alpha, params, horizon);
}

ConvexOptResult solve_fractional_opt_fista(const Instance& instance, double alpha,
                                           const ConvexOptParams& params) {
  if (instance.empty()) return {};
  return fista(instance, alpha, params, checked_horizon(instance, alpha, params));
}

}  // namespace detail

}  // namespace speedscale
