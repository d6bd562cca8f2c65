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
/// in slot i.  FISTA works on the trimmed program, slots [0, active) of the
/// grid: a row's entries past `active` hold exact zeros, as do those before
/// the job's first allowed slot.  Every floating-point sum keeps the order of
/// the slot-major formulation (sigma_i over jobs in id order, the flow and
/// the line-search terms over jobs, then slots), so the iterates are
/// bit-identical to it.  The sums skip the zeros, which is exact because an
/// accumulator started at +0 is never -0 and adding +-0 to it changes
/// nothing.
struct Problem {
  const Instance& instance;
  double alpha;
  int n_slots;                    ///< the grid's slots N: the row stride
  int active;                     ///< FISTA's slots [0, active)
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
      for (int i = first_slot[static_cast<std::size_t>(j.id)]; i < active; ++i) {
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
    for (int i = 0; i < active; ++i) {
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
      for (int i = first_slot[static_cast<std::size_t>(j.id)]; i < active; ++i) {
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
      const std::size_t d0 = idx(j.id, 0);
      for (int i = first_slot[static_cast<std::size_t>(j.id)]; i < active; ++i) {
        const std::size_t d = d0 + static_cast<std::size_t>(i);
        g[d] = marginal[static_cast<std::size_t>(i)] + flow_coef[d];
        flow += flow_coef[d] * y[d];
      }
    }
    return energy_weight * e + flow;
  }

  /// cand = Proj(y - g / lipschitz): each job's allocation onto its scaled
  /// simplex over its allowed slots, with `order` (per-row descending order
  /// of the previous projection) as the sort hint.  The projection ignores a
  /// constant added to a row, so each row's least gradient comes off first:
  /// otherwise a gradient far larger than the volume (rho (t_i - r_j) near
  /// -1e5 on the last slot of a 200-slot grid to t = 1e7) leaves y - g / L
  /// with few of the volume's digits, and a job alone in its slot would not
  /// get its volume back.
  void gradient_step(const std::vector<double>& y, const std::vector<double>& g,
                     double lipschitz, std::vector<double>& cand,
                     std::vector<std::uint32_t>& order) const {
    for (const Job& j : instance.jobs()) {
      const std::size_t begin = idx(j.id, first_slot[static_cast<std::size_t>(j.id)]);
      const std::size_t end = idx(j.id, active);
      const double least = *std::min_element(g.begin() + static_cast<std::ptrdiff_t>(begin),
                                              g.begin() + static_cast<std::ptrdiff_t>(end));
      for (std::size_t d = begin; d < end; ++d) cand[d] = y[d] - (g[d] - least) / lipschitz;
      numerics::project_simplex(std::span<double>(cand.data() + begin, end - begin), j.volume,
                                std::span<std::uint32_t>(order.data() + begin, end - begin));
    }
  }

  /// w h P*(m / w) for P*(m) = (alpha - 1)(m / alpha)^(alpha/(alpha-1)), the
  /// conjugate of s^alpha: -min over sigma >= 0 of a slot's energy minus m sigma.
  [[nodiscard]] double conjugate(double m) const {
    const double s = std::pow(m / (energy_weight * alpha), 1.0 / (alpha - 1.0));
    return h * s * m * ((alpha - 1.0) / alpha);
  }

  /// The grid's Lagrangian dual at job prices mu:
  ///     D(mu) = sum_j mu_j V_j - sum_i w h P*(m_i / w),
  ///     m_i = max(0, max over jobs allowed in slot i of mu_j - rho_j (t_i - r_j)).
  /// Weak duality makes D(mu) a lower bound on the optimum for any mu.  Past
  /// `active` each job's line mu_j - rho_j (t_i - r_j) only falls, so the
  /// tail's slots are summed only until every line is below zero.
  [[nodiscard]] detail::GridDual dual(const std::vector<double>& price,
                                      std::vector<double>& top) const {
    std::fill_n(top.begin(), active, 0.0);
    double dual = 0.0;
    for (const Job& j : instance.jobs()) {
      const double* c = flow_coef.data() + idx(j.id, 0);
      const double mu = price[static_cast<std::size_t>(j.id)];
      for (int i = first_slot[static_cast<std::size_t>(j.id)]; i < active; ++i) {
        double& m = top[static_cast<std::size_t>(i)];
        m = std::max(m, mu - c[i]);
      }
      dual += mu * j.volume;
    }
    for (int i = 0; i < active; ++i) {
      const double m = top[static_cast<std::size_t>(i)];
      if (m > 0.0) dual -= conjugate(m);
    }
    detail::GridDual out{dual, dual};
    for (int i = active; i < n_slots; ++i) {
      double m = 0.0;
      for (const Job& j : instance.jobs()) {
        m = std::max(m, price[static_cast<std::size_t>(j.id)] - flow_coef[idx(j.id, i)]);
      }
      if (!(m > 0.0)) break;
      out.full -= conjugate(m);
    }
    return out;
  }
};

/// A job's first allowed slot: the first slot boundary at or after its
/// release, clamped to the last slot (in double, so a release far past the
/// horizon cannot overflow the int).
int first_allowed_slot(double release, double h, int n_slots) {
  return static_cast<int>(
      std::min(std::ceil(release / h - 1e-12), static_cast<double>(n_slots - 1)));
}

/// The program on the whole grid (active = slots).
Problem make_problem(const Instance& instance, double alpha, const ConvexOptParams& params,
                     double horizon) {
  const int N = params.slots;
  Problem prob{instance, alpha, N, N, horizon / N, params.energy_weight, {}, {}, {}};
  prob.first_slot.resize(instance.size());
  prob.flow_coef.assign(instance.size() * static_cast<std::size_t>(N), 0.0);
  prob.sigma.resize(static_cast<std::size_t>(N));
  for (const Job& j : instance.jobs()) {
    const int f = first_allowed_slot(j.release, prob.h, N);
    prob.first_slot[static_cast<std::size_t>(j.id)] = f;
    for (int i = f; i < N; ++i) {
      const double mid = (static_cast<double>(i) + 0.5) * prob.h;
      prob.flow_coef[prob.idx(j.id, i)] = j.density * (mid - j.release);
    }
  }
  return prob;
}

/// FISTA's lower bound: the grid dual at the prices that make a point's
/// support exactly optimal.
///
/// The least marginal costs min_i marginal_i + c_ji are the optimum's KKT
/// multipliers, but at an iterate they are only as close to them as the
/// point is, and the grid dual is kinked wherever jobs share a slot.  So its
/// gap at those prices shrinks like the distance to the optimum, not like the
/// objective's error, and certifying 1e-9 took thousands of iterations at
/// alpha = 1.5.  The support's prices are exact as soon as the support is:
/// at the optimum jobs j and k sharing slot i have mu_j - c_ji = mu_k - c_ki,
/// so the prices of a connected component of the support (jobs linked
/// through shared slots) are mu_j = lambda + delta_j with the deltas fixed by
/// the c's.  Each slot i of the component then runs at the speed that
/// m_i = lambda + a_i implies, and lambda is the level at which those speeds
/// hold the component's volume: one increasing equation, solved by
/// safeguarded Newton.  Whatever the support, weak duality keeps the bound
/// valid; a wrong support only makes it weak.
class SupportDual {
 public:
  explicit SupportDual(const Problem& prob)
      : prob_(prob), reached_(prob.instance.size()), delta_(prob.instance.size()),
        slot_a_(static_cast<std::size_t>(prob.n_slots)),
        slot_seen_(static_cast<std::size_t>(prob.n_slots)),
        slot_start_(static_cast<std::size_t>(prob.n_slots) + 1),
        top_(static_cast<std::size_t>(prob.n_slots)) {}

  /// The bound at x (zero past prob.active).  `price` holds each job's
  /// price: on entry the Newton start (NaN for none), on exit the prices
  /// the bound was taken at.
  [[nodiscard]] detail::GridDual at(const std::vector<double>& x, std::vector<double>& price) {
    index_support(x);
    const Problem& p = prob_;
    std::fill(reached_.begin(), reached_.end(), false);
    std::fill_n(slot_seen_.begin(), p.active, false);
    for (const Job& root : p.instance.jobs()) {
      if (reached_[static_cast<std::size_t>(root.id)]) continue;
      // The root's component, breadth first: jobs, and the slots they share.
      queue_.assign(1, root.id);
      reached_[static_cast<std::size_t>(root.id)] = true;
      delta_[static_cast<std::size_t>(root.id)] = 0.0;
      slots_.clear();
      double volume = 0.0;
      for (std::size_t q = 0; q < queue_.size(); ++q) {
        const JobId j = queue_[q];
        volume += p.instance.job(j).volume;
        const double* row = x.data() + p.idx(j, 0);
        const double* c = p.flow_coef.data() + p.idx(j, 0);
        for (int i = p.first_slot[static_cast<std::size_t>(j)]; i < p.active; ++i) {
          if (!(row[i] > 0.0) || slot_seen_[static_cast<std::size_t>(i)]) continue;
          slot_seen_[static_cast<std::size_t>(i)] = true;
          const double a = delta_[static_cast<std::size_t>(j)] - c[i];
          slot_a_[static_cast<std::size_t>(i)] = a;
          slots_.push_back(i);
          for (int k = slot_start_[static_cast<std::size_t>(i)];
               k < slot_start_[static_cast<std::size_t>(i) + 1]; ++k) {
            const JobId other = slot_jobs_[static_cast<std::size_t>(k)];
            if (reached_[static_cast<std::size_t>(other)]) continue;
            reached_[static_cast<std::size_t>(other)] = true;
            delta_[static_cast<std::size_t>(other)] = a + p.flow_coef[p.idx(other, i)];
            queue_.push_back(other);
          }
        }
      }
      const double lambda = level(volume, price[static_cast<std::size_t>(root.id)]);
      for (JobId j : queue_) {
        price[static_cast<std::size_t>(j)] = lambda + delta_[static_cast<std::size_t>(j)];
      }
    }
    return p.dual(price, top_);
  }

 private:
  /// slot_jobs_[slot_start_[i], slot_start_[i + 1]): the jobs with volume in
  /// slot i, in id order.
  void index_support(const std::vector<double>& x) {
    const Problem& p = prob_;
    std::fill_n(slot_start_.begin(), p.active + 1, 0);
    for (const Job& j : p.instance.jobs()) {
      const double* row = x.data() + p.idx(j.id, 0);
      for (int i = p.first_slot[static_cast<std::size_t>(j.id)]; i < p.active; ++i) {
        if (row[i] > 0.0) ++slot_start_[static_cast<std::size_t>(i) + 1];
      }
    }
    for (int i = 0; i < p.active; ++i) {
      slot_start_[static_cast<std::size_t>(i) + 1] += slot_start_[static_cast<std::size_t>(i)];
    }
    slot_jobs_.resize(static_cast<std::size_t>(slot_start_[static_cast<std::size_t>(p.active)]));
    fill_.assign(slot_start_.begin(), slot_start_.begin() + p.active);
    for (const Job& j : p.instance.jobs()) {
      const double* row = x.data() + p.idx(j.id, 0);
      for (int i = p.first_slot[static_cast<std::size_t>(j.id)]; i < p.active; ++i) {
        if (row[i] > 0.0) slot_jobs_[static_cast<std::size_t>(fill_[static_cast<std::size_t>(i)]++)] = j.id;
      }
    }
  }

  /// The lambda at which the component's slots hold `volume`:
  /// sum_i h s(lambda + a_i) = volume with s(m) = (m / (w alpha))^(1/(alpha-1))
  /// for m > 0, else 0.  Every slot idles at lambda = -max a_i, and the top
  /// slot alone holds the volume at w alpha (volume / h)^(alpha-1) - max a_i.
  [[nodiscard]] double level(double volume, double start) const {
    const Problem& p = prob_;
    const double wa = p.energy_weight * p.alpha;
    const double q = 1.0 / (p.alpha - 1.0);
    double top_a = -std::numeric_limits<double>::infinity();
    for (int i : slots_) top_a = std::max(top_a, slot_a_[static_cast<std::size_t>(i)]);
    double lo = -top_a;
    double hi = wa * std::pow(volume / p.h, p.alpha - 1.0) - top_a;
    double lambda = start > lo && start < hi ? start : 0.5 * (lo + hi);
    for (int step = 0; step < 100; ++step) {
      double held = 0.0, slope = 0.0;
      for (int i : slots_) {
        const double m = lambda + slot_a_[static_cast<std::size_t>(i)];
        if (!(m > 0.0)) continue;
        const double s = p.h * std::pow(m / wa, q);
        held += s;
        slope += q * s / m;
      }
      if (held == volume) break;
      (held > volume ? hi : lo) = lambda;
      double next = lambda - (held - volume) / slope;
      if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
      const bool done = !(next > lo && next < hi) ||
                        std::abs(next - lambda) <=
                            4.0 * std::numeric_limits<double>::epsilon() * std::abs(lambda);
      lambda = next;
      if (done) break;
    }
    return lambda;
  }

  const Problem& prob_;
  std::vector<bool> reached_;     ///< per job: in a component already
  std::vector<double> delta_;     ///< per job: mu_j - lambda
  std::vector<double> slot_a_;    ///< per slot: m_i - lambda
  std::vector<bool> slot_seen_;   ///< per slot: in a component already
  std::vector<int> slot_start_, fill_;
  std::vector<JobId> slot_jobs_;
  std::vector<JobId> queue_;      ///< the component's jobs
  std::vector<int> slots_;        ///< the component's slots
  std::vector<double> top_;
};

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

/// The trim FISTA starts from: slots up to that of 1.2x Algorithm C's
/// makespan (the optimum idles from a little past it on; the auto horizon is
/// 3x it), and at least every job's first allowed slot.
int first_trim(const Problem& prob, const ConvexOptParams& params, double horizon) {
  const double c_makespan = params.horizon > 0.0
                                ? run_algorithm_c(prob.instance, prob.alpha).makespan()
                                : horizon / 3.0;
  const int last_first = *std::max_element(prob.first_slot.begin(), prob.first_slot.end());
  return static_cast<int>(std::min(std::max(std::floor(1.2 * c_makespan / prob.h) + 1.0,
                                            static_cast<double>(last_first) + 1.0),
                                   static_cast<double>(prob.n_slots)));
}

/// FISTA (accelerated projected gradient with backtracking and restart) on
/// the trimmed program.  Every detail::kFistaDualEvery iterations it takes
/// the grid dual at x's support prices and stops once that certifies x
/// within rel_tol.  When the slots past the trim lower the bound by more
/// than the trimmed program's own gap, the optimum needs them: the trim
/// grows by half, and FISTA goes on from x with its momentum reset.  So the
/// trim is a speed hint; the whole grid's bound decides when to stop.
ConvexOptResult fista(const Instance& instance, double alpha, const ConvexOptParams& params,
                      double horizon) {
  const int N = params.slots;
  const std::size_t dim = instance.size() * static_cast<std::size_t>(N);
  Problem prob = make_problem(instance, alpha, params, horizon);
  prob.active = first_trim(prob, params, horizon);

  std::vector<double> x(dim, 0.0);
  // Feasible start: each job uniform over its allowed slots.
  for (const Job& j : instance.jobs()) {
    const int f = prob.first_slot[static_cast<std::size_t>(j.id)];
    const double per = j.volume / static_cast<double>(prob.active - f);
    for (int i = f; i < prob.active; ++i) x[prob.idx(j.id, i)] = per;
  }
  // Projection sort hints: each row's descending order from its previous
  // projection, indices relative to the job's first allowed slot.  Past the
  // trim they stay the identity, so a grown row's hint is still a permutation.
  std::vector<std::uint32_t> order(dim);
  for (const Job& j : instance.jobs()) {
    const int f = prob.first_slot[static_cast<std::size_t>(j.id)];
    for (int i = f; i < N; ++i) order[prob.idx(j.id, i)] = static_cast<std::uint32_t>(i - f);
  }

  std::vector<double> x_prev = x;
  std::vector<double> y = x;
  std::vector<double> g(dim), cand(dim, 0.0), marginal(static_cast<std::size_t>(N));
  std::vector<double> price(instance.size(), std::numeric_limits<double>::quiet_NaN());
  SupportDual support(prob);
  double tk = 1.0;
  double lipschitz = 1.0;
  double lipschitz_floor = 0.0;  // the last lipschitz the line search refused, relaxed
  double best_obj = prob.objective(x);
  double fx = best_obj;  // the objective at x
  double dual = -std::numeric_limits<double>::infinity();
  bool certified = false;
  int iter = 0;
  std::int64_t projections = 0;  // line-search steps: one projection each
  std::int64_t grows = 0;
  const auto gap_ok = [&](double lower) { return fx - lower <= params.rel_tol * std::abs(fx); };

  while (iter < params.max_iters) {
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
        const std::size_t end = prob.idx(j.id, prob.active);
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
      lipschitz_floor = lipschitz;
      lipschitz *= 2.0;
    }
    // Momentum with restart on non-descent.
    const double tk1 = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * tk * tk));
    const double mom = (tk - 1.0) / tk1;
    if (fx_new > best_obj) {
      // Restart: drop momentum, continue from the new point.
      tk = 1.0;
      y = cand;
      x_prev = cand;
      x = cand;
    } else {
      for (const Job& j : instance.jobs()) {
        const std::size_t end = prob.idx(j.id, prob.active);
        for (std::size_t d = prob.idx(j.id, prob.first_slot[static_cast<std::size_t>(j.id)]);
             d < end; ++d) {
          y[d] = cand[d] + mom * (cand[d] - x_prev[d]);
        }
      }
      // x_prev = x, x = cand; the next line search rewrites cand's trim.
      std::swap(x_prev, x);
      std::swap(x, cand);
      tk = tk1;
    }
    fx = fx_new;
    if (fx_new < best_obj) best_obj = fx_new;
    // The step grows back by 1/0.9 an iteration, but past the last one the
    // line search refused only as that floor relaxes, by 1% an iteration:
    // an unbounded step drowns the volumes' digits in y - g / L, and a
    // fixed floor stalls once the curvature falls (alpha = 8).
    lipschitz_floor *= 0.99;
    lipschitz = std::max(0.9 * lipschitz, lipschitz_floor);
    if (++iter % detail::kFistaDualEvery != 0) continue;
    const detail::GridDual d = support.at(x, price);
    dual = std::max(dual, d.full);
    if (gap_ok(dual)) {
      certified = true;
      break;
    }
    // The slots past the trim cost the bound more than the trimmed program's
    // own gap: the optimum needs them.
    if (prob.active < N && d.trimmed - d.full > fx - d.trimmed) {
      prob.active = std::min(N, prob.active + (prob.active + 1) / 2);
      ++grows;
      tk = 1.0;
      y = x;
      x_prev = x;
    }
  }
  if (!certified) {
    // Out of iterations: the last iterate's bound too, then report the gap.
    dual = std::max(dual, support.at(x, price).full);
    certified = gap_ok(dual);
  }

  OBS_COUNT("opt.fista.iterations", iter);
  OBS_COUNT("opt.fista.projections", projections);
  OBS_COUNT("opt.fista.grows", grows);
  OBS_COUNT("opt.fista.uncertified", certified ? 0 : 1);

  ConvexOptResult out;
  out.iterations = iter;
  out.horizon = horizon;
  out.dual = dual;
  out.objective = prob.objective(x, &out.energy, &out.fractional_flow);
  // objective(x) left x's sigma in prob.sigma, zero past the trim.
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

  /// lambda - rho t at slot begin + k (negative past the busy slots): at a
  /// busy slot, its marginal energy cost.
  [[nodiscard]] double headroom(const Block& b, int k) const {
    return b.top + step_ * static_cast<double>(b.busy - 1 - k);
  }

 private:

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
    // The dual at the run's level: each job's price lambda - rho r_j is
    // `top` + rho (t - r_j) at the last busy slot t, each busy slot's m_i its
    // headroom, and w h P*(m / w) = h s m (alpha - 1) / alpha at speed s.
    const int busy_end = b.begin + b.busy;
    const double t_top = (static_cast<double>(busy_end - 1) + 0.5) * h;
    for (std::size_t k = b.first_job; k < b.end_job; ++k) {
      const Job& j = instance.job(order[k]);
      out.dual += (b.top + rho * (t_top - j.release)) * j.volume;
    }
    for (int k = 0; k < b.busy; ++k) {
      out.dual -= h * out.slot_speed[static_cast<std::size_t>(b.begin + k)] * wf.headroom(b, k) *
                  ((alpha - 1.0) / alpha);
    }
    // The flow, job by job in release order over the run's slots, so each
    // term is rho * (t_i - r_j) * x and keeps its digits when t is large.
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

GridDual fista_grid_dual(const Instance& instance, double alpha, const ConvexOptParams& params,
                         double horizon, int active, const std::vector<double>& x,
                         std::vector<double>& price) {
  Problem prob = make_problem(instance, alpha, params, horizon);
  prob.active = active;
  return SupportDual(prob).at(x, price);
}

}  // namespace detail

}  // namespace speedscale
