// Tests for the offline-optimum module: closed-form single-job optimum and
// the discretized convex solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/bounds.h"
#include "src/obs/metrics_registry.h"
#include "src/opt/convex_opt.h"
#include "src/opt/single_job_opt.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

class SingleJobOptAlpha : public ::testing::TestWithParam<double> {};

TEST_P(SingleJobOptAlpha, SpeedProfileProcessesExactlyTheVolume) {
  const double alpha = GetParam();
  const double V = 2.3, rho = 1.7;
  const SingleJobFracOpt opt = single_job_frac_opt(V, rho, alpha);
  // Quadrature of the Euler-Lagrange speed profile must reproduce V.
  const int n = 200000;
  double vol = 0.0;
  for (int i = 0; i < n; ++i) {
    const double a = opt.horizon * i / n, b = opt.horizon * (i + 1) / n;
    vol += 0.5 * (opt.speed_at(a, rho, alpha) + opt.speed_at(b, rho, alpha)) * (b - a);
  }
  EXPECT_NEAR(vol, V, 1e-3 * V);
}

TEST_P(SingleJobOptAlpha, ClosedFormMatchesQuadrature) {
  const double alpha = GetParam();
  const double V = 1.0, rho = 1.0;
  const SingleJobFracOpt opt = single_job_frac_opt(V, rho, alpha);
  const int n = 200000;
  double energy = 0.0, flow = 0.0;
  double remaining = V;
  for (int i = 0; i < n; ++i) {
    const double a = opt.horizon * i / n, b = opt.horizon * (i + 1) / n;
    const double s = opt.speed_at(0.5 * (a + b), rho, alpha);
    energy += std::pow(s, alpha) * (b - a);
    flow += rho * remaining * (b - a);
    remaining -= s * (b - a);
  }
  EXPECT_NEAR(opt.energy, energy, 2e-3 * std::max(energy, 1e-9));
  EXPECT_NEAR(opt.fractional_flow, flow, 2e-3 * std::max(flow, 1e-9));
}

TEST_P(SingleJobOptAlpha, OptimalityAgainstPerturbations) {
  // Constant-speed and C-style schedules cannot beat the closed form.
  const double alpha = GetParam();
  const double V = 1.5, rho = 2.0;
  const SingleJobFracOpt opt = single_job_frac_opt(V, rho, alpha);
  const Instance inst({Job{kNoJob, 0.0, V, rho}});
  const RunResult c = run_c(inst, alpha);
  EXPECT_LE(opt.objective, c.metrics.fractional_objective() + 1e-9);
  for (double T : {0.5 * opt.horizon, opt.horizon, 2.0 * opt.horizon}) {
    const double s = V / T;
    const double const_cost = std::pow(s, alpha) * T + rho * 0.5 * V * T;
    EXPECT_LE(opt.objective, const_cost + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, SingleJobOptAlpha, ::testing::Values(1.5, 2.0, 2.5, 3.0));

TEST(SingleJobIntOpt, FirstOrderOptimality) {
  const double alpha = 3.0, V = 2.0, rho = 1.5;
  const SingleJobIntOpt opt = single_job_int_opt(V, rho, alpha);
  const auto cost = [&](double s) {
    return std::pow(s, alpha - 1.0) * V + rho * V * V / s;
  };
  EXPECT_NEAR(opt.objective, cost(opt.speed), 1e-9);
  // Local minimum: nudging the speed cannot help.
  EXPECT_LE(cost(opt.speed), cost(opt.speed * 1.01) + 1e-12);
  EXPECT_LE(cost(opt.speed), cost(opt.speed * 0.99) + 1e-12);
}

TEST(SingleJobOpt, RejectsBadParameters) {
  EXPECT_THROW((void)single_job_frac_opt(0.0, 1.0, 2.0), ModelError);
  EXPECT_THROW((void)single_job_frac_opt(1.0, -1.0, 2.0), ModelError);
  EXPECT_THROW((void)single_job_frac_opt(1.0, 1.0, 1.0), ModelError);
  EXPECT_THROW((void)single_job_int_opt(1.0, 1.0, 0.9), ModelError);
}

TEST(ConvexOpt, MatchesSingleJobClosedForm) {
  const double alpha = 2.0;
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}});
  const SingleJobFracOpt exact = single_job_frac_opt(1.0, 1.0, alpha);
  const ConvexOptResult num = solve_fractional_opt(inst, alpha, {.slots = 800});
  EXPECT_NEAR(num.objective, exact.objective, 0.02 * exact.objective);
  // Discretized feasible solutions can only be >= the continuum optimum
  // (up to midpoint-rule wobble).
  EXPECT_GE(num.objective, exact.objective * 0.999);
}

TEST(ConvexOpt, LowerBoundsAlgorithmCosts) {
  const double alpha = 2.5;
  const Instance inst = workload::generate({.n_jobs = 10, .arrival_rate = 1.5, .seed = 12});
  const ConvexOptResult opt = solve_fractional_opt(inst, alpha, {.slots = 600});
  const RunResult c = run_c(inst, alpha);
  EXPECT_LE(opt.objective, c.metrics.fractional_objective() * (1.0 + 1e-6));
  // Theorem 1: C is 2-competitive.
  EXPECT_LE(c.metrics.fractional_objective(), 2.0 * opt.objective * 1.05);
}

TEST(ConvexOpt, SpeedsAreNonnegativeAndVolumeFeasible) {
  const double alpha = 2.0;
  const Instance inst = workload::generate({.n_jobs = 6, .seed = 77});
  const ConvexOptResult opt = solve_fractional_opt(inst, alpha, {.slots = 400});
  double volume = 0.0;
  const double h = opt.horizon / static_cast<double>(opt.slot_speed.size());
  for (double s : opt.slot_speed) {
    EXPECT_GE(s, -1e-12);
    volume += s * h;
  }
  EXPECT_NEAR(volume, inst.total_volume(), 1e-6 * inst.total_volume());
}

TEST(ConvexOpt, RefinementImprovesOrMatches) {
  const double alpha = 2.0;
  const Instance inst = workload::generate({.n_jobs = 8, .seed = 5});
  const ConvexOptResult coarse = solve_fractional_opt(inst, alpha, {.slots = 150});
  const ConvexOptResult fine = solve_fractional_opt(inst, alpha, {.slots = 900});
  // Finer grids approximate the continuum better: objective should not grow
  // by more than the coarse grid's discretization wobble.
  EXPECT_LE(fine.objective, coarse.objective * 1.01);
}

/// The slot-major FISTA solver the job-major kernel replaced, kept as the
/// oracle it must match bit for bit: x[j * N + i] summed slot by slot, sigma
/// recomputed for the gradient and the objective, pow on every slot, the
/// marginal reallocated per gradient and a sort-based projection per row.
/// It runs the kernel's trim and stop: slots up to that of 1.2x Algorithm
/// C's makespan, grown by half when the slots past them lower the bound by
/// more than the trimmed program's gap, and a stop once
/// detail::fista_grid_dual certifies the iterate within rel_tol.
namespace reference {

void project_simplex(std::span<double> x, double total) {
  if (total == 0.0) {
    for (double& xi : x) xi = 0.0;
    return;
  }
  std::vector<double> u(x.begin(), x.end());
  std::sort(u.begin(), u.end(), std::greater<>());
  double cssv = 0.0;
  double tau = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    cssv += u[i];
    const double t = (cssv - total) / static_cast<double>(i + 1);
    if (u[i] - t > 0.0) tau = t;
  }
  for (double& xi : x) xi = std::max(xi - tau, 0.0);
}

struct Problem {
  const Instance& instance;
  double alpha;
  int n_slots;
  int active;  ///< the trim: slots [0, active) carry volume
  double h;
  double energy_weight = 1.0;
  std::vector<int> first_slot;
  std::vector<double> mid;

  [[nodiscard]] std::size_t idx(JobId j, int i) const {
    return static_cast<std::size_t>(j) * static_cast<std::size_t>(n_slots) +
           static_cast<std::size_t>(i);
  }

  [[nodiscard]] double objective(const std::vector<double>& x, double* energy_out = nullptr,
                                 double* flow_out = nullptr) const {
    double energy = 0.0;
    for (int i = 0; i < n_slots; ++i) {
      double sigma = 0.0;
      for (std::size_t j = 0; j < instance.size(); ++j) {
        sigma += x[idx(static_cast<JobId>(j), i)];
      }
      energy += h * std::pow(std::max(sigma, 0.0) / h, alpha);
    }
    double flow = 0.0;
    for (const Job& j : instance.jobs()) {
      for (int i = first_slot[static_cast<std::size_t>(j.id)]; i < n_slots; ++i) {
        flow += j.density * (mid[static_cast<std::size_t>(i)] - j.release) * x[idx(j.id, i)];
      }
    }
    if (energy_out) *energy_out = energy;
    if (flow_out) *flow_out = flow;
    return energy_weight * energy + flow;
  }

  void gradient(const std::vector<double>& x, std::vector<double>& g) const {
    std::vector<double> marginal(static_cast<std::size_t>(n_slots));
    for (int i = 0; i < n_slots; ++i) {
      double sigma = 0.0;
      for (std::size_t j = 0; j < instance.size(); ++j) {
        sigma += x[idx(static_cast<JobId>(j), i)];
      }
      marginal[static_cast<std::size_t>(i)] =
          energy_weight * alpha * std::pow(std::max(sigma, 0.0) / h, alpha - 1.0);
    }
    std::fill(g.begin(), g.end(), 0.0);
    for (const Job& j : instance.jobs()) {
      for (int i = first_slot[static_cast<std::size_t>(j.id)]; i < n_slots; ++i) {
        g[idx(j.id, i)] = marginal[static_cast<std::size_t>(i)] +
                          j.density * (mid[static_cast<std::size_t>(i)] - j.release);
      }
    }
  }

  /// cand = Proj(y - (g - least) / lipschitz) row by row over [first, active),
  /// least the row's smallest gradient there (the projection ignores it).
  void step(const std::vector<double>& y, const std::vector<double>& g, double lipschitz,
            std::vector<double>& cand) const {
    std::fill(cand.begin(), cand.end(), 0.0);
    for (const Job& j : instance.jobs()) {
      const int f = first_slot[static_cast<std::size_t>(j.id)];
      double least = std::numeric_limits<double>::infinity();
      for (int i = f; i < active; ++i) least = std::min(least, g[idx(j.id, i)]);
      for (int i = f; i < active; ++i) {
        cand[idx(j.id, i)] = y[idx(j.id, i)] - (g[idx(j.id, i)] - least) / lipschitz;
      }
      project_simplex(std::span<double>(cand.data() + idx(j.id, f),
                                        static_cast<std::size_t>(active - f)),
                      j.volume);
    }
  }
};

/// With `trim` false, the program on the whole grid from the start.
ConvexOptResult solve(const Instance& instance, double alpha, const ConvexOptParams& params,
                      bool trim = true) {
  double horizon = params.horizon;
  double c_makespan = run_algorithm_c(instance, alpha).makespan();
  if (horizon <= 0.0) {
    horizon = 3.0 * std::max(c_makespan, 1e-12);
    c_makespan = horizon / 3.0;
  }
  const int N = params.slots;
  Problem prob{instance, alpha, N, N, horizon / N, params.energy_weight, {}, {}};
  prob.first_slot.resize(instance.size());
  prob.mid.resize(static_cast<std::size_t>(N));
  for (int i = 0; i < N; ++i) {
    prob.mid[static_cast<std::size_t>(i)] = (static_cast<double>(i) + 0.5) * prob.h;
  }
  int last_first = 0;
  for (const Job& j : instance.jobs()) {
    int f = static_cast<int>(std::ceil(j.release / prob.h - 1e-12));
    f = std::min(f, N - 1);
    prob.first_slot[static_cast<std::size_t>(j.id)] = f;
    last_first = std::max(last_first, f);
  }
  prob.active = trim ? std::min(N, std::max(static_cast<int>(std::floor(1.2 * c_makespan / prob.h)) + 1,
                                            last_first + 1))
                     : N;
  const std::size_t dim = instance.size() * static_cast<std::size_t>(N);
  std::vector<double> x(dim, 0.0);
  for (const Job& j : instance.jobs()) {
    const int f = prob.first_slot[static_cast<std::size_t>(j.id)];
    const double per = j.volume / static_cast<double>(prob.active - f);
    for (int i = f; i < prob.active; ++i) x[prob.idx(j.id, i)] = per;
  }
  std::vector<double> x_prev = x;
  std::vector<double> y = x;
  std::vector<double> g(dim), cand(dim);
  std::vector<double> price(instance.size(), std::numeric_limits<double>::quiet_NaN());
  double tk = 1.0;
  double lipschitz = 1.0;
  double lipschitz_floor = 0.0;
  double best_obj = prob.objective(x);
  double fx = best_obj;
  double dual = -std::numeric_limits<double>::infinity();
  bool certified = false;
  int iter = 0;
  const auto gap_ok = [&](double lower) { return fx - lower <= params.rel_tol * std::abs(fx); };
  while (iter < params.max_iters) {
    prob.gradient(y, g);
    const double fy = prob.objective(y);
    double fx_new = 0.0;
    for (int bt = 0; bt < 60; ++bt) {
      prob.step(y, g, lipschitz, cand);
      fx_new = prob.objective(cand);
      double lin = 0.0, quad = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff = cand[d] - y[d];
        lin += g[d] * diff;
        quad += diff * diff;
      }
      if (fx_new <= fy + lin + 0.5 * lipschitz * quad + 1e-14 * std::abs(fy)) break;
      lipschitz_floor = lipschitz;
      lipschitz *= 2.0;
    }
    const double tk1 = 0.5 * (1.0 + std::sqrt(1.0 + 4.0 * tk * tk));
    const double mom = (tk - 1.0) / tk1;
    if (fx_new > best_obj) {
      tk = 1.0;
      y = cand;
      x_prev = cand;
      x = cand;
    } else {
      for (std::size_t d = 0; d < dim; ++d) y[d] = cand[d] + mom * (cand[d] - x_prev[d]);
      x_prev = x;
      x = cand;
      tk = tk1;
    }
    fx = fx_new;
    if (fx_new < best_obj) best_obj = fx_new;
    lipschitz_floor *= 0.99;
    lipschitz = std::max(0.9 * lipschitz, lipschitz_floor);
    if (++iter % detail::kFistaDualEvery != 0) continue;
    const detail::GridDual d =
        detail::fista_grid_dual(instance, alpha, params, horizon, prob.active, x, price);
    dual = std::max(dual, d.full);
    if (gap_ok(dual)) {
      certified = true;
      break;
    }
    if (prob.active < N && d.trimmed - d.full > fx - d.trimmed) {
      prob.active = std::min(N, prob.active + (prob.active + 1) / 2);
      tk = 1.0;
      y = x;
      x_prev = x;
    }
  }
  if (!certified) {
    dual = std::max(
        dual, detail::fista_grid_dual(instance, alpha, params, horizon, prob.active, x, price).full);
  }
  ConvexOptResult out;
  out.iterations = iter;
  out.horizon = horizon;
  out.dual = dual;
  out.objective = prob.objective(x, &out.energy, &out.fractional_flow);
  out.slot_speed.resize(static_cast<std::size_t>(N));
  for (int i = 0; i < N; ++i) {
    double sigma = 0.0;
    for (std::size_t j = 0; j < instance.size(); ++j) {
      sigma += x[prob.idx(static_cast<JobId>(j), i)];
    }
    out.slot_speed[static_cast<std::size_t>(i)] = sigma / prob.h;
  }
  return out;
}

}  // namespace reference

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(ConvexOpt, JobMajorKernelMatchesSlotMajorReference) {
  struct Case {
    const char* name;
    Instance instance;
    ConvexOptParams params;
  };
  std::vector<Case> cases;
  cases.push_back({"gen8", workload::generate({.n_jobs = 8, .seed = 31}), {.slots = 120}});
  cases.push_back({"classes10",
                   workload::generate({.n_jobs = 10,
                                       .density_mode = workload::DensityMode::kClasses,
                                       .seed = 32}),
                   {.slots = 100}});
  cases.push_back({"tied",
                   Instance({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 2.0, 1.0},
                             Job{kNoJob, 1.5, 0.5, 3.0}, Job{kNoJob, 1.5, 0.5, 3.0},
                             Job{kNoJob, 1.5, 1.5, 0.5}}),
                   {.slots = 90}});
  // Horizon 10 over 20 slots: the job released at 9.6 has only slot 19.
  cases.push_back({"last-slot",
                   Instance({Job{kNoJob, 0.0, 2.0, 1.0}, Job{kNoJob, 3.0, 1.0, 2.0},
                             Job{kNoJob, 9.6, 0.25, 4.0}}),
                   {.slots = 20, .horizon = 10.0}});
  cases.push_back({"single", Instance({Job{kNoJob, 0.0, 1.0, 1.0}}), {.slots = 150}});
  // At alpha >= 3 the optimum outlasts the first trim, which grows.
  cases.push_back({"outlasts",
                   Instance({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 1.0, 2.0}}),
                   {.slots = 120, .horizon = 10.0}});
  cases.push_back({"weighted", workload::generate({.n_jobs = 6, .seed = 33}),
                   {.slots = 80, .energy_weight = 0.3}});
  for (const Case& c : cases) {
    for (double alpha : {1.01, 1.5, 2.0, 3.0, 8.0}) {
      SCOPED_TRACE(std::string(c.name) + " alpha=" + std::to_string(alpha));
      ConvexOptParams params = c.params;
      params.max_iters = 400;
      const ConvexOptResult want = reference::solve(c.instance, alpha, params);
      const ConvexOptResult got = detail::solve_fractional_opt_fista(c.instance, alpha, params);
      EXPECT_EQ(got.iterations, want.iterations);
      EXPECT_TRUE(same_bits(got.objective, want.objective))
          << got.objective << " vs " << want.objective;
      EXPECT_TRUE(same_bits(got.dual, want.dual)) << got.dual << " vs " << want.dual;
      EXPECT_TRUE(same_bits(got.energy, want.energy));
      EXPECT_TRUE(same_bits(got.fractional_flow, want.fractional_flow));
      EXPECT_TRUE(same_bits(got.horizon, want.horizon));
      ASSERT_EQ(got.slot_speed.size(), want.slot_speed.size());
      for (std::size_t i = 0; i < got.slot_speed.size(); ++i) {
        EXPECT_TRUE(same_bits(got.slot_speed[i], want.slot_speed[i])) << "slot " << i;
      }
    }
  }
}

TEST(ConvexOpt, RejectsNonPositiveSlotCount) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}});
  EXPECT_THROW((void)solve_fractional_opt(inst, 2.0, {.slots = 0}), ModelError);
  EXPECT_THROW((void)solve_fractional_opt(inst, 2.0, {.slots = -3}), ModelError);
}

TEST(ConvexOpt, RejectsBadParameters) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  // Both paths: one density (exact) and two (FISTA).
  for (const Instance& inst :
       {Instance({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.5, 2.0, 1.0}}),
        Instance({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.5, 2.0, 3.0}})}) {
    // A NaN horizon used to index a slot from ceil(NaN).
    for (double horizon : {nan, inf, -1.0}) {
      EXPECT_THROW((void)solve_fractional_opt(inst, 2.0, {.slots = 40, .horizon = horizon}),
                   ModelError)
          << horizon;
    }
    for (double weight : {nan, inf, 0.0, -1.0}) {
      EXPECT_THROW(
          (void)solve_fractional_opt(inst, 2.0, {.slots = 40, .energy_weight = weight}),
          ModelError)
          << weight;
    }
    // With an explicit horizon no Algorithm C run checks alpha first.
    for (double alpha : {nan, inf, 1.0, 0.5, -2.0}) {
      EXPECT_THROW((void)solve_fractional_opt(inst, alpha, {.slots = 40, .horizon = 10.0}),
                   ModelError)
          << alpha;
      EXPECT_THROW((void)detail::solve_fractional_opt_fista(inst, alpha,
                                                            {.slots = 40, .horizon = 10.0}),
                   ModelError)
          << alpha;
    }
    EXPECT_NO_THROW((void)solve_fractional_opt(inst, 2.0, {.slots = 40, .horizon = 0.0}));
  }
}

/// Single-density shapes for the exact path: every edge it has to handle.
struct ExactCase {
  std::string name;
  Instance instance;
  ConvexOptParams params;
};

std::vector<ExactCase> exact_cases() {
  std::vector<ExactCase> out;
  out.push_back({"gen8", workload::generate({.n_jobs = 8, .seed = 31}), {.slots = 120}});
  const Instance unit12 = workload::generate({.n_jobs = 12, .seed = 1000003});
  for (std::size_t k : {1, 4, 12}) {
    out.push_back({"unit12-p" + std::to_string(k),
                   Instance(std::vector<Job>(unit12.jobs().begin(),
                                             unit12.jobs().begin() + static_cast<long>(k))),
                   {.slots = 240}});
  }
  out.push_back({"tied",
                 Instance({Job{kNoJob, 0.0, 1.0, 2.0}, Job{kNoJob, 0.0, 2.0, 2.0},
                           Job{kNoJob, 1.5, 0.5, 2.0}, Job{kNoJob, 1.5, 0.5, 2.0},
                           Job{kNoJob, 1.5, 1.5, 2.0}}),
                 {.slots = 90}});
  // Horizon 10 over 20 slots: two releases past it share the last slot.
  out.push_back({"past-horizon",
                 Instance({Job{kNoJob, 0.0, 2.0, 1.0}, Job{kNoJob, 3.0, 1.0, 1.0},
                           Job{kNoJob, 9.6, 0.25, 1.0}, Job{kNoJob, 12.0, 0.5, 1.0},
                           Job{kNoJob, 40.0, 0.75, 1.0}}),
                 {.slots = 20, .horizon = 10.0}});
  out.push_back({"single", Instance({Job{kNoJob, 0.0, 1.0, 0.7}}), {.slots = 150}});
  out.push_back({"horizon40", unit12, {.slots = 240, .horizon = 40.0}});
  out.push_back({"weight0.25", unit12, {.slots = 240, .energy_weight = 0.25}});
  // Volumes over 18 decades, one release group each.
  std::vector<Job> spread;
  for (int k = 0; k < 10; ++k) {
    spread.push_back(Job{kNoJob, 0.7 * k, std::pow(10.0, 2 * k - 9), 1.0});
  }
  out.push_back({"volumes1e-9..1e9", Instance(spread), {.slots = 200, .horizon = 30.0}});
  // Late releases: t_i and r_j near 1e7, their differences near 1.
  std::vector<Job> late;
  for (int k = 0; k < 8; ++k) late.push_back(Job{kNoJob, 1e7 + 0.9 * k, 1.0 + 0.1 * k, 1.5});
  out.push_back({"t1e7", Instance(late), {.slots = 200, .horizon = 1e7 + 20.0}});
  return out;
}

constexpr double kExactAlphas[] = {1.01, 1.5, 2.0, 3.0, 8.0};

/// The exact optimum is never above FISTA's feasible point, and a long FISTA
/// run approaches it.  The long run is no oracle at alpha = 1.01, where
/// FISTA stalls up to 0.3% above the optimum; the dual test below covers it.
TEST(ConvexOpt, ExactSingleDensityMatchesFista) {
  for (const ExactCase& c : exact_cases()) {
    for (double alpha : kExactAlphas) {
      SCOPED_TRACE(c.name + " alpha=" + std::to_string(alpha));
      const ConvexOptResult exact = solve_fractional_opt(c.instance, alpha, c.params);
      const ConvexOptResult fista = detail::solve_fractional_opt_fista(c.instance, alpha, c.params);
      const double scale = std::abs(fista.objective);
      EXPECT_LE(exact.objective, fista.objective + 1e-12 * scale);
      EXPECT_EQ(exact.horizon, fista.horizon);
      EXPECT_EQ(exact.objective, c.params.energy_weight * exact.energy + exact.fractional_flow);
      if (alpha < 1.5) continue;
      ConvexOptParams long_params = c.params;
      long_params.max_iters = 1500;
      long_params.rel_tol = -1.0;  // never certified: all 1500 iterations
      const ConvexOptResult long_run =
          detail::solve_fractional_opt_fista(c.instance, alpha, long_params);
      EXPECT_LE(exact.objective, long_run.objective + 1e-12 * scale);
      EXPECT_NEAR(exact.objective, long_run.objective, 1e-8 * scale);
    }
  }
}

/// The Lagrangian dual of the grid program at multipliers read off the exact
/// solution's slot speeds: each job's level is the least marginal cost
/// w alpha s_i^(alpha-1) + rho t_i over its allowed slots.  Weak duality
/// makes it a lower bound for any levels; it meets the primal only at the
/// optimum.
double lagrangian_dual(const Instance& inst, double alpha, double weight,
                       const ConvexOptResult& r) {
  const int n_slots = static_cast<int>(r.slot_speed.size());
  const double h = r.horizon / n_slots;
  const double rho = inst.jobs().front().density;
  const auto t = [&](int i) { return (static_cast<double>(i) + 0.5) * h; };
  const auto first = [&](const Job& j) {
    return std::min(static_cast<int>(std::ceil(j.release / h - 1e-12)), n_slots - 1);
  };
  std::vector<double> marginal(static_cast<std::size_t>(n_slots));
  for (int i = 0; i < n_slots; ++i) {
    const double s = r.slot_speed[static_cast<std::size_t>(i)];
    marginal[static_cast<std::size_t>(i)] =
        (s > 0.0 ? weight * alpha * std::pow(s, alpha - 1.0) : 0.0) + rho * t(i);
  }
  // Level per slot: the largest level among the jobs allowed there.
  std::vector<double> top(static_cast<std::size_t>(n_slots), -std::numeric_limits<double>::infinity());
  double dual = 0.0;
  for (const Job& j : inst.jobs()) {
    const int f = first(j);
    const double level = *std::min_element(marginal.begin() + f, marginal.end());
    dual += (level - rho * j.release) * j.volume;
    for (int i = f; i < n_slots; ++i) {
      top[static_cast<std::size_t>(i)] = std::max(top[static_cast<std::size_t>(i)], level);
    }
  }
  // Each slot's min over sigma >= 0 of w h (sigma/h)^alpha + (rho t_i - top_i) sigma.
  for (int i = 0; i < n_slots; ++i) {
    const double gain = top[static_cast<std::size_t>(i)] - rho * t(i);
    if (!(gain > 0.0)) continue;
    const double s = std::pow(gain / (weight * alpha), 1.0 / (alpha - 1.0));
    dual -= h * s * gain * (alpha - 1.0) / alpha;
  }
  return dual;
}

TEST(ConvexOpt, ExactSingleDensityMeetsItsLagrangianDual) {
  for (const ExactCase& c : exact_cases()) {
    for (double alpha : kExactAlphas) {
      SCOPED_TRACE(c.name + " alpha=" + std::to_string(alpha));
      const ConvexOptResult r = solve_fractional_opt(c.instance, alpha, c.params);
      const double dual = lagrangian_dual(c.instance, alpha, c.params.energy_weight, r);
      EXPECT_NEAR(dual, r.objective, 1e-12 * std::abs(r.objective));
      // The solver's own dual, taken at its water levels.
      EXPECT_NEAR(r.dual, dual, 1e-12 * std::abs(r.objective));
    }
  }
}

/// Mixed-density shapes: the sweep's 32-job density-class point, a smaller
/// one, ties, a late job alone in the last slot, and eight jobs confined to
/// the last slot at t ~ 1e7, where the gradient is ~1e4 times the volume.
std::vector<ExactCase> mixed_cases() {
  std::vector<ExactCase> out;
  workload::WorkloadParams cp;
  cp.n_jobs = 32;
  cp.seed = 1000004;
  cp.density_mode = workload::DensityMode::kClasses;
  out.push_back({"classes32", workload::generate(cp), {.slots = 200}});
  out.push_back({"classes10",
                 workload::generate({.n_jobs = 10,
                                     .density_mode = workload::DensityMode::kClasses,
                                     .seed = 32}),
                 {.slots = 100}});
  out.push_back({"tied",
                 Instance({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 2.0, 1.0},
                           Job{kNoJob, 1.5, 0.5, 3.0}, Job{kNoJob, 1.5, 0.5, 3.0},
                           Job{kNoJob, 1.5, 1.5, 0.5}}),
                 {.slots = 90}});
  out.push_back({"last-slot",
                 Instance({Job{kNoJob, 0.0, 2.0, 1.0}, Job{kNoJob, 3.0, 1.0, 2.0},
                           Job{kNoJob, 9.6, 0.25, 4.0}}),
                 {.slots = 20, .horizon = 10.0}});
  std::vector<Job> late;
  const double density[] = {1.5, 3.0, 0.5, 2.0, 1.0, 4.0, 1.5, 0.75};
  for (int k = 0; k < 8; ++k) late.push_back(Job{kNoJob, 1e7 + 0.9 * k, 1.0 + 0.1 * k, density[k]});
  out.push_back({"t1e7", Instance(late), {.slots = 200, .horizon = 1e7 + 20.0}});
  return out;
}

std::int64_t counter(const char* name) { return obs::registry().counter(name).value(); }

/// The whole volume is scheduled: sum_i h s_i = sum_j V_j.
void expect_volume_done(const Instance& inst, const ConvexOptResult& r) {
  const double h = r.horizon / static_cast<double>(r.slot_speed.size());
  double done = 0.0;
  for (double s : r.slot_speed) done += s * h;
  EXPECT_NEAR(done, inst.total_volume(), 1e-13 * inst.total_volume());
}

/// FISTA's dual is a lower bound that certifies its result: dual <= objective
/// (to rounding) and objective - dual <= rel_tol |objective| on every mixed
/// shape, with opt.fista.uncertified left at 0.  On single-density shapes
/// it never exceeds the exact optimum, certified or not, and every solve it
/// does not certify is counted.
TEST(ConvexOpt, FistaCertifiesItsGridGap) {
  obs::registry().reset_all();
  obs::set_metrics_enabled(true);
  const double rel_tol = ConvexOptParams{}.rel_tol;
  for (const ExactCase& c : mixed_cases()) {
    for (double alpha : {1.5, 2.0, 3.0, 8.0}) {
      SCOPED_TRACE(c.name + " alpha=" + std::to_string(alpha));
      const ConvexOptResult r = solve_fractional_opt(c.instance, alpha, c.params);
      const double scale = std::abs(r.objective);
      EXPECT_LE(r.dual, r.objective + 1e-14 * scale);
      EXPECT_LE(r.objective - r.dual, rel_tol * scale);
      expect_volume_done(c.instance, r);
    }
  }
  EXPECT_EQ(counter("opt.fista.uncertified"), 0);
  int uncertified = 0;
  for (const ExactCase& c : exact_cases()) {
    for (double alpha : {1.01, 1.1, 1.5, 2.0, 3.0, 8.0}) {
      SCOPED_TRACE(c.name + " alpha=" + std::to_string(alpha));
      const ConvexOptResult exact = solve_fractional_opt(c.instance, alpha, c.params);
      const ConvexOptResult r = detail::solve_fractional_opt_fista(c.instance, alpha, c.params);
      const double scale = std::abs(exact.objective);
      EXPECT_LE(r.dual, exact.objective + 1e-13 * scale);
      EXPECT_LE(exact.objective - exact.dual, 1e-12 * scale);
      if (r.objective - r.dual > rel_tol * std::abs(r.objective)) {
        ++uncertified;
        EXPECT_EQ(r.iterations, c.params.max_iters);
      }
    }
  }
  EXPECT_EQ(counter("opt.fista.uncertified"), uncertified);
  obs::registry().reset_all();
  obs::set_metrics_enabled(false);
}

/// Near alpha = 1 FISTA cannot always close the gap before max_iters.  It
/// then still reports its dual, and counts the solve, instead of stopping
/// silently above the optimum.
TEST(ConvexOpt, FistaReportsTheGapItCannotClose) {
  obs::registry().reset_all();
  obs::set_metrics_enabled(true);
  int uncertified = 0;
  for (const ExactCase& c : mixed_cases()) {
    for (double alpha : {1.01, 1.1}) {
      SCOPED_TRACE(c.name + " alpha=" + std::to_string(alpha));
      ConvexOptParams params = c.params;
      params.max_iters = 1000;
      const ConvexOptResult r = solve_fractional_opt(c.instance, alpha, params);
      const double scale = std::abs(r.objective);
      EXPECT_LE(r.dual, r.objective + 1e-14 * scale);
      if (r.objective - r.dual > params.rel_tol * scale) {
        ++uncertified;
        EXPECT_EQ(r.iterations, params.max_iters);
      }
    }
  }
  EXPECT_GT(uncertified, 0);  // classes32 at alpha = 1.1
  EXPECT_EQ(counter("opt.fista.uncertified"), uncertified);
  obs::registry().reset_all();
  obs::set_metrics_enabled(false);
}

/// At alpha >= 3 the optimum of jobs released together outlasts 1.2x
/// Algorithm C's makespan, so FISTA's first trim is too short.  The bound
/// sees the slots past it, the trim grows, and the result matches an
/// untrimmed solve within the gaps: the exact one for one job, and the
/// test-side reference run on the whole grid for two densities.
TEST(ConvexOpt, TrimGrowsWhenOptOutlastsTheGuess) {
  obs::registry().reset_all();
  obs::set_metrics_enabled(true);
  const ConvexOptParams params{.slots = 200, .horizon = 10.0};
  const double h = params.horizon / params.slots;
  const Instance one({Job{kNoJob, 0.0, 1.0, 1.0}});
  const Instance two({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 1.0, 2.0}});
  for (double alpha : {3.0, 8.0}) {
    SCOPED_TRACE("alpha=" + std::to_string(alpha));
    for (const Instance* inst : {&one, &two}) {
      const std::int64_t grows = counter("opt.fista.grows");
      const ConvexOptResult r = detail::solve_fractional_opt_fista(*inst, alpha, params);
      EXPECT_GT(counter("opt.fista.grows"), grows);
      const int first_trim =
          static_cast<int>(std::floor(1.2 * run_algorithm_c(*inst, alpha).makespan() / h)) + 1;
      int last_busy = 0;
      for (int i = 0; i < params.slots; ++i) {
        if (r.slot_speed[static_cast<std::size_t>(i)] > 0.0) last_busy = i;
      }
      EXPECT_GE(last_busy, first_trim);
      const ConvexOptResult whole =
          inst == &one ? solve_fractional_opt(*inst, alpha, params)
                       : reference::solve(*inst, alpha,
                                          {.slots = params.slots, .horizon = params.horizon,
                                           .max_iters = 20000, .rel_tol = 1e-13},
                                          /*trim=*/false);
      const double scale = std::abs(whole.objective);
      EXPECT_LE(whole.objective - whole.dual, 1e-12 * scale);
      EXPECT_LE(r.objective - r.dual, params.rel_tol * std::abs(r.objective));
      EXPECT_NEAR(r.objective, whole.objective,
                  (r.objective - r.dual) + (whole.objective - whole.dual) + 1e-14 * scale);
    }
  }
  EXPECT_EQ(counter("opt.fista.uncertified"), 0);
  obs::registry().reset_all();
  obs::set_metrics_enabled(false);
}

/// Late releases on a fine grid: t_i and r_j near 1e7 while t_i - r_j is a
/// few units, where rho * sum t sigma - rho * sum r V would cancel about
/// seven digits.  Every job's first slot is the last one, so the optimum is
/// known: all volume there, each job's flow rho (t - r_j) V_j.
TEST(ConvexOpt, ExactFlowKeepsItsDigitsAtLargeTimes) {
  const int slots = 1'000'001;
  const double horizon = 1e7 + 10.0;
  const double h = horizon / slots;
  const double t_last = (static_cast<double>(slots - 1) + 0.5) * h;
  std::vector<Job> late;
  double volume = 0.0, flow = 0.0;
  for (int k = 0; k < 8; ++k) {
    late.push_back(Job{kNoJob, 1e7 + 0.5 * k, 1.0 + 0.1 * k, 1.5});
    volume += late.back().volume;
    flow += 1.5 * (t_last - late.back().release) * late.back().volume;
  }
  ASSERT_LT(std::abs(flow), 1e2 * volume);  // the cancelling regime
  for (double alpha : kExactAlphas) {
    SCOPED_TRACE("alpha=" + std::to_string(alpha));
    const ConvexOptResult r =
        solve_fractional_opt(Instance(late), alpha, {.slots = slots, .horizon = horizon});
    EXPECT_NEAR(r.fractional_flow, flow, 1e-13 * std::abs(flow));
    EXPECT_NEAR(r.energy, h * std::pow(volume / h, alpha), 1e-13 * r.energy);
  }
}

/// The exact schedule is feasible: non-negative speeds, no slot before the
/// first release slot, no prefix holding more than was released into it,
/// and the whole volume done.
TEST(ConvexOpt, ExactSingleDensityIsFeasible) {
  for (const ExactCase& c : exact_cases()) {
    for (double alpha : kExactAlphas) {
      SCOPED_TRACE(c.name + " alpha=" + std::to_string(alpha));
      const ConvexOptResult r = solve_fractional_opt(c.instance, alpha, c.params);
      const int n_slots = static_cast<int>(r.slot_speed.size());
      ASSERT_EQ(n_slots, c.params.slots);
      const double h = r.horizon / n_slots;
      std::vector<double> released(static_cast<std::size_t>(n_slots) + 1, 0.0);
      for (const Job& j : c.instance.jobs()) {
        const int f = std::min(static_cast<int>(std::ceil(j.release / h - 1e-12)), n_slots - 1);
        released[static_cast<std::size_t>(f) + 1] += j.volume;
      }
      double done = 0.0, avail = 0.0;
      for (int i = 0; i < n_slots; ++i) {
        const double s = r.slot_speed[static_cast<std::size_t>(i)];
        EXPECT_GE(s, 0.0);
        avail += released[static_cast<std::size_t>(i) + 1];
        done += s * h;
        EXPECT_LE(done, avail * (1.0 + 1e-12)) << "slot " << i;
      }
      EXPECT_NEAR(done, c.instance.total_volume(), 1e-12 * c.instance.total_volume());
    }
  }
}

TEST(ConvexOpt, EmptyInstance) {
  const ConvexOptResult opt = solve_fractional_opt(Instance(), 2.0);
  EXPECT_DOUBLE_EQ(opt.objective, 0.0);
}

}  // namespace
}  // namespace speedscale
