// Tests for the offline-optimum module: closed-form single-job optimum and
// the discretized convex solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <vector>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/bounds.h"
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

  void project(std::vector<double>& x) const {
    for (const Job& j : instance.jobs()) {
      const int f = first_slot[static_cast<std::size_t>(j.id)];
      std::span<double> row(x.data() + idx(j.id, f), static_cast<std::size_t>(n_slots - f));
      project_simplex(row, j.volume);
      for (int i = 0; i < f; ++i) x[idx(j.id, i)] = 0.0;
    }
  }
};

ConvexOptResult solve(const Instance& instance, double alpha, const ConvexOptParams& params) {
  double horizon = params.horizon;
  if (horizon <= 0.0) {
    const Schedule c = run_algorithm_c(instance, alpha);
    horizon = 3.0 * std::max(c.makespan(), 1e-12);
  }
  const int N = params.slots;
  Problem prob{instance, alpha, N, horizon / N, params.energy_weight, {}, {}};
  prob.first_slot.resize(instance.size());
  prob.mid.resize(static_cast<std::size_t>(N));
  for (int i = 0; i < N; ++i) {
    prob.mid[static_cast<std::size_t>(i)] = (static_cast<double>(i) + 0.5) * prob.h;
  }
  for (const Job& j : instance.jobs()) {
    int f = static_cast<int>(std::ceil(j.release / prob.h - 1e-12));
    f = std::min(f, N - 1);
    prob.first_slot[static_cast<std::size_t>(j.id)] = f;
  }
  const std::size_t dim = instance.size() * static_cast<std::size_t>(N);
  std::vector<double> x(dim, 0.0);
  for (const Job& j : instance.jobs()) {
    const int f = prob.first_slot[static_cast<std::size_t>(j.id)];
    const double per = j.volume / static_cast<double>(N - f);
    for (int i = f; i < N; ++i) x[prob.idx(j.id, i)] = per;
  }
  std::vector<double> x_prev = x;
  std::vector<double> y = x;
  std::vector<double> g(dim), cand(dim);
  double tk = 1.0;
  double lipschitz = 1.0;
  double best_obj = prob.objective(x);
  int stall = 0;
  int iter = 0;
  for (; iter < params.max_iters; ++iter) {
    prob.gradient(y, g);
    const double fy = prob.objective(y);
    double fx_new = 0.0;
    for (int bt = 0; bt < 60; ++bt) {
      for (std::size_t d = 0; d < dim; ++d) cand[d] = y[d] - g[d] / lipschitz;
      prob.project(cand);
      fx_new = prob.objective(cand);
      double lin = 0.0, quad = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff = cand[d] - y[d];
        lin += g[d] * diff;
        quad += diff * diff;
      }
      if (fx_new <= fy + lin + 0.5 * lipschitz * quad + 1e-14 * std::abs(fy)) break;
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
    const double improvement = (best_obj - fx_new) / std::max(1.0, std::abs(best_obj));
    if (fx_new < best_obj) best_obj = fx_new;
    if (improvement < params.rel_tol) {
      if (++stall > 50) break;
    } else {
      stall = 0;
    }
    lipschitz *= 0.9;
  }
  ConvexOptResult out;
  out.iterations = iter;
  out.horizon = horizon;
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
  cases.push_back({"weighted", workload::generate({.n_jobs = 6, .seed = 33}),
                   {.slots = 80, .energy_weight = 0.3}});
  for (const Case& c : cases) {
    for (double alpha : {1.01, 1.5, 2.0, 3.0, 8.0}) {
      SCOPED_TRACE(std::string(c.name) + " alpha=" + std::to_string(alpha));
      ConvexOptParams params = c.params;
      params.max_iters = 400;
      const ConvexOptResult want = reference::solve(c.instance, alpha, params);
      const ConvexOptResult got = detail::solve_fractional_opt_uncached(c.instance, alpha, params);
      EXPECT_EQ(got.iterations, want.iterations);
      EXPECT_TRUE(same_bits(got.objective, want.objective))
          << got.objective << " vs " << want.objective;
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

TEST(ConvexOpt, EmptyInstance) {
  const ConvexOptResult opt = solve_fractional_opt(Instance(), 2.0);
  EXPECT_DOUBLE_EQ(opt.objective, 0.0);
}

}  // namespace
}  // namespace speedscale
