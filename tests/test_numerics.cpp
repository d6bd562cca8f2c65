// Unit tests for the numerics module (roots, ODE, projection, stats).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <vector>

#include "src/numerics/projection.h"
#include "src/numerics/roots.h"
#include "src/numerics/stats.h"
#include "src/robust/diagnostics.h"

namespace speedscale::numerics {
namespace {

TEST(Roots, BisectFindsSimpleRoot) {
  const double r = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0, 1e-12);
  EXPECT_NEAR(r, std::sqrt(2.0), 1e-10);
}

TEST(Roots, BisectThrowsTypedWhenUnbracketed) {
  try {
    (void)bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0, 1e-12);
    FAIL() << "expected RobustError";
  } catch (const robust::RobustError& e) {
    EXPECT_EQ(e.code(), robust::ErrorCode::kRootNotBracketed);
  }
}

TEST(Roots, BrentFallsBackToBisectionWhenBudgetExhausted) {
  // max_iter = 1 cannot meet the tolerance; the fallback bisection on the
  // surviving bracket still converges instead of raising kNoConvergence.
  const double r = brent([](double x) { return std::cos(x) - x; }, 0.0, 1.0, 1e-13, 1);
  EXPECT_NEAR(std::cos(r), r, 1e-10);
}

TEST(Roots, FindRootIncreasingCapsExpansion) {
  // f stays negative forever: the geometric expansion must stop at the cap
  // with a typed diagnostic, not loop to overflow.
  try {
    (void)find_root_increasing([](double) { return -1.0; }, 0.0, 1.0, 1e-12, 10);
    FAIL() << "expected RobustError";
  } catch (const robust::RobustError& e) {
    EXPECT_EQ(e.code(), robust::ErrorCode::kRootNotBracketed);
  }
}

TEST(Roots, BrentMatchesKnownRoots) {
  EXPECT_NEAR(brent([](double x) { return std::cos(x); }, 0.0, 3.0, 1e-14), M_PI / 2.0, 1e-12);
  EXPECT_NEAR(brent([](double x) { return x * x * x - 8.0; }, 0.0, 5.0, 1e-14), 2.0, 1e-12);
}

TEST(Roots, BrentHandlesEndpointRoot) {
  EXPECT_DOUBLE_EQ(brent([](double x) { return x; }, 0.0, 1.0, 1e-14), 0.0);
}

TEST(Roots, FindRootIncreasingExpandsBracket) {
  const double r =
      find_root_increasing([](double x) { return x - 100.0; }, 0.0, 1.0, 1e-12);
  EXPECT_NEAR(r, 100.0, 1e-8);
}

TEST(Projection, AlreadyFeasibleIsFixedPoint) {
  std::vector<double> x{0.25, 0.25, 0.5};
  project_simplex(x, 1.0);
  EXPECT_NEAR(x[0], 0.25, 1e-12);
  EXPECT_NEAR(x[1], 0.25, 1e-12);
  EXPECT_NEAR(x[2], 0.5, 1e-12);
}

TEST(Projection, ProjectsToCorrectSumAndNonnegativity) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x(17);
    for (double& v : x) v = u(rng);
    const double total = 3.0;
    project_simplex(x, total);
    double sum = 0.0;
    for (double v : x) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, total, 1e-9);
  }
}

TEST(Projection, ProjectionIsClosestPoint) {
  // Compare against a brute-force check: for random feasible y, the
  // projection p of x satisfies ||x-p|| <= ||x-y||.
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> x(6);
  for (double& v : x) v = u(rng);
  std::vector<double> p = x;
  project_simplex(p, 1.0);
  const auto dist2 = [&](const std::vector<double>& a, const std::vector<double>& b) {
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] - b[i]) * (a[i] - b[i]);
    return d;
  };
  std::uniform_real_distribution<double> uu(0.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> y(6);
    double s = 0.0;
    for (double& v : y) {
      v = uu(rng);
      s += v;
    }
    for (double& v : y) v /= s;  // feasible point on the simplex
    EXPECT_LE(dist2(x, p), dist2(x, y) + 1e-9);
  }
}

TEST(Projection, ZeroTotalZeroesEverything) {
  std::vector<double> x{1.0, 2.0, 3.0};
  project_simplex(x, 0.0);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

/// The sort-based projection the order-hinted one replaced: a sorted copy,
/// prefix sums in descending order, the last index that keeps a positive part.
std::vector<double> project_simplex_sorted(std::vector<double> x, double total) {
  std::vector<double> u = x;
  std::sort(u.begin(), u.end(), std::greater<>());
  double cssv = 0.0;
  double tau = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    cssv += u[i];
    const double t = (cssv - total) / static_cast<double>(i + 1);
    if (u[i] - t > 0.0) tau = t;
  }
  for (double& xi : x) xi = std::max(xi - tau, 0.0);
  return x;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Projection, OrderHintMatchesSortedBitForBit) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-300, 300);
  std::vector<std::vector<double>> rows = {
      {0.5, 0.5, 0.5, 0.5},                     // all tied
      {1.0, 0.0, -0.0, 0.0, -0.0, 1.0, 2.0},    // +-0 ties between values
      {-0.0, 0.0, -0.0},                        // zeros only
      {-3.0, -1.0, -2.0, -1.0},                 // all negative
      {1e-300, 1e300, -1e300, 1e-300, 0.0, 1.0},
      {7.0},                                    // single slot
  };
  for (int r = 0; r < 40; ++r) {
    std::vector<double> row(1 + static_cast<std::size_t>(r) * 7);
    for (double& v : row) v = unit(rng) * std::pow(10.0, exponent(rng) / (r % 3 == 0 ? 1 : 100));
    if (r % 4 == 1) {  // plant ties
      for (std::size_t i = 1; i < row.size(); i += 3) row[i] = row[i - 1];
    }
    rows.push_back(row);
  }
  int checked = 0;
  for (const std::vector<double>& row : rows) {
    for (double total : {1.0, 1e-300, 1e300, 3.5}) {
      const std::vector<double> want = project_simplex_sorted(row, total);
      const std::size_t n = row.size();
      std::vector<std::uint32_t> identity(n), reversed(n), shuffled(n), sorted(n);
      std::iota(identity.begin(), identity.end(), 0U);
      std::iota(reversed.rbegin(), reversed.rend(), 0U);
      shuffled = identity;
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      sorted = identity;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [&](std::uint32_t a, std::uint32_t b) { return row[a] > row[b]; });
      for (const std::vector<std::uint32_t>& hint : {identity, reversed, shuffled, sorted}) {
        std::vector<double> got = row;
        std::vector<std::uint32_t> order = hint;
        project_simplex(got, total, order);
        EXPECT_TRUE(same_bits(got, want)) << "n=" << n << " total=" << total;
        // On exit the order is a descending order of the input.
        for (std::size_t i = 1; i < n; ++i) EXPECT_GE(row[order[i - 1]], row[order[i]]);
        ++checked;
      }
      std::vector<double> plain = row;
      project_simplex(plain, total);
      EXPECT_TRUE(same_bits(plain, want));
    }
  }
  EXPECT_EQ(checked, static_cast<int>(rows.size()) * 4 * 4);
}

TEST(Projection, OrderHintMustMatchTheSpan) {
  std::vector<double> x{1.0, 2.0};
  std::vector<std::uint32_t> order{0};
  EXPECT_THROW(project_simplex(x, 1.0, order), std::invalid_argument);
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, LogLogSlopeRecoversExponent) {
  std::vector<double> x, y;
  for (double k = 2.0; k <= 64.0; k *= 2.0) {
    x.push_back(k);
    y.push_back(3.0 * std::pow(k, 0.75));
  }
  EXPECT_NEAR(fit_log_log_slope(x, y), 0.75, 1e-10);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> d{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(d, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(d, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(d, 0.5), 2.5);
}

TEST(Stats, ErrorsOnDegenerateInput) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(fit_log_log_slope({1.0}, {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace speedscale::numerics
