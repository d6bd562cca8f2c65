// Tests for immediate dispatch and the Section 6 lower-bound adversary.
#include <gtest/gtest.h>

#include <cmath>

#include "src/algo/bounds.h"
#include "src/algo/dispatch.h"
#include "src/numerics/stats.h"

namespace speedscale {
namespace {

TEST(Dispatch, RoundRobinBalancesExactly) {
  const auto a = dispatch_identical(DispatchPolicy::kRoundRobin, 4, 16);
  std::vector<int> count(4, 0);
  for (MachineId m : a) ++count[static_cast<std::size_t>(m)];
  for (int c : count) EXPECT_EQ(c, 4);
}

TEST(Dispatch, LeastCountBalances) {
  const auto a = dispatch_identical(DispatchPolicy::kLeastCount, 3, 10);
  std::vector<int> count(3, 0);
  for (MachineId m : a) ++count[static_cast<std::size_t>(m)];
  EXPECT_EQ(*std::max_element(count.begin(), count.end()) -
                *std::min_element(count.begin(), count.end()),
            1);
}

TEST(Dispatch, FirstFitFillsInOrder) {
  const auto a = dispatch_identical(DispatchPolicy::kFirstFit, 2, 4);
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], 0);
  EXPECT_EQ(a[2], 1);
  EXPECT_EQ(a[3], 1);
}

TEST(Dispatch, NcParIsNotAnImmediateRule) {
  EXPECT_THROW((void)dispatch_identical(DispatchPolicy::kNcPar, 2, 4), ModelError);
}

class AdversaryPolicy : public ::testing::TestWithParam<DispatchPolicy> {};

TEST_P(AdversaryPolicy, PigeonholeLoadsAtLeastKJobs) {
  const AdversaryOutcome out = run_sec6_adversary(5, 2.0, GetParam());
  EXPECT_GE(out.loaded_count, 5);
  EXPECT_GE(out.loaded_machine, 0);
}

TEST_P(AdversaryPolicy, RatioIsAtLeastKToTheBeta) {
  // k heavy jobs stacked on one machine vs one each: the exact closed form
  // gives a ratio of k^{1-1/alpha} (batch of m unit jobs under C costs
  // m^{2-1/alpha} times a single job's cost... per-machine cost scales as
  // W^{1+b}).  The tiny light jobs only perturb this.
  for (const double alpha : {1.5, 2.0, 3.0}) {
    for (const int k : {2, 4, 8}) {
      const AdversaryOutcome out = run_sec6_adversary(k, alpha, GetParam());
      const double expect = std::pow(static_cast<double>(k), 1.0 - 1.0 / alpha);
      EXPECT_GT(out.ratio, 0.9 * expect) << "k=" << k << " alpha=" << alpha;
      EXPECT_LT(out.ratio, 1.1 * expect) << "k=" << k << " alpha=" << alpha;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, AdversaryPolicy,
                         ::testing::Values(DispatchPolicy::kRoundRobin,
                                           DispatchPolicy::kLeastCount,
                                           DispatchPolicy::kFirstFit));

TEST(Adversary, GrowthExponentMatchesTheory) {
  const double alpha = 2.0;
  std::vector<double> ks, ratios;
  for (int k = 2; k <= 16; k *= 2) {
    ks.push_back(k);
    ratios.push_back(run_sec6_adversary(k, alpha, DispatchPolicy::kRoundRobin).ratio);
  }
  const double slope = numerics::fit_log_log_slope(ks, ratios);
  EXPECT_NEAR(slope, bounds::lower_bound_exponent(alpha), 0.08);
}

TEST(Adversary, AlgorithmNeverBeatsSpread) {
  const AdversaryOutcome out = run_sec6_adversary(3, 2.5, DispatchPolicy::kLeastCount);
  EXPECT_GE(out.algo_cost, out.opt_cost);
  EXPECT_GT(out.opt_cost, 0.0);
}

}  // namespace
}  // namespace speedscale
