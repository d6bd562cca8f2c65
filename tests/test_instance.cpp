// Unit tests for Instance (core/instance.h) and the trace I/O round trip.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "src/core/instance.h"
#include "src/workload/trace_io.h"

namespace speedscale {
namespace {

Instance small() {
  return Instance({
      Job{kNoJob, 0.0, 2.0, 1.0},
      Job{kNoJob, 1.0, 0.5, 4.0},
      Job{kNoJob, 0.5, 1.0, 2.0},
  });
}

TEST(Instance, AssignsContiguousIds) {
  const Instance inst = small();
  ASSERT_EQ(inst.size(), 3u);
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_EQ(inst.jobs()[i].id, static_cast<JobId>(i));
  }
}

TEST(Instance, Aggregates) {
  const Instance inst = small();
  EXPECT_DOUBLE_EQ(inst.total_volume(), 3.5);
  EXPECT_DOUBLE_EQ(inst.total_weight(), 2.0 + 2.0 + 2.0);
  EXPECT_DOUBLE_EQ(inst.max_release(), 1.0);
  EXPECT_DOUBLE_EQ(inst.min_density(), 1.0);
  EXPECT_DOUBLE_EQ(inst.max_density(), 4.0);
}

TEST(Instance, ValidationRejectsBadJobs) {
  EXPECT_THROW(Instance({Job{kNoJob, -1.0, 1.0, 1.0}}), ModelError);
  EXPECT_THROW(Instance({Job{kNoJob, 0.0, 0.0, 1.0}}), ModelError);
  EXPECT_THROW(Instance({Job{kNoJob, 0.0, 1.0, -2.0}}), ModelError);
  EXPECT_THROW(Instance({Job{kNoJob, 0.0, 1.0, 0.0}}), ModelError);
}

TEST(Instance, UniformDensityDetection) {
  EXPECT_FALSE(small().uniform_density());
  const Instance u({Job{kNoJob, 0.0, 1.0, 2.0}, Job{kNoJob, 1.0, 3.0, 2.0}});
  EXPECT_TRUE(u.uniform_density());
  EXPECT_TRUE(Instance().uniform_density());
}

TEST(Instance, FifoOrderSortsByReleaseThenId) {
  const Instance inst = small();
  const auto order = inst.fifo_order();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 1);
}

TEST(Instance, FifoOrderStableOnTies) {
  const Instance inst({Job{kNoJob, 1.0, 1.0, 1.0}, Job{kNoJob, 1.0, 2.0, 1.0},
                       Job{kNoJob, 0.0, 1.0, 1.0}});
  const auto order = inst.fifo_order();
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(order[2], 1);
}

TEST(Instance, RoundedDensitiesArePowersOfBeta) {
  const double beta = 4.5;
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.0, 1.0, 7.3},
                       Job{kNoJob, 0.0, 1.0, 0.02}, Job{kNoJob, 0.0, 1.0, 4.5}});
  const Instance rounded = inst.rounded_densities(beta);
  for (std::size_t i = 0; i < inst.size(); ++i) {
    const double d = rounded.jobs()[i].density;
    const double orig = inst.jobs()[i].density;
    // Rounded down: d <= orig < d * beta.
    EXPECT_LE(d, orig * (1.0 + 1e-9));
    EXPECT_GT(d * beta, orig * (1.0 - 1e-9));
    // Is an integer power of beta.
    const double k = std::log(d) / std::log(beta);
    EXPECT_NEAR(k, std::round(k), 1e-9);
  }
  // Exact powers map to themselves.
  EXPECT_NEAR(rounded.jobs()[3].density, 4.5, 1e-12);
}

TEST(Instance, RoundedDensitiesRejectsBadBeta) {
  EXPECT_THROW(small().rounded_densities(1.0), ModelError);
}

TEST(Instance, ReleasedBefore) {
  const Instance inst = small();
  std::vector<JobId> orig;
  const Instance sub = inst.released_before(1.0, &orig);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(orig[0], 0);
  EXPECT_EQ(orig[1], 2);
  // Strict: jobs released exactly at t are excluded.
  EXPECT_EQ(inst.released_before(0.0).size(), 0u);
}

TEST(TraceIo, RoundTrip) {
  const Instance inst = small();
  std::stringstream ss;
  workload::write_trace(ss, inst);
  const Instance back = workload::read_trace(ss);
  ASSERT_EQ(back.size(), inst.size());
  for (std::size_t i = 0; i < inst.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.jobs()[i].release, inst.jobs()[i].release);
    EXPECT_DOUBLE_EQ(back.jobs()[i].volume, inst.jobs()[i].volume);
    EXPECT_DOUBLE_EQ(back.jobs()[i].density, inst.jobs()[i].density);
  }
}

// The writer's exact bytes: one header, then id,release,volume,density at 17
// significant digits, so every double round-trips.
TEST(TraceIo, WriteTraceBytesArePinned) {
  const Instance inst({
      Job{kNoJob, 0.0, 0.1, 1.0},
      Job{kNoJob, 0.1, 1.0 / 3.0, 1e-300},
      Job{kNoJob, 1.0 / 3.0, 2.0, 1e300},
  });
  std::ostringstream os;
  workload::write_trace(os, inst);
  EXPECT_EQ(os.str(),
            "id,release,volume,density\n"
            "0,0,0.10000000000000001,1\n"
            "1,0.10000000000000001,0.33333333333333331,1e-300\n"
            "2,0.33333333333333331,2,1.0000000000000001e+300\n");
}

TEST(TraceIo, RejectsMalformedInput) {
  std::stringstream empty;
  EXPECT_THROW(workload::read_trace(empty), ModelError);
  std::stringstream no_header("0,1,2,3\n");
  EXPECT_THROW(workload::read_trace(no_header), ModelError);
  std::stringstream bad_field("id,release,volume,density\n0,zero,1,1\n");
  EXPECT_THROW(workload::read_trace(bad_field), ModelError);
}

}  // namespace
}  // namespace speedscale
