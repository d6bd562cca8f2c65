// Unit tests for Schedule recording and replay (core/schedule.h).
#include <gtest/gtest.h>

#include "src/core/schedule.h"

namespace speedscale {
namespace {

TEST(Schedule, AppendEnforcesTimeOrder) {
  Schedule s(2.0);
  s.append({0.0, 1.0, 0, SpeedLaw::kConstant, 1.0, 1.0});
  EXPECT_THROW(s.append({0.5, 2.0, 1, SpeedLaw::kConstant, 1.0, 1.0}), ModelError);
  EXPECT_THROW(s.append({3.0, 2.0, 1, SpeedLaw::kConstant, 1.0, 1.0}), ModelError);
  // Gaps are fine (implicit idle).
  s.append({2.0, 3.0, 1, SpeedLaw::kConstant, 2.0, 1.0});
  EXPECT_EQ(s.segments().size(), 2u);
  EXPECT_DOUBLE_EQ(s.makespan(), 3.0);
}

TEST(Schedule, DropsEmptySegments) {
  Schedule s(2.0);
  s.append({1.0, 1.0, 0, SpeedLaw::kConstant, 1.0, 1.0});
  EXPECT_TRUE(s.segments().empty());
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
}

TEST(Schedule, SpeedAtConstantAndIdle) {
  Schedule s(2.0);
  s.append({0.0, 1.0, 0, SpeedLaw::kConstant, 3.0, 1.0});
  s.append({2.0, 3.0, 1, SpeedLaw::kConstant, 5.0, 1.0});
  EXPECT_DOUBLE_EQ(s.speed_at(0.5), 3.0);
  EXPECT_DOUBLE_EQ(s.speed_at(1.5), 0.0);  // gap
  EXPECT_DOUBLE_EQ(s.speed_at(2.5), 5.0);
  EXPECT_DOUBLE_EQ(s.speed_at(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(s.speed_at(10.0), 0.0);
}

TEST(Schedule, PowerDecaySpeedEvolution) {
  const double alpha = 2.0;
  Schedule s(alpha);
  const double w0 = 4.0;
  s.append({0.0, 1.0, 0, SpeedLaw::kPowerDecay, w0, 1.0});
  // At t=0 the speed is w0^{1/alpha} = 2.
  EXPECT_NEAR(s.speed_at(0.0), 2.0, 1e-12);
  // Speed decreases over the segment.
  EXPECT_LT(s.speed_at(0.9), s.speed_at(0.1));
}

TEST(Schedule, PowerGrowSpeedEvolution) {
  Schedule s(2.0);
  s.append({0.0, 2.0, 0, SpeedLaw::kPowerGrow, 0.0, 1.0});
  EXPECT_NEAR(s.speed_at(0.0), 0.0, 1e-12);
  EXPECT_GT(s.speed_at(1.9), s.speed_at(0.1));
}

TEST(Schedule, SegmentVolumeConsistency) {
  const PowerLawKinematics kin(2.5);
  Schedule s(2.5);
  const Segment seg{0.0, 1.5, 0, SpeedLaw::kPowerDecay, 6.0, 2.0};
  s.append(seg);
  // Whole-segment volume equals sum of halves.
  const double whole = s.segment_volume(seg, 0.0, 1.5);
  const double a = s.segment_volume(seg, 0.0, 0.7);
  const double b = s.segment_volume(seg, 0.7, 1.5);
  EXPECT_NEAR(whole, a + b, 1e-12);
  // And equals the kinematics bookkeeping.
  const double w1 = kin.decay_weight_after(6.0, 2.0, 1.5);
  EXPECT_NEAR(whole, (6.0 - w1) / 2.0, 1e-12);
}

TEST(Schedule, ProcessedVolumesAccumulateAcrossSegments) {
  Schedule s(2.0);
  s.append({0.0, 1.0, 0, SpeedLaw::kConstant, 2.0, 1.0});
  s.append({1.0, 2.0, 1, SpeedLaw::kConstant, 1.0, 1.0});
  s.append({2.0, 3.0, 0, SpeedLaw::kConstant, 0.5, 1.0});
  const auto v = s.processed_volumes(2);
  EXPECT_DOUBLE_EQ(v[0], 2.5);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
}

TEST(Schedule, CompletionAccessors) {
  Schedule s(2.0);
  s.set_completion(3, 7.5);
  EXPECT_TRUE(s.completed(3));
  EXPECT_FALSE(s.completed(4));
  EXPECT_DOUBLE_EQ(s.completion(3), 7.5);
  EXPECT_THROW((void)s.completion(4), ModelError);
}

// Completions are dense from the smallest id seen: a window of a long stream
// (ids near 1e7) round-trips without a slot per stream id, in any order.
TEST(Schedule, CompletionsAtLargeIdsRoundTrip) {
  constexpr JobId kBase = 10'000'000;
  Schedule s(2.0);
  for (JobId id = kBase + 50; id >= kBase; id -= 5) s.set_completion(id, 0.25 * (id - kBase));
  for (JobId id = kBase + 51; id <= kBase + 101; id += 5) s.set_completion(id, 0.25 * (id - kBase));
  EXPECT_EQ(s.completed_count(), 22u);
  for (JobId id = kBase; id <= kBase + 101; ++id) {
    const bool set = (id - kBase <= 50 && (id - kBase) % 5 == 0) ||
                     (id - kBase >= 51 && (id - kBase - 51) % 5 == 0);
    EXPECT_EQ(s.completed(id), set) << id;
    if (set) {
      EXPECT_EQ(s.completion(id), 0.25 * (id - kBase));
    } else {
      EXPECT_THROW((void)s.completion(id), ModelError) << id;
    }
  }
  // Unknown ids below, above and far from the window still throw.
  for (const JobId id : {0, kBase - 1, kBase - 1000, kBase + 5000, kNoJob}) {
    EXPECT_FALSE(s.completed(id));
    EXPECT_THROW((void)s.completion(id), ModelError) << id;
  }
  // A later completion of the same job overwrites without recounting.
  s.set_completion(kBase, 9.0);
  EXPECT_EQ(s.completed_count(), 22u);
  EXPECT_EQ(s.completion(kBase), 9.0);
  EXPECT_EQ(Schedule(2.0).completed_count(), 0u);
}

TEST(Schedule, ValidateCatchesViolations) {
  const Instance inst({Job{kNoJob, 1.0, 2.0, 1.0}});
  {
    // Processing before release.
    Schedule s(2.0);
    s.append({0.0, 1.0, 0, SpeedLaw::kConstant, 1.0, 1.0});
    EXPECT_THROW(s.validate(inst), ModelError);
  }
  {
    // Completed job with wrong processed volume.
    Schedule s(2.0);
    s.append({1.0, 2.0, 0, SpeedLaw::kConstant, 1.0, 1.0});
    s.set_completion(0, 2.0);
    EXPECT_THROW(s.validate(inst), ModelError);
  }
  {
    // Correct schedule passes.
    Schedule s(2.0);
    s.append({1.0, 3.0, 0, SpeedLaw::kConstant, 1.0, 1.0});
    s.set_completion(0, 3.0);
    EXPECT_NO_THROW(s.validate(inst));
  }
  {
    // Over-processing an incomplete job.
    Schedule s(2.0);
    s.append({1.0, 5.0, 0, SpeedLaw::kConstant, 1.0, 1.0});
    EXPECT_THROW(s.validate(inst), ModelError);
  }
}

}  // namespace
}  // namespace speedscale
