// Custom-policy engine: run any user-defined non-clairvoyant speed policy.
//
// The paper frames the online problem as a game in which, at every moment,
// the algorithm sees only *observable* information: the releases and
// densities of arrived jobs, how much of each it has processed, and which
// have completed.  This engine makes that interface a public extension
// point: implement a speed rule over ObservableState and the engine runs it
// with adaptive discrete stepping (midpoint rule), enforcing
// non-clairvoyance by construction — volumes are simply absent from the
// state the policy sees.
//
// It is the library's one stepping engine for speed rules without a closed
// form: non-uniform Algorithm NC (algorithm_nc_nonuniform.h) runs on it as a
// policy over the same state, and so can new speed rules, learned policies
// and hybrid heuristics.  It is cross-validated against the exact simulators
// in the tests.
#pragma once

#include <functional>
#include <vector>

#include "src/algo/run_result.h"
#include "src/core/instance.h"

namespace speedscale {

/// Everything a non-clairvoyant algorithm may observe at an instant.
struct ObservableState {
  double time = 0.0;
  /// Jobs released so far, in release order.  Volumes are NOT exposed.
  struct VisibleJob {
    JobId id = kNoJob;
    double release = 0.0;
    double density = 1.0;
    double processed = 0.0;  ///< volume processed so far (known: it did the work)
    bool completed = false;  ///< completion reveals the volume == processed
  };
  std::vector<VisibleJob> jobs;

  /// Number of released, uncompleted jobs.
  [[nodiscard]] std::size_t active_count() const {
    std::size_t n = 0;
    for (const auto& j : jobs) {
      if (!j.completed) ++n;
    }
    return n;
  }
};

/// A policy decides which active job to run and at what speed.  Returning
/// job == kNoJob or speed <= 0 idles (the engine then jumps to the next
/// release).  The state outlives the call; policies may keep references.
struct PolicyDecision {
  JobId job = kNoJob;
  double speed = 0.0;
};
using SpeedPolicy = std::function<PolicyDecision(const ObservableState&)>;

struct CustomPolicyParams {
  double step_growth = 0.05;   ///< dt grows by this fraction of time-since-event
  double min_step = 1e-6;      ///< relative to the instance's natural time scale
  long max_steps = 20'000'000; ///< cap on integrator steps (one segment each)
};

/// Runs `policy` on `instance` with P(s) = s^alpha.  The recorded schedule
/// is piecewise constant in speed; metrics are exact for the recording.
/// `online` accumulates the same objective step by step.  Throws ModelError
/// at once for a non-positive or non-finite `min_step` or `step_growth` or a
/// `max_steps` below 1, and during the run if the policy picks an
/// unreleased/completed job, returns a non-finite speed, idles forever while
/// work remains or exceeds `max_steps`.
[[nodiscard]] RunResult run_custom_policy(const Instance& instance, double alpha,
                                          const SpeedPolicy& policy,
                                          const CustomPolicyParams& params = {});

namespace detail {

/// How a caller drives the stepping engine beyond CustomPolicyParams.
struct PolicyEngineSetup {
  double step_growth = 0.05;
  double min_dt = 0.0;  ///< smallest step after an event, in time units
  long max_steps = 0;
  const char* label = nullptr;  ///< trace-event label: a string literal or none
  /// Called at each release or completion, with st.time the event's time.
  std::function<void(const ObservableState&)> on_event;
};

/// Throws ModelError unless step_growth and min_step are finite and
/// positive and max_steps is at least 1.  run_custom_policy and
/// run_nc_nonuniform call it before anything else.
void check_step_params(double step_growth, double min_step, long max_steps);

/// The stepping engine behind run_custom_policy and run_nc_nonuniform, on a
/// non-empty instance.  Segments carry the density of `ordered`'s job (the
/// instance the policy orders by; same jobs, volumes and releases as
/// `instance`).  Fills out.schedule, out.metrics and out.online and returns
/// the integrator steps taken.
long run_policy_engine(const Instance& instance, const Instance& ordered, double alpha,
                       const SpeedPolicy& policy, const PolicyEngineSetup& setup,
                       RunResult& out);

}  // namespace detail

}  // namespace speedscale
