#include "src/algo/dispatch.h"

#include <algorithm>

#include "src/algo/parallel.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/sim/c_machine.h"

namespace speedscale {

std::vector<MachineId> dispatch_identical(DispatchPolicy policy, int k, int n) {
  if (policy == DispatchPolicy::kNcPar) {
    throw ModelError("dispatch_identical: NC-PAR is not an immediate dispatch rule");
  }
  static const char* const kPolicyLabels[] = {"dispatch.round_robin", "dispatch.least_count",
                                              "dispatch.first_fit"};
  const char* const label = kPolicyLabels[static_cast<std::size_t>(policy)];
  std::vector<MachineId> out(static_cast<std::size_t>(n), kNoMachine);
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  for (int i = 0; i < n; ++i) {
    int target = 0;
    switch (policy) {
      case DispatchPolicy::kRoundRobin:
        target = i % k;
        break;
      case DispatchPolicy::kLeastCount: {
        target = static_cast<int>(std::min_element(count.begin(), count.end()) - count.begin());
        break;
      }
      case DispatchPolicy::kFirstFit: {
        // Fill machines to ceil(n/k) in index order.
        const int cap = (n + k - 1) / k;
        target = 0;
        while (target < k - 1 && count[static_cast<std::size_t>(target)] >= cap) ++target;
        break;
      }
      case DispatchPolicy::kNcPar: break;  // rejected above
    }
    out[static_cast<std::size_t>(i)] = target;
    ++count[static_cast<std::size_t>(target)];
    OBS_COUNT("algo.dispatch.decisions", 1);
    TRACE_EVENT(.kind = obs::EventKind::kDispatch, .t = 0.0, .job = static_cast<JobId>(i),
                .machine = target, .value = static_cast<double>(count[static_cast<std::size_t>(target)]),
                .label = label);
  }
  return out;
}

Metrics run_assignment_with_c(const Instance& instance, double alpha, int k,
                              const std::vector<MachineId>& assignment) {
  std::vector<CMachine> machines;
  machines.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    machines.emplace_back(alpha);
    machines.back().set_obs_machine(i);
  }
  for (JobId jid : instance.fifo_order()) {
    const MachineId m = assignment[static_cast<std::size_t>(jid)];
    machines[static_cast<std::size_t>(m)].advance_to(instance.job(jid).release);
    machines[static_cast<std::size_t>(m)].add_job(instance.job(jid));
  }
  std::vector<Schedule> schedules;
  for (auto& m : machines) {
    m.run_to_completion();
    schedules.push_back(m.schedule());
  }
  return parallel_metrics(instance, schedules, assignment, alpha);
}

AdversaryOutcome run_sec6_adversary(int k, double alpha, DispatchPolicy policy, double vol_hi,
                                    double vol_lo) {
  const int n = k * k;
  const std::vector<MachineId> assignment = dispatch_identical(policy, k, n);

  // Pigeonhole: some machine has >= k jobs.  Target it.
  std::vector<int> count(static_cast<std::size_t>(k), 0);
  for (MachineId m : assignment) ++count[static_cast<std::size_t>(m)];
  const int loaded = static_cast<int>(std::max_element(count.begin(), count.end()) - count.begin());

  // The adversary reveals volumes: the first k jobs dispatched to the loaded
  // machine become heavy; every other job is negligible.
  std::vector<Job> jobs(static_cast<std::size_t>(n));
  int heavies = 0;
  for (int i = 0; i < n; ++i) {
    jobs[static_cast<std::size_t>(i)] =
        Job{static_cast<JobId>(i), 0.0, vol_lo, 1.0};
    if (assignment[static_cast<std::size_t>(i)] == loaded && heavies < k) {
      jobs[static_cast<std::size_t>(i)].volume = vol_hi;
      ++heavies;
    }
  }
  const Instance instance{std::move(jobs)};

  AdversaryOutcome out;
  out.loaded_machine = loaded;
  out.loaded_count = count[static_cast<std::size_t>(loaded)];
  out.algo_cost = run_assignment_with_c(instance, alpha, k, assignment).fractional_objective();

  // The clairvoyant optimum-style spread: one heavy job per machine, light
  // jobs round-robin behind them.
  std::vector<MachineId> spread(static_cast<std::size_t>(n), kNoMachine);
  int next_heavy_machine = 0;
  int next_light_machine = 0;
  for (int i = 0; i < n; ++i) {
    if (instance.job(i).volume == vol_hi) {
      spread[static_cast<std::size_t>(i)] = next_heavy_machine++ % k;
    } else {
      spread[static_cast<std::size_t>(i)] = next_light_machine++ % k;
    }
  }
  out.opt_cost = run_assignment_with_c(instance, alpha, k, spread).fractional_objective();
  out.ratio = out.algo_cost / out.opt_cost;
  return out;
}

}  // namespace speedscale
