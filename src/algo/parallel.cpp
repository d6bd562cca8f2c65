#include "src/algo/parallel.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "src/core/kinematics.h"
#include "src/core/power.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/sim/c_machine.h"

namespace speedscale {

Metrics parallel_metrics(const Instance& instance, const std::vector<Schedule>& schedules,
                         const std::vector<MachineId>& assignment, double alpha) {
  if (assignment.size() < instance.size()) {
    throw ModelError("parallel_metrics: assignment does not cover every job");
  }
  const PowerLaw power(alpha);
  const std::vector<JobId> fifo = instance.fifo_order();
  const auto assigned_end = assignment.begin() + static_cast<std::ptrdiff_t>(instance.size());
  Metrics total;
  for (std::size_t mi = 0; mi < schedules.size(); ++mi) {
    const auto machine = static_cast<MachineId>(mi);
    if (std::find(assignment.begin(), assigned_end, machine) == assigned_end) continue;
    total = combine(total, compute_machine_metrics(instance, fifo, assignment, machine,
                                                   schedules[mi], power));
  }
  return total;
}

ParallelRun run_c_par(const Instance& instance, double alpha, int k) {
  if (k < 1) throw ModelError("run_c_par: need at least one machine");
  ParallelRun out;
  out.assignment.assign(instance.size(), kNoMachine);
  out.start_times.assign(instance.size(), 0.0);

  std::vector<CMachine> machines;
  machines.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    machines.emplace_back(alpha);
    machines.back().set_obs_machine(i);  // real machines: events carry ids
  }

  // Immediate dispatch in release order (ids break release ties).
  std::vector<JobId> order = instance.fifo_order();
  for (JobId jid : order) {
    const Job& job = instance.job(jid);
    int best = 0;
    double best_w = 0.0;
    for (int i = 0; i < k; ++i) {
      machines[static_cast<std::size_t>(i)].advance_to(job.release);
      const double w = machines[static_cast<std::size_t>(i)].remaining_weight();
      // Exact comparison: drained machines hold exactly 0, so ties among
      // idle machines break toward the lower index, as NC-PAR's do.
      if (i == 0 || w < best_w) {
        best_w = w;
        best = i;
      }
    }
    OBS_COUNT("algo.c_par.dispatches", 1);
    TRACE_EVENT(.kind = obs::EventKind::kDispatch, .t = job.release, .job = jid,
                .machine = best, .value = best_w, .label = "c_par.least_weight");
    machines[static_cast<std::size_t>(best)].add_job(job);
    out.assignment[static_cast<std::size_t>(jid)] = best;
  }
  for (auto& m : machines) m.run_to_completion();
  for (auto& m : machines) out.schedules.push_back(std::move(m).take_schedule());

  // Start times: first segment of each job.
  std::vector<bool> seen(instance.size(), false);
  for (const Schedule& s : out.schedules) {
    for (const Segment& seg : s.segments()) {
      if (seg.job != kNoJob && !seen[static_cast<std::size_t>(seg.job)]) {
        seen[static_cast<std::size_t>(seg.job)] = true;
        out.start_times[static_cast<std::size_t>(seg.job)] = seg.t0;
      }
    }
  }
  out.metrics = parallel_metrics(instance, out.schedules, out.assignment, alpha);
  return out;
}

ParallelRun run_nc_par(const Instance& instance, double alpha, int k) {
  if (k < 1) throw ModelError("run_nc_par: need at least one machine");
  if (!instance.uniform_density(1e-9)) {
    throw ModelError("run_nc_par: the paper's NC-PAR requires uniform density");
  }
  ParallelRun out;
  out.assignment.assign(instance.size(), kNoMachine);
  out.start_times.assign(instance.size(), 0.0);

  const PowerLawKinematics kin(alpha);
  struct MachineState {
    CMachine shadow;           ///< virtual Algorithm C over this machine's jobs
    Schedule schedule;         ///< the real NC processing record
    double busy_until = -1.0;  ///< < 0 means idle
    double last_release = -1.0;
    double tied_weight = 0.0;  ///< weight of same-release jobs already assigned here
    double energy_acc = 0.0;   ///< cumulative traced energy of this machine
    explicit MachineState(double a) : shadow(a), schedule(a) {}
  };
  std::vector<MachineState> ms;
  ms.reserve(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) ms.emplace_back(alpha);

  const std::vector<JobId> order = instance.fifo_order();
  std::size_t next_release_idx = 0;
  std::deque<JobId> queue;  // released, unassigned, FIFO

  const auto try_assign = [&](double t) {
    while (!queue.empty()) {
      int idle = -1;
      for (int i = 0; i < k; ++i) {
        if (ms[static_cast<std::size_t>(i)].busy_until < 0.0) {
          idle = i;
          break;
        }
      }
      if (idle < 0) return;
      const JobId jid = queue.front();
      queue.pop_front();
      const Job& job = instance.job(jid);
      MachineState& m = ms[static_cast<std::size_t>(idle)];
      // The shadow clairvoyant run sees the job at its *release* time; FIFO
      // assignment order guarantees the shadow frontier has not passed it.
      // The shadow is virtual — its events stay out of the NC-PAR trace.
      {
        obs::TraceSuppressGuard suppress_shadow;
        m.shadow.add_job(job);
        m.shadow.advance_to(job.release);
      }
      // Release-time ties resolve as the limit of infinitesimally-separated
      // releases (cf. run_nc_uniform_detailed): tied jobs already assigned to
      // this machine count toward the offset.
      if (m.last_release != job.release) {
        m.last_release = job.release;
        m.tied_weight = 0.0;
      }
      const double offset = m.shadow.remaining_weight_left(job.release) + m.tied_weight;
      m.tied_weight += job.weight();
      const double u0 = offset;
      const double u1 = offset + job.weight();
      const double dt = kin.grow_time_to_weight(u0, u1, job.density);
      m.schedule.append({t, t + dt, jid, SpeedLaw::kPowerGrow, u0, job.density});
      m.schedule.set_completion(jid, t + dt);
      m.busy_until = t + dt;
      out.assignment[static_cast<std::size_t>(jid)] = idle;
      out.start_times[static_cast<std::size_t>(jid)] = t;
      OBS_COUNT("algo.nc_par.dispatches", 1);
      if (obs::tracing_enabled()) {
        TRACE_EVENT(.kind = obs::EventKind::kDispatch, .t = t, .job = jid, .machine = idle,
                    .value = offset, .label = "nc_par.fifo_pull");
        TRACE_EVENT(.kind = obs::EventKind::kSpeedChange, .t = t, .job = jid, .machine = idle,
                    .value = kin.speed_at_weight(std::max(u0, 0.0)), .aux = u0);
        m.energy_acc += kin.grow_integral(u0, u1, job.density);
        TRACE_EVENT(.kind = obs::EventKind::kJobComplete, .t = t + dt, .job = jid,
                    .machine = idle, .value = m.energy_acc, .aux = offset);
      }
    }
  };

  while (true) {
    double next_event = kInf;
    if (next_release_idx < order.size()) {
      next_event = instance.job(order[next_release_idx]).release;
    }
    for (int i = 0; i < k; ++i) {
      const double bu = ms[static_cast<std::size_t>(i)].busy_until;
      if (bu >= 0.0) next_event = std::min(next_event, bu);
    }
    if (next_event == kInf) break;
    const double t = next_event;
    for (int i = 0; i < k; ++i) {
      MachineState& m = ms[static_cast<std::size_t>(i)];
      if (m.busy_until >= 0.0 && m.busy_until <= t) m.busy_until = -1.0;
    }
    while (next_release_idx < order.size() &&
           instance.job(order[next_release_idx]).release <= t) {
      const Job& j = instance.job(order[next_release_idx]);
      TRACE_EVENT(.kind = obs::EventKind::kJobRelease, .t = j.release, .job = j.id,
                  .value = j.volume, .aux = j.density);
      queue.push_back(order[next_release_idx]);
      ++next_release_idx;
    }
    try_assign(t);
  }

  for (auto& m : ms) out.schedules.push_back(std::move(m.schedule));
  out.metrics = parallel_metrics(instance, out.schedules, out.assignment, alpha);
  return out;
}

}  // namespace speedscale
