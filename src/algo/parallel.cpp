#include "src/algo/parallel.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "src/core/power.h"
#include "src/engine/job_source.h"
#include "src/engine/stream_engine.h"
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
  // The streaming engine's NC-PAR dispatch with a ring of n segments, as
  // run_nc_uniform_detailed is the engine on one machine.
  engine::StreamOptions options;
  options.alpha = alpha;
  options.machines = k;
  options.dispatch = DispatchPolicy::kNcPar;
  options.recorder.ring_capacity = std::max<std::size_t>(1, instance.size());
  engine::StreamEngine eng(options);
  engine::InstanceJobSource source(instance);
  const engine::StreamResult streamed = eng.run(source);
  OBS_COUNT("algo.nc_par.dispatches", static_cast<std::int64_t>(instance.size()));

  ParallelRun out;
  out.schedules.assign(static_cast<std::size_t>(k), Schedule(alpha));
  out.assignment.assign(instance.size(), kNoMachine);
  out.start_times.assign(instance.size(), 0.0);
  // Each job is one growth segment (zero-length ones too, which the Schedule
  // drops), recorded in FIFO order per machine; a machine starts a job at its
  // release or at the end of its previous job.
  std::vector<double> frontier(static_cast<std::size_t>(k), 0.0);
  for (const engine::RecordedSegment& rec : eng.recorder().segments()) {
    const auto m = static_cast<std::size_t>(rec.machine);
    const auto j = static_cast<std::size_t>(rec.seg.job);
    out.assignment[j] = rec.machine;
    out.start_times[j] = std::max(frontier[m], instance.job(rec.seg.job).release);
    frontier[m] = rec.seg.t1;
    out.schedules[m].append(rec.seg);
    out.schedules[m].set_completion(rec.seg.job, rec.seg.t1);
  }
  // The replay is the Lemma 21/22 oracle, as for C-PAR.
  out.metrics = parallel_metrics(instance, out.schedules, out.assignment, alpha);
  out.online = streamed.online;
  return out;
}

}  // namespace speedscale
