#include "src/sim/custom_policy.h"

#include <algorithm>
#include <cmath>

#include "src/core/kinematics.h"
#include "src/core/power.h"
#include "src/engine/online_metrics.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"

namespace speedscale {

RunResult run_custom_policy(const Instance& instance, double alpha, const SpeedPolicy& policy,
                            const CustomPolicyParams& params) {
  RunResult out(alpha);
  if (instance.empty()) return out;
  const PowerLawKinematics kin(alpha);

  // Natural scales for the integrator (simulator-side knowledge only).
  const double t_ref =
      kin.decay_time_to_zero(std::max(instance.total_weight(), 1e-300), instance.min_density()) +
      instance.max_release();
  const long steps = detail::run_policy_engine(
      instance, instance, alpha, policy,
      {.step_growth = params.step_growth,
       .min_dt = params.min_step * std::max(t_ref, 1e-12),
       .max_steps = params.max_steps,
       .label = "custom_policy",
       .on_event = {}},
      out);
  OBS_COUNT("sim.custom_policy.steps", steps);
  return out;
}

long detail::run_policy_engine(const Instance& instance, const Instance& ordered, double alpha,
                               const SpeedPolicy& policy, const PolicyEngineSetup& setup,
                               RunResult& out) {
  Schedule& sched = out.schedule;
  const std::size_t n = instance.size();

  ObservableState st;
  st.jobs.reserve(n);
  std::vector<std::size_t> visible_index(n, SIZE_MAX);
  const std::vector<JobId> order = instance.fifo_order();
  std::size_t next_release_idx = 0;

  // Online objective: exact closed forms per constant-speed step, with the
  // active (released, unfinished) weight at true densities.
  engine::OnlineMetrics om;
  double active_weight = 0.0;
  const bool tracing = obs::tracing_enabled();
  JobId traced_running = kNoJob;

  const auto release_due = [&]() {
    while (next_release_idx < n && instance.job(order[next_release_idx]).release <= st.time) {
      const Job& j = instance.job(order[next_release_idx]);
      visible_index[static_cast<std::size_t>(j.id)] = st.jobs.size();
      st.jobs.push_back({j.id, j.release, j.density, 0.0, false});
      active_weight += j.weight();
      TRACE_EVENT(.kind = obs::EventKind::kJobRelease, .t = j.release, .job = j.id,
                  .value = j.volume, .aux = j.density, .label = setup.label);
      ++next_release_idx;
    }
  };
  const auto decide = [&]() {
    const PolicyDecision d = policy(st);
    if (!std::isfinite(d.speed)) throw ModelError("custom-policy engine: non-finite policy speed");
    return d;
  };

  double t = 0.0;
  double t_last_event = 0.0;
  std::size_t remaining = n;
  long steps = 0;
  const auto event = [&]() {
    t_last_event = t;
    st.time = t;
    release_due();
    if (setup.on_event) setup.on_event(st);
  };

  release_due();
  while (remaining > 0) {
    if (steps >= setup.max_steps) {
      throw ModelError("custom-policy engine: integrator step cap (max_steps) exceeded; "
                       "loosen step_growth/min_step");
    }
    st.time = t;
    const double next_rel = next_release_idx < n
                                ? instance.job(order[next_release_idx]).release
                                : kInf;
    const PolicyDecision d = decide();
    if (d.job == kNoJob || d.speed <= 0.0) {
      if (next_rel == kInf) {
        throw ModelError("custom-policy engine: policy idles while work remains");
      }
      t = next_rel;
      event();
      continue;
    }
    const auto jid = static_cast<std::size_t>(d.job);
    if (jid >= n || visible_index[jid] == SIZE_MAX) {
      throw ModelError("custom-policy engine: policy chose an unreleased job");
    }
    ObservableState::VisibleJob& vj = st.jobs[visible_index[jid]];
    if (vj.completed) {
      throw ModelError("custom-policy engine: policy chose a completed job");
    }
    const Job& job = instance.job(d.job);

    double dt = std::max(setup.min_dt, setup.step_growth * (t - t_last_event));
    if (next_rel < kInf) dt = std::min(dt, next_rel - t);

    // Midpoint (RK2) probe: re-query the policy halfway through the
    // tentative step; keep its speed if it still runs the same job.
    const double p_before = vj.processed;
    vj.processed = std::min(job.volume, p_before + 0.5 * d.speed * dt);
    st.time = t + 0.5 * dt;
    const PolicyDecision mid = decide();
    vj.processed = p_before;
    st.time = t;
    const double speed = (mid.job == d.job && mid.speed > 0.0) ? mid.speed : d.speed;

    // Completion inside the step?  (The engine — not the policy — knows the
    // true volume; this is exactly the non-clairvoyant oracle.)
    const double vrem = job.volume - vj.processed;
    bool completes = false;
    if (speed * dt >= vrem) {
      dt = vrem / speed;
      completes = true;
    }
    sched.append({t, t + dt, d.job, SpeedLaw::kConstant, speed, ordered.job(d.job).density});
    // Only decision changes are events; per-step integration stays silent.
    if (tracing && d.job != traced_running) {
      if (traced_running != kNoJob) {
        const auto& prev = st.jobs[visible_index[static_cast<std::size_t>(traced_running)]];
        if (!prev.completed) {
          TRACE_EVENT(.kind = obs::EventKind::kPreemption, .t = t, .job = traced_running,
                      .value = static_cast<double>(d.job),
                      .aux = instance.job(traced_running).volume - prev.processed,
                      .label = setup.label);
        }
      }
      TRACE_EVENT(.kind = obs::EventKind::kSpeedChange, .t = t, .job = d.job, .value = speed,
                  .aux = vj.processed, .label = setup.label);
      traced_running = d.job;
    }
    // Exact accumulation over the constant-speed step (matches the replay
    // in compute_metrics): the current job's volume shrinks linearly.
    const double dv = completes ? vrem : speed * dt;
    om.add_energy(std::pow(speed, alpha) * dt);
    om.add_fractional_flow(active_weight * dt - 0.5 * job.density * speed * dt * dt);
    active_weight = std::max(0.0, active_weight - job.density * dv);
    vj.processed = completes ? job.volume : vj.processed + speed * dt;
    t += dt;
    ++steps;

    if (completes) {
      vj.completed = true;
      --remaining;
      sched.set_completion(d.job, t);
      om.add_integral_flow(job.weight() * (t - job.release));
      TRACE_EVENT(.kind = obs::EventKind::kJobComplete, .t = t, .job = d.job,
                  .value = om.energy(), .aux = om.fractional_flow(), .label = setup.label);
      event();
    } else if (next_rel < kInf && t >= next_rel - 1e-15 * std::max(1.0, next_rel)) {
      event();
    }
  }

  out.metrics = compute_metrics(instance, sched, PowerLaw(alpha));
  out.online = om.metrics();
  return steps;
}

}  // namespace speedscale
