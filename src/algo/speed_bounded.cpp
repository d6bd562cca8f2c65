#include "src/algo/speed_bounded.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "src/core/kinematics.h"
#include "src/core/power.h"

namespace speedscale {

BoundedRun run_c_bounded(const Instance& instance, double alpha, double s_max) {
  if (!(s_max > 0.0)) throw ModelError("run_c_bounded: s_max must be positive");
  BoundedRun out(alpha);
  Schedule& sched = out.result.schedule;
  const PowerLawKinematics kin(alpha);
  const double cap_power = std::pow(s_max, alpha);

  std::vector<double> remaining(instance.size());
  for (const Job& j : instance.jobs()) remaining[static_cast<std::size_t>(j.id)] = j.volume;
  const std::vector<JobId> by_release = instance.fifo_order();
  std::size_t next = 0;  // by_release[next] is the next job to release
  const auto hdf = [&](JobId a, JobId b) {
    const Job& ja = instance.job(a);
    const Job& jb = instance.job(b);
    if (ja.density != jb.density) return ja.density > jb.density;
    if (ja.release != jb.release) return ja.release < jb.release;
    return a < b;
  };
  std::set<JobId, decltype(hdf)> active(hdf);

  double t = 0.0;
  CWeight W;
  const auto release_due = [&]() {
    for (; next < by_release.size() && instance.job(by_release[next]).release <= t; ++next) {
      W.add(instance.job(by_release[next]).weight());
      active.insert(by_release[next]);
    }
  };
  release_due();

  while (!active.empty() || next < by_release.size()) {
    const double next_release =
        next < by_release.size() ? instance.job(by_release[next]).release : kInf;
    if (active.empty()) {
      t = next_release;
      release_due();
      continue;
    }
    const JobId cur = *active.begin();
    const Job& job = instance.job(cur);
    double& rem = remaining[static_cast<std::size_t>(cur)];

    // Strictly-above-cap test with a relative tolerance: after a capped
    // stretch ends at the cap boundary, float residue can leave W a few ulp
    // above cap_power, which would otherwise produce a zero-length step and
    // an infinite loop.
    if (W.w > cap_power * (1.0 + 1e-12)) {
      // Capped phase: constant speed s_max; W falls linearly.
      const double t_uncap = t + (W.w - cap_power) / (job.density * s_max);
      const double t_complete = t + rem / s_max;
      const double t_event = std::min({t_uncap, t_complete, next_release});
      if (t_event > t) {
        out.seg_w0.push_back(W.w);
        sched.append({t, t_event, cur, SpeedLaw::kConstant, s_max, job.density});
      }
      const double dt = t_event - t;
      // Uncapping snaps W exactly onto the boundary.
      W.w = t_event == t_uncap ? cap_power : std::max(0.0, W.w - job.density * s_max * dt);
      W.wb_stale = true;
      rem -= s_max * dt;
      t = t_event;
      if (t == t_complete && t <= t_uncap && t <= next_release) {
        active.erase(active.begin());
        sched.set_completion(cur, t);
      }
    } else {
      // Uncapped: Algorithm C's stretch, the same operations as CMachine's.
      const double w0 = W.w;
      const CStretch s =
          c_stretch(kin, W, t, next_release, job.density, job.density * rem, active.size() == 1);
      if (s.t_end > t) {
        out.seg_w0.push_back(w0);
        sched.append({t, s.t_end, cur, SpeedLaw::kPowerDecay, w0, job.density});
      }
      if (s.completes) {
        active.erase(active.begin());
        sched.set_completion(cur, s.t_end);
      } else {
        rem = std::max(0.0, rem - (w0 - W.w) / job.density);
      }
      t = s.t_end;
    }
    release_due();
  }

  const PowerLaw power(alpha);
  out.result.metrics = compute_metrics(instance, sched, power);
  return out;
}

double bounded_remaining_weight_left(const BoundedRun& run, double t) {
  const Schedule& sched = run.result.schedule;
  const auto& segs = sched.segments();
  auto it = std::lower_bound(segs.begin(), segs.end(), t,
                             [](const Segment& s, double v) { return s.t0 < v; });
  if (it == segs.begin()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(it - segs.begin()) - 1;
  const Segment& seg = segs[idx];
  if (t > seg.t1) return 0.0;  // idle gap
  const double w0 = run.seg_w0.at(idx);
  const PowerLawKinematics kin(sched.alpha());
  switch (seg.law) {
    case SpeedLaw::kPowerDecay:
      return kin.decay_weight_after(w0, seg.rho, t - seg.t0);
    case SpeedLaw::kConstant:  // capped: W falls linearly at rho * s_max
      return std::max(0.0, w0 - seg.rho * seg.param * (t - seg.t0));
    default:
      throw ModelError("bounded_remaining_weight_left: not a clairvoyant bounded run");
  }
}

BoundedRun run_nc_bounded(const Instance& instance, double alpha, double s_max) {
  if (!(s_max > 0.0)) throw ModelError("run_nc_bounded: s_max must be positive");
  if (!instance.uniform_density(1e-9)) {
    throw ModelError("run_nc_bounded: instance must have uniform density");
  }
  const BoundedRun c_run = run_c_bounded(instance, alpha, s_max);

  BoundedRun out(alpha);
  Schedule& sched = out.result.schedule;
  const PowerLawKinematics kin(alpha);
  const double cap_power = std::pow(s_max, alpha);

  double t = 0.0;
  const std::vector<JobId> fifo = instance.fifo_order();
  for (std::size_t pos = 0; pos < fifo.size(); ++pos) {
    const JobId jid = fifo[pos];
    const Job& job = instance.job(jid);
    double offset = bounded_remaining_weight_left(c_run, job.release);
    for (std::size_t q = pos; q-- > 0;) {  // release-time ties, cf. NC uniform
      const Job& prev = instance.job(fifo[q]);
      if (prev.release != job.release) break;
      offset += prev.weight();
    }
    t = std::max(t, job.release);
    double u = offset;
    const double u_end = offset + job.weight();
    // Phase A: growing power-law speed while U < cap_power.
    if (u < cap_power) {
      const double u_stop = std::min(u_end, cap_power);
      const double dt = kin.grow_time_to_weight(u, u_stop, job.density);
      if (dt > 0.0) {
        out.seg_w0.push_back(u);
        sched.append({t, t + dt, jid, SpeedLaw::kPowerGrow, u, job.density});
        t += dt;
      }
      u = u_stop;
    }
    // Phase B: capped at s_max for the remaining volume.
    if (u < u_end) {
      const double vol_left = (u_end - u) / job.density;
      const double dt = vol_left / s_max;
      out.seg_w0.push_back(u);
      sched.append({t, t + dt, jid, SpeedLaw::kConstant, s_max, job.density});
      t += dt;
    }
    sched.set_completion(jid, t);
  }

  const PowerLaw power(alpha);
  out.result.metrics = compute_metrics(instance, sched, power);
  return out;
}

}  // namespace speedscale
