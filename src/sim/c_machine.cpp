#include "src/sim/c_machine.h"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"

namespace speedscale {

CMachine::CMachine(double alpha) : kin_(alpha), schedule_(alpha) {}

void CMachine::add_job(const Job& job) {
  if (job.id < 0) throw ModelError("CMachine::add_job: job must have a valid id");
  if (job.release < now_ - 1e-12 * std::max(1.0, now_)) {
    throw ModelError("CMachine::add_job: release time precedes the simulation frontier");
  }
  const auto idx = static_cast<std::size_t>(job.id);
  if (index_of_id_.size() <= idx) index_of_id_.resize(idx + 1, SIZE_MAX);
  if (index_of_id_[idx] != SIZE_MAX) throw ModelError("CMachine::add_job: duplicate job id");
  index_of_id_[idx] = jobs_.size();
  JobState st;
  st.job = job;
  st.remaining = job.volume;
  jobs_.push_back(st);
  ids_.push_back(job.id);
  pending_.insert({std::max(job.release, now_), job.id});
  release_due_jobs();
}

const CMachine::JobState& CMachine::state(JobId id) const {
  const auto idx = static_cast<std::size_t>(id);
  if (idx >= index_of_id_.size() || index_of_id_[idx] == SIZE_MAX) {
    throw ModelError("CMachine: unknown job id");
  }
  return jobs_[index_of_id_[idx]];
}

CMachine::JobState& CMachine::state(JobId id) {
  return const_cast<JobState&>(static_cast<const CMachine*>(this)->state(id));
}

void CMachine::release_due_jobs() {
  while (!pending_.empty() && pending_.begin()->first <= now_) {
    const JobId id = pending_.begin()->second;
    pending_.erase(pending_.begin());
    JobState& st = state(id);
    st.released = true;
    total_weight_ += st.job.weight();
    active_.insert({st.job.density, st.job.release, id});
    OBS_COUNT("sim.c_machine.releases", 1);
    TRACE_EVENT(.kind = obs::EventKind::kJobRelease, .t = now_, .job = id,
                .machine = obs_machine_, .value = st.job.volume, .aux = st.job.density);
  }
}

void CMachine::advance_to(double t) {
  if (t < now_) throw ModelError("CMachine::advance_to: cannot move backwards");
  release_due_jobs();
  while (now_ < t) {
    const double next_release = pending_.empty() ? kInf : pending_.begin()->first;
    if (active_.empty()) {
      const double t_next = std::min(t, next_release);
      if (t_next == kInf) break;  // fully drained; frontier stays put
      now_ = t_next;
      release_due_jobs();
      continue;
    }
    const ActiveKey cur = *active_.begin();
    JobState& st = state(cur.id);
    const double rho = st.job.density;
    const double w0 = total_weight_;
    const double w_done = w0 - rho * st.remaining;  // weight level at completion
    const double t_complete = now_ + kin_.decay_time_to_weight(w0, w_done, rho);
    const double t_event = std::min({t, next_release, t_complete});

    if (t_event > now_) {
      schedule_.append({now_, t_event, cur.id, SpeedLaw::kPowerDecay, w0, rho});
      OBS_COUNT("sim.c_machine.segments", 1);
      // Preemption detection is shared by the metrics counter and the trace
      // event: the counter must fire whenever metrics are on (it is one of
      // the ledger's deterministic work signals), not only under tracing.
      const bool preempted = running_ != kNoJob && running_ != cur.id && !state(running_).done;
      if (preempted) OBS_COUNT("sim.c_machine.preemptions", 1);
      if (obs::tracing_enabled()) {
        if (preempted) {
          TRACE_EVENT(.kind = obs::EventKind::kPreemption, .t = now_, .job = running_,
                      .machine = obs_machine_, .value = static_cast<double>(cur.id),
                      .aux = state(running_).remaining);
        }
        TRACE_EVENT(.kind = obs::EventKind::kSpeedChange, .t = now_, .job = cur.id,
                    .machine = obs_machine_, .value = kin_.speed_at_weight(w0), .aux = w0);
      }
      running_ = cur.id;
    }

    if (t_complete <= t && t_complete <= next_release) {
      // Completion fires (at ties, completion precedes release handling).
      // A drained machine holds exactly zero weight: w_done carries the
      // rounding residue of the decay (~1e-15), which would otherwise make
      // an idle machine look busier than an exactly-empty one to C-PAR's
      // least-weight dispatch (Lemma 20 pairs it with NC-PAR's idle rule).
      st.remaining = 0.0;
      st.done = true;
      active_.erase(active_.begin());
      total_weight_ = active_.empty() ? 0.0 : std::max(0.0, w_done);
      schedule_.set_completion(cur.id, t_complete);
      now_ = t_complete;
      OBS_COUNT("sim.c_machine.completions", 1);
      const bool tracing = obs::tracing_enabled();
      if (tracing || online_on_) {
        // int W dt over the finished stretch; for Algorithm C the cumulative
        // energy and cumulative fractional flow are the same integral.
        const double de = kin_.decay_integral(w0, std::max(w_done, 0.0), rho);
        if (online_on_) {
          om_.add_energy(de);
          om_.add_fractional_flow(de);
          om_.add_integral_flow(st.job.weight() * (t_complete - st.job.release));
        }
        if (tracing) {
          energy_acc_ += de;
          TRACE_EVENT(.kind = obs::EventKind::kJobComplete, .t = t_complete, .job = cur.id,
                      .machine = obs_machine_, .value = energy_acc_, .aux = energy_acc_);
        }
      }
    } else {
      const double dt = t_event - now_;
      const double w1 = kin_.decay_weight_after(w0, rho, dt);
      st.remaining = std::max(0.0, st.remaining - (w0 - w1) / rho);
      total_weight_ = w1;
      now_ = t_event;
      if (obs::tracing_enabled() || online_on_) {
        const double de = kin_.decay_integral(w0, w1, rho);
        if (online_on_) {
          om_.add_energy(de);
          om_.add_fractional_flow(de);
        }
        if (obs::tracing_enabled()) energy_acc_ += de;
      }
    }
    release_due_jobs();
  }
}

void CMachine::run_to_completion() { advance_to(kInf); }

bool CMachine::drained() const { return active_.empty() && pending_.empty(); }

double CMachine::completion_time_of_all() const {
  CMachine copy(*this);
  copy.run_to_completion();
  return copy.now_;
}

double CMachine::remaining_weight_left(double t) const {
  if (t > now_ + 1e-12 * std::max(1.0, now_)) {
    throw ModelError("CMachine::remaining_weight_left: t beyond simulation frontier");
  }
  return c_remaining_weight_left(schedule_, t);
}

double CMachine::remaining_volume(JobId id) const { return state(id).remaining; }

double CMachine::remaining_weight_of(JobId id) const {
  const JobState& st = state(id);
  return st.job.density * st.remaining;
}

Schedule run_algorithm_c(const Instance& instance, double alpha) {
  CMachine m(alpha);
  // add_job requires releases at/after the frontier, which is 0 here.
  for (const Job& j : instance.jobs()) m.add_job(j);
  m.run_to_completion();
  return m.schedule();
}

double c_remaining_weight_left(const Schedule& schedule, double t) {
  const auto& segs = schedule.segments();
  // Last segment with t0 < t.
  auto it = std::lower_bound(segs.begin(), segs.end(), t,
                             [](const Segment& s, double v) { return s.t0 < v; });
  if (it == segs.begin()) return 0.0;
  --it;
  if (t > it->t1) return 0.0;  // idle gap: Algorithm C is work-conserving
  if (it->law != SpeedLaw::kPowerDecay) {
    throw ModelError("c_remaining_weight_left: schedule is not an Algorithm C schedule");
  }
  const PowerLawKinematics kin(schedule.alpha());
  return kin.decay_weight_after(it->param, it->rho, t - it->t0);
}

}  // namespace speedscale
