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
  if (slot_of_id_.size() <= idx) {
    slot_of_id_.resize(std::max(idx + 1, 2 * slot_of_id_.size()), kNoSlot);
  }
  if (slot_of_id_[idx] != kNoSlot) throw ModelError("CMachine::add_job: duplicate job id");
  if (jobs_.size() >= kNoSlot) throw ModelError("CMachine::add_job: too many jobs");
  const auto slot = static_cast<std::uint32_t>(jobs_.size());
  slot_of_id_[idx] = slot;
  jobs_.push_back({job, job.volume, false});
  const PendingKey key{std::max(job.release, now_), job.id, slot};
  if (pending_.empty() || !(key < pending_.back())) {
    pending_.push_back(key);
  } else {
    pending_.insert(std::upper_bound(pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_),
                                     pending_.end(), key),
                    key);
  }
  release_due_jobs();
}

void CMachine::reserve(std::size_t n_jobs) {
  jobs_.reserve(jobs_.size() + n_jobs);
  pending_.reserve(pending_.size() + n_jobs);
  active_.reserve(active_.size() + n_jobs);
  // A job adds one segment when it starts or resumes; each release preempts
  // at most once: about two segments per job.
  schedule_.reserve(schedule_.segments().size() + 2 * n_jobs);
}

const CMachine::JobState& CMachine::state(JobId id) const {
  const auto idx = static_cast<std::size_t>(id);
  if (id < 0 || idx >= slot_of_id_.size() || slot_of_id_[idx] == kNoSlot) {
    throw ModelError("CMachine: unknown job id");
  }
  return jobs_[slot_of_id_[idx]];
}

void CMachine::release_due_jobs() {
  while (!pending_.empty() && pending_[pending_head_].release <= now_) {
    const std::uint32_t slot = pending_[pending_head_].slot;
    if (++pending_head_ == pending_.size()) {
      pending_.clear();
      pending_head_ = 0;
    }
    const Job& job = jobs_[slot].job;
    weight_.add(job.weight());
    active_.push_back({job.density, job.release, job.id, slot});
    std::push_heap(active_.begin(), active_.end(), active_after);
    OBS_COUNT("sim.c_machine.releases", 1);
    TRACE_EVENT(.kind = obs::EventKind::kJobRelease, .t = now_, .job = job.id,
                .machine = obs_machine_, .value = job.volume, .aux = job.density);
  }
}

void CMachine::advance_to(double t) {
  if (t < now_) throw ModelError("CMachine::advance_to: cannot move backwards");
  release_due_jobs();
  // An event costs c_stretch's one to three pow (W^b after a release,
  // w_done^b, and for a stretch cut short its end weight).
  std::int64_t pow_calls = 0;
  while (now_ < t) {
    const double next_release =
        pending_.empty() ? kInf : pending_[pending_head_].release;
    if (active_.empty()) {
      const double t_next = std::min(t, next_release);
      if (t_next == kInf) break;  // fully drained; frontier stays put
      now_ = t_next;
      release_due_jobs();
      continue;
    }
    const std::uint32_t slot = active_.front().slot;
    JobState& st = jobs_[slot];
    const JobId id = st.job.id;
    const double rho = st.job.density;
    const double w0 = weight_.w;
    const CStretch s = c_stretch(kin_, weight_, now_, std::min(t, next_release), rho,
                                 rho * st.remaining, active_.size() == 1);
    pow_calls += s.pow_calls;

    if (s.t_end > now_) {
      schedule_.append({now_, s.t_end, id, SpeedLaw::kPowerDecay, w0, rho});
      OBS_COUNT("sim.c_machine.segments", 1);
      // Preemption detection is shared by the metrics counter and the trace
      // event: the counter must fire whenever metrics are on (it is one of
      // the ledger's deterministic work signals), not only under tracing.
      const bool preempted = running_ != kNoSlot && running_ != slot && !jobs_[running_].done;
      if (preempted) OBS_COUNT("sim.c_machine.preemptions", 1);
      if (obs::tracing_enabled()) {
        if (preempted) {
          TRACE_EVENT(.kind = obs::EventKind::kPreemption, .t = now_,
                      .job = jobs_[running_].job.id, .machine = obs_machine_,
                      .value = static_cast<double>(id), .aux = jobs_[running_].remaining);
        }
        TRACE_EVENT(.kind = obs::EventKind::kSpeedChange, .t = now_, .job = id,
                    .machine = obs_machine_, .value = kin_.speed_at_weight(w0), .aux = w0);
      }
      running_ = slot;
    }

    if (s.completes) {
      // Completion fires (at ties, completion precedes release handling).
      // A drained machine holds exactly zero weight (c_stretch drains the
      // last job to zero), so C-PAR's least-weight dispatch sees an idle
      // machine as exactly empty (Lemma 20 pairs it with NC-PAR's idle rule).
      st.remaining = 0.0;
      st.done = true;
      std::pop_heap(active_.begin(), active_.end(), active_after);
      active_.pop_back();
      schedule_.set_completion(id, s.t_end);
      OBS_COUNT("sim.c_machine.completions", 1);
    } else {
      st.remaining = std::max(0.0, st.remaining - (w0 - weight_.w) / rho);
    }
    now_ = s.t_end;
    const bool tracing = obs::tracing_enabled();
    if (tracing || online_on_) {
      // int W dt over the stretch; for Algorithm C the cumulative energy and
      // cumulative fractional flow are the same integral.
      const double de = kin_.band_integral_pow(weight_.w, weight_.wb, w0, s.w0b, rho);
      if (online_on_) {
        om_.add_energy(de);
        om_.add_fractional_flow(de);
        if (s.completes) om_.add_integral_flow(st.job.weight() * (s.t_end - st.job.release));
      }
      if (tracing) {
        energy_acc_ += de;
        if (s.completes) {
          TRACE_EVENT(.kind = obs::EventKind::kJobComplete, .t = s.t_end, .job = id,
                      .machine = obs_machine_, .value = energy_acc_, .aux = energy_acc_);
        }
      }
    }
    release_due_jobs();
  }
  if (pow_calls > 0) OBS_COUNT("sim.c_machine.pow_calls", pow_calls);
}

void CMachine::run_to_completion() { advance_to(kInf); }

bool CMachine::drained() const { return active_.empty() && pending_.empty(); }

double CMachine::remaining_volume(JobId id) const { return state(id).remaining; }

double CMachine::remaining_weight_of(JobId id) const {
  const JobState& st = state(id);
  return st.job.density * st.remaining;
}

Schedule run_algorithm_c(const Instance& instance, double alpha) {
  CMachine m(alpha);
  m.reserve(instance.size());
  // add_job requires releases at/after the frontier, which is 0 here.  Release
  // order makes every add an append to the pending queue.
  for (const JobId id : instance.fifo_order()) m.add_job(instance.job(id));
  m.run_to_completion();
  return std::move(m).take_schedule();
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
