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
    total_weight_ += job.weight();
    weight_b_stale_ = true;
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
  // Stretches run in the b-coordinate, where the decay is linear: W^b is
  // carried from event to event and retaken only after a release adds
  // weight.  An event then costs w_done^b, which times the completion, and
  // for a stretch cut short also its end weight: one or two pow.
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
    const double w0 = total_weight_;
    if (weight_b_stale_) {
      total_weight_b_ = kin_.pow_b(w0);
      weight_b_stale_ = false;
      ++pow_calls;
    }
    const double w0b = total_weight_b_;
    // Weight level at completion.  The last active job drains to exactly
    // zero: w0 - rho * remaining can leave a ~1e-17 rounding residue whose
    // residue^b / (rho b) tail moves the drain time (by ~1e-5 at alpha = 1.5)
    // off the closed form that NC and NC-PAR use for the same busy period.
    const double w_done = active_.size() == 1 ? 0.0 : std::max(w0 - rho * st.remaining, 0.0);
    // w_done^b is the next stretch's w0^b.  A carried w0^b may sit an ulp
    // under pow_b(w0); the min keeps the completion from preceding now_.
    double w_done_b = 0.0;
    if (w_done > 0.0) {
      w_done_b = std::min(kin_.pow_b(w_done), w0b);
      ++pow_calls;
    }
    const double t_complete = now_ + kin_.band_time_pow(w_done_b, w0b, rho);
    const double t_event = std::min({t, next_release, t_complete});

    if (t_event > now_) {
      schedule_.append({now_, t_event, id, SpeedLaw::kPowerDecay, w0, rho});
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

    // The stretch ends at weight w1 (w1b = w1^b); a completion lands on
    // w_done exactly.
    double w1 = w_done;
    double w1b = w_done_b;
    const bool completes = t_complete <= t && t_complete <= next_release;
    if (completes) {
      // Completion fires (at ties, completion precedes release handling).
      // A drained machine holds exactly zero weight (w_done above), so
      // C-PAR's least-weight dispatch sees an idle machine as exactly empty
      // (Lemma 20 pairs it with NC-PAR's idle rule).
      st.remaining = 0.0;
      st.done = true;
      std::pop_heap(active_.begin(), active_.end(), active_after);
      active_.pop_back();
      schedule_.set_completion(id, t_complete);
      now_ = t_complete;
      OBS_COUNT("sim.c_machine.completions", 1);
    } else {
      w1b = kin_.decay_pow_after(w0b, rho, t_event - now_);
      w1 = kin_.weight_from_pow(w1b);
      if (w1b > 0.0) ++pow_calls;
      st.remaining = std::max(0.0, st.remaining - (w0 - w1) / rho);
      now_ = t_event;
    }
    total_weight_ = w1;
    total_weight_b_ = w1b;
    const bool tracing = obs::tracing_enabled();
    if (tracing || online_on_) {
      // int W dt over the stretch; for Algorithm C the cumulative energy and
      // cumulative fractional flow are the same integral.
      const double de = kin_.band_integral_pow(w1, w1b, w0, w0b, rho);
      if (online_on_) {
        om_.add_energy(de);
        om_.add_fractional_flow(de);
        if (completes) om_.add_integral_flow(st.job.weight() * (t_complete - st.job.release));
      }
      if (tracing) {
        energy_acc_ += de;
        if (completes) {
          TRACE_EVENT(.kind = obs::EventKind::kJobComplete, .t = t_complete, .job = id,
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
