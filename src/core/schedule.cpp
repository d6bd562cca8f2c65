#include "src/core/schedule.h"

#include <algorithm>
#include <cmath>

namespace speedscale {

Schedule::Schedule(double alpha) : alpha_(alpha), kin_(alpha) {}

void Schedule::append(Segment seg) {
  if (seg.t1 < seg.t0) throw ModelError("Schedule::append: segment ends before it starts");
  if (!segments_.empty()) {
    const double prev_end = segments_.back().t1;
    if (seg.t0 < prev_end - 1e-9 * std::max(1.0, std::abs(prev_end))) {
      throw ModelError("Schedule::append: segments overlap");
    }
    // Snap tiny gaps caused by floating point so replay sees a clean tape.
    if (seg.t0 < prev_end) seg.t0 = prev_end;
    if (seg.t1 < seg.t0) seg.t1 = seg.t0;
  }
  if (seg.duration() <= 0.0) return;  // drop empty segments
  segments_.push_back(seg);
}

void Schedule::set_completion(JobId id, double t) {
  if (done_.empty()) {
    id_base_ = id;
  } else if (id < id_base_) {
    // Grow the front geometrically: a descending id order stays amortised O(1).
    const auto grow = std::max<std::size_t>(static_cast<std::size_t>(id_base_ - id), done_.size());
    completion_at_.insert(completion_at_.begin(), grow, 0.0);
    done_.insert(done_.begin(), grow, false);
    id_base_ -= static_cast<std::int64_t>(grow);
  }
  const auto slot = static_cast<std::size_t>(id - id_base_);
  if (slot >= done_.size()) {
    const std::size_t size = std::max(slot + 1, 2 * done_.size());
    completion_at_.resize(size, 0.0);
    done_.resize(size, false);
  }
  if (!done_[slot]) {
    done_[slot] = true;
    ++completed_count_;
  }
  completion_at_[slot] = t;
}

bool Schedule::completed(JobId id) const {
  return id >= id_base_ && static_cast<std::size_t>(id - id_base_) < done_.size() &&
         done_[static_cast<std::size_t>(id - id_base_)];
}

double Schedule::completion(JobId id) const {
  if (!completed(id)) throw ModelError("Schedule::completion: job never completed");
  return completion_at_[static_cast<std::size_t>(id - id_base_)];
}

double Schedule::makespan() const {
  return segments_.empty() ? 0.0 : segments_.back().t1;
}

double Schedule::segment_speed_at(const Segment& seg, double t) const {
  const double dt = t - seg.t0;
  switch (seg.law) {
    case SpeedLaw::kIdle:
      return 0.0;
    case SpeedLaw::kConstant:
      return seg.param;
    case SpeedLaw::kPowerDecay:
      return kin_.speed_at_weight(kin_.decay_weight_after(seg.param, seg.rho, dt));
    case SpeedLaw::kPowerGrow:
      return kin_.speed_at_weight(kin_.grow_weight_after(seg.param, seg.rho, dt));
  }
  return 0.0;
}

double Schedule::speed_at(double t) const {
  // Binary search for the segment containing t.
  auto it = std::upper_bound(segments_.begin(), segments_.end(), t,
                             [](double v, const Segment& s) { return v < s.t0; });
  if (it == segments_.begin()) return 0.0;
  --it;
  if (t > it->t1) return 0.0;
  return segment_speed_at(*it, t);
}

double Schedule::segment_volume(const Segment& seg, double a, double b) const {
  switch (seg.law) {
    case SpeedLaw::kIdle:
      return 0.0;
    case SpeedLaw::kConstant:
      return seg.param * (b - a);
    case SpeedLaw::kPowerDecay: {
      const double wa = kin_.decay_weight_after(seg.param, seg.rho, a - seg.t0);
      const double wb = kin_.decay_weight_after(seg.param, seg.rho, b - seg.t0);
      return PowerLawKinematics::decay_volume(wa, wb, seg.rho);
    }
    case SpeedLaw::kPowerGrow: {
      const double ua = kin_.grow_weight_after(seg.param, seg.rho, a - seg.t0);
      const double ub = kin_.grow_weight_after(seg.param, seg.rho, b - seg.t0);
      return PowerLawKinematics::grow_volume(ua, ub, seg.rho);
    }
  }
  return 0.0;
}

std::vector<double> Schedule::processed_volumes(std::size_t n_jobs) const {
  std::vector<double> v(n_jobs, 0.0);
  for (const Segment& seg : segments_) {
    if (seg.job == kNoJob) continue;
    if (seg.job < 0 || static_cast<std::size_t>(seg.job) >= n_jobs) {
      throw ModelError("Schedule::processed_volumes: segment refers to unknown job");
    }
    v[static_cast<std::size_t>(seg.job)] += segment_volume(seg, seg.t0, seg.t1);
  }
  return v;
}

void Schedule::validate(const Instance& instance, double tol) const {
  double prev_end = 0.0;
  for (const Segment& seg : segments_) {
    if (seg.t0 < prev_end - tol) throw ModelError("Schedule::validate: segments overlap");
    if (seg.t1 < seg.t0) throw ModelError("Schedule::validate: negative-duration segment");
    if (seg.job != kNoJob) {
      const Job& j = instance.job(seg.job);
      if (seg.t0 < j.release - tol) {
        throw ModelError("Schedule::validate: job processed before release");
      }
    }
    prev_end = seg.t1;
  }
  const std::vector<double> vols = processed_volumes(instance.size());
  for (const Job& j : instance.jobs()) {
    const double scale = std::max(1.0, j.volume);
    if (completed(j.id)) {
      if (std::abs(vols[static_cast<std::size_t>(j.id)] - j.volume) > tol * scale) {
        throw ModelError("Schedule::validate: completed job volume mismatch");
      }
      if (completion(j.id) < j.release - tol) {
        throw ModelError("Schedule::validate: completion precedes release");
      }
    } else if (vols[static_cast<std::size_t>(j.id)] > j.volume + tol * scale) {
      throw ModelError("Schedule::validate: job overprocessed");
    }
  }
}

}  // namespace speedscale
