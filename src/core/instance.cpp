#include "src/core/instance.h"

#include <algorithm>
#include <cmath>

namespace speedscale {

Instance::Instance(std::vector<Job> jobs) : jobs_(std::move(jobs)) {
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    Job& j = jobs_[i];
    j.id = static_cast<JobId>(i);
    if (!(j.release >= 0.0) || !std::isfinite(j.release)) {
      throw ModelError("Instance: job " + std::to_string(i) + " has invalid release time");
    }
    if (!(j.volume > 0.0) || !std::isfinite(j.volume)) {
      throw ModelError("Instance: job " + std::to_string(i) + " has non-positive volume");
    }
    if (!(j.density > 0.0) || !std::isfinite(j.density)) {
      throw ModelError("Instance: job " + std::to_string(i) + " has non-positive density");
    }
  }
}

double Instance::total_volume() const {
  double v = 0.0;
  for (const Job& j : jobs_) v += j.volume;
  return v;
}

double Instance::total_weight() const {
  double w = 0.0;
  for (const Job& j : jobs_) w += j.weight();
  return w;
}

double Instance::max_release() const {
  double r = 0.0;
  for (const Job& j : jobs_) r = std::max(r, j.release);
  return r;
}

double Instance::min_density() const {
  double d = kInf;
  for (const Job& j : jobs_) d = std::min(d, j.density);
  return d;
}

double Instance::max_density() const {
  double d = 0.0;
  for (const Job& j : jobs_) d = std::max(d, j.density);
  return d;
}

bool Instance::uniform_density(double rel_tol) const {
  if (jobs_.empty()) return true;
  const double d0 = jobs_.front().density;
  for (const Job& j : jobs_) {
    if (std::abs(j.density - d0) > rel_tol * std::max(1.0, std::abs(d0))) return false;
  }
  return true;
}

std::vector<JobId> Instance::fifo_order() const {
  std::vector<JobId> order(jobs_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<JobId>(i);
  // Generated and trace instances arrive in release order: ids already are
  // the (release, id) order.
  const bool in_release_order =
      std::is_sorted(jobs_.begin(), jobs_.end(),
                     [](const Job& a, const Job& b) { return a.release < b.release; });
  if (in_release_order) return order;
  std::stable_sort(order.begin(), order.end(), [this](JobId a, JobId b) {
    const Job& ja = jobs_[static_cast<size_t>(a)];
    const Job& jb = jobs_[static_cast<size_t>(b)];
    if (ja.release != jb.release) return ja.release < jb.release;
    return a < b;
  });
  return order;
}

Instance Instance::rounded_densities(double beta) const {
  if (!(beta > 1.0)) throw ModelError("rounded_densities: beta must exceed 1");
  std::vector<Job> out = jobs_;
  for (Job& j : out) {
    // Largest power of beta that is <= density.  Use floor of log, then fix
    // up boundary rounding so exact powers map to themselves.
    double k = std::floor(std::log(j.density) / std::log(beta));
    double rounded = std::pow(beta, k);
    if (rounded * beta <= j.density * (1.0 + 1e-12)) rounded *= beta;
    if (rounded > j.density * (1.0 + 1e-12)) rounded /= beta;
    j.density = rounded;
  }
  return Instance(std::move(out));
}

Instance Instance::released_before(double t, std::vector<JobId>* original_ids) const {
  std::vector<Job> out;
  if (original_ids) original_ids->clear();
  for (const Job& j : jobs_) {
    if (j.release < t) {
      out.push_back(j);
      if (original_ids) original_ids->push_back(j.id);
    }
  }
  return Instance(std::move(out));
}

}  // namespace speedscale
