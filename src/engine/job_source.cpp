#include "src/engine/job_source.h"

#include <algorithm>
#include <cmath>

namespace speedscale::engine {

// --- TraceJobSource ---------------------------------------------------------

TraceJobSource::TraceJobSource(std::istream& is, workload::TraceReadMode mode)
    : scanner_(is, mode) {}

bool TraceJobSource::next(Job* out) {
  while (scanner_.next(out)) {
    // The engine admits jobs by release time as they arrive, so the stream
    // must be release-ordered — the order write_trace emits.
    if (out->release < last_release_) {
      scanner_.reject("release times not non-decreasing");
      continue;
    }
    last_release_ = out->release;
    out->id = static_cast<JobId>(next_id_++);
    return true;
  }
  return false;
}

// --- SyntheticJobSource -----------------------------------------------------

SyntheticJobSource::SyntheticJobSource(const Params& params)
    : params_(params), state_(params.seed) {
  if (!(params_.arrival_rate > 0.0) || !(params_.volume_mean > 0.0) ||
      !(params_.density > 0.0)) {
    throw ModelError("SyntheticJobSource: rate, volume_mean, density must be positive");
  }
}

double SyntheticJobSource::next_unit() {
  // splitmix64: full-period, O(1) state, identical on every platform.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return (static_cast<double>(z >> 11) + 1.0) * 0x1.0p-53;  // uniform (0, 1]
}

bool SyntheticJobSource::next(Job* out) {
  if (emitted_ >= params_.n_jobs) return false;
  clock_ += -std::log(next_unit()) / params_.arrival_rate;
  Job j;
  j.id = static_cast<JobId>(emitted_);
  j.release = clock_;
  j.volume = std::max(-std::log(next_unit()) * params_.volume_mean,
                      1e-9 * params_.volume_mean);
  j.density = params_.density;
  ++emitted_;
  *out = j;
  return true;
}

// --- InstanceJobSource ------------------------------------------------------

InstanceJobSource::InstanceJobSource(const Instance& instance)
    : instance_(instance), fifo_(instance.fifo_order()) {}

bool InstanceJobSource::next(Job* out) {
  if (pos_ >= fifo_.size()) return false;
  *out = instance_.job(fifo_[pos_++]);
  return true;
}

}  // namespace speedscale::engine
