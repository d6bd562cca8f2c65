// Pull-based job sources for the streaming engine.
//
// A JobSource yields jobs one at a time in non-decreasing release order —
// the only ordering the streaming engine needs, and the order every sane
// trace is written in.  Sources own whatever state they need to produce the
// next job in O(1) memory:
//
//   TraceJobSource     — streams a CSV trace (trace_io format) through the
//                        one workload::TraceScanner, never materializing an
//                        Instance.  Every line rule is read_trace's (the
//                        same scanner); the source adds only release order:
//                        a decreasing release is a strict error / lenient
//                        skip.
//   SyntheticJobSource — deterministic seeded generator (Poisson arrivals,
//                        exponential volumes, uniform density), the O(1)
//                        analogue of workload::generate for benchmarks that
//                        outgrow any in-memory instance.
//   InstanceJobSource  — adapts an in-memory Instance (FIFO order); the
//                        batch path's source (run_nc_uniform_detailed is
//                        this source + a one-machine StreamEngine).
#pragma once

#include <cstdint>
#include <istream>
#include <vector>

#include "src/core/instance.h"
#include "src/core/types.h"
#include "src/workload/trace_io.h"

namespace speedscale::engine {

class JobSource {
 public:
  virtual ~JobSource() = default;
  /// Yields the next job; returns false at end of stream.  Implementations
  /// must yield non-decreasing `release` values.
  virtual bool next(Job* out) = 0;
};

class TraceJobSource : public JobSource {
 public:
  /// `is` must outlive the source.  The header line is consumed on the first
  /// next() call; all diagnostics carry line numbers.
  explicit TraceJobSource(std::istream& is,
                          workload::TraceReadMode mode = workload::TraceReadMode::kStrict);

  bool next(Job* out) override;
  [[nodiscard]] const workload::TraceReadStats& stats() const { return scanner_.stats(); }

 private:
  workload::TraceScanner scanner_;
  std::int64_t next_id_ = 0;
  double last_release_ = -kInf;
};

class SyntheticJobSource : public JobSource {
 public:
  struct Params {
    std::uint64_t n_jobs = 0;
    double arrival_rate = 2.0;  ///< Poisson arrivals (exponential gaps)
    double volume_mean = 1.0;   ///< exponential volumes
    double density = 1.0;       ///< uniform density (the NC-uniform setting)
    std::uint64_t seed = 1;
  };

  explicit SyntheticJobSource(const Params& params);
  bool next(Job* out) override;

 private:
  [[nodiscard]] double next_unit();  ///< uniform (0, 1], deterministic

  Params params_;
  std::uint64_t state_;
  std::uint64_t emitted_ = 0;
  double clock_ = 0.0;
};

class InstanceJobSource : public JobSource {
 public:
  /// `instance` must outlive the source.
  explicit InstanceJobSource(const Instance& instance);
  bool next(Job* out) override;

 private:
  const Instance& instance_;
  std::vector<JobId> fifo_;
  std::size_t pos_ = 0;
};

}  // namespace speedscale::engine
