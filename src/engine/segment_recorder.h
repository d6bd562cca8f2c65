// Bounded-memory schedule recording for the streaming engine.
//
// A full `Schedule` is O(jobs); at 10M jobs that is exactly the resident
// state the streaming engine exists to avoid.  The recorder offers three
// modes:
//
//   kOff  — nothing recorded; metrics are online-only (the 10M-run mode);
//   kRing — the newest `ring_capacity` segments are kept in a fixed-size
//           ring; older ones are dropped and counted;
//   kRingSpill — like kRing, but *every* segment is also appended to a JSONL
//           spill file through `obs::JsonlSink` (crash-safe tmp + rename on
//           close), so certificates and traces can be rebuilt offline even
//           though the process never held the whole schedule.
//
// Spill wire format `speedscale.segments/1` (docs/performance.md): one
// header object (schema + alpha), then one object per segment with the
// byte-stable number encoding of json_util.h:
//   {"schema":"speedscale.segments/1","alpha":2}
//   {"t0":..,"t1":..,"job":..,"law":"power_grow","param":..,"rho":..,
//    "machine":0,"complete":true}
// `read_spilled_schedule` rebuilds a single-machine `Schedule` from such a
// file, strict-parsing each line with obs::parse_json.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/schedule.h"

namespace speedscale::obs {
class JsonlSink;
}  // namespace speedscale::obs

namespace speedscale::engine {

enum class RecordMode : std::uint8_t {
  kOff,       ///< metrics online-only; nothing is recorded
  kRing,      ///< newest segments in a fixed ring, older ones dropped+counted
  kRingSpill, ///< ring + every segment appended to a JSONL spill file
};

struct RecorderOptions {
  RecordMode mode = RecordMode::kRing;
  std::size_t ring_capacity = 1 << 16;
  std::string spill_path;      ///< required for kRingSpill
  std::size_t flush_every = 4096;  ///< spill sink flush cadence (lines)
};

/// One recorded segment: the schedule segment plus which machine ran it and
/// whether its job completes at t1.
struct RecordedSegment {
  Segment seg;
  int machine = 0;
  bool completes = false;
};

class SegmentRecorder {
 public:
  explicit SegmentRecorder(double alpha, RecorderOptions options = {});
  ~SegmentRecorder();

  SegmentRecorder(const SegmentRecorder&) = delete;
  SegmentRecorder& operator=(const SegmentRecorder&) = delete;

  void push(const Segment& seg, int machine, bool completes);

  /// Commits the spill file (tmp -> final rename).  Idempotent; called by
  /// the destructor if the caller forgets.
  void close();

  [[nodiscard]] RecordMode mode() const { return options_.mode; }
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Total lines written to the spill file (the schema header included), so
  /// it matches a `wc -l` of the closed file: recorded() + 1 when spilling.
  [[nodiscard]] std::uint64_t spilled_lines() const { return spilled_lines_; }

  /// The ring's contents, oldest first.
  [[nodiscard]] std::vector<RecordedSegment> ring_snapshot() const;

  /// Every segment of the run, oldest first, without a copy: with nothing
  /// dropped the ring never wrapped.  Throws ModelError if recording is off
  /// or segments were dropped (the ring is not the whole run).
  [[nodiscard]] const std::vector<RecordedSegment>& segments() const;

  /// Rebuilds a single-machine Schedule from segments().  Throws ModelError
  /// as segments() does, or if more than one machine was recorded.
  [[nodiscard]] Schedule to_schedule() const;

 private:
  double alpha_;
  RecorderOptions options_;
  std::vector<RecordedSegment> ring_;
  std::size_t ring_head_ = 0;  // next write position once the ring is full
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t spilled_lines_ = 0;
  std::unique_ptr<obs::JsonlSink> spill_;
  std::string line_scratch_;
};

/// Serializes one recorded segment as a `speedscale.segments/1` JSONL line
/// (no trailing newline).
[[nodiscard]] std::string segment_json_line(const RecordedSegment& rec);

/// Reads a `speedscale.segments/1` spill back into a single-machine Schedule
/// (segments in file order, completions taken from `complete` markers).
/// Throws ModelError on schema mismatch, malformed lines, or a multi-machine
/// spill.
[[nodiscard]] Schedule read_spilled_schedule(const std::string& path);

}  // namespace speedscale::engine
