// CSV trace I/O for instances.
//
// Format (header line required):
//   id,release,volume,density
// Ids in the file are informational; loading reassigns contiguous ids in
// file order (the Instance invariant).
//
// One scanner parses every trace: TraceScanner owns the header, blank-line,
// torn-tail, line-number, field-count, numeric and positivity rules, and both
// readers are thin drains over it — read_trace collects its jobs into an
// Instance, engine::TraceJobSource (src/engine/job_source.h) streams them and
// adds only the release-order check.  So the two cannot drift on what counts
// as a bad line.
//
// Scanning:
//   * the stream is read in 64 KiB blocks (a block grows only to hold a
//     longer line); lines are found with memchr and split into string_view
//     fields, so an accepted line allocates nothing;
//   * numbers are parsed with std::from_chars; a field it refuses or does
//     not fully consume (leading whitespace, '+', hex, out of range, NUL, …)
//     falls back to strtod_l under a fixed "C" locale.  Parsing never reads
//     LC_NUMERIC: "0.5" is one half under every locale.
//
// Robustness:
//   * reads are strict by default — exact field count, fully-consumed
//     numeric fields, finite values, positive volume and density — and every
//     rejection names its line number; lenient mode skips-and-counts bad
//     lines instead of throwing;
//   * parse failures throw TraceIoError, which is a ModelError (so existing
//     handlers keep working) carrying a typed robust::Diagnostic
//     (ErrorCode::kIoMalformed);
//   * a final line with no '\n' is a torn tail (crash-safe ".tmp" prefixes
//     end exactly like this) and is never data, even if it parses;
//   * write_trace_file is crash-safe: it writes "<path>.tmp", flushes, then
//     atomically renames, so an interrupted bench never leaves a truncated
//     trace at the target path.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/instance.h"
#include "src/robust/diagnostics.h"

namespace speedscale::workload {

/// Malformed trace input.  ModelError-compatible, diagnostic-typed.
class TraceIoError : public ModelError {
 public:
  explicit TraceIoError(robust::Diagnostic diag)
      : ModelError(diag.to_string()), diag_(std::move(diag)) {}
  [[nodiscard]] const robust::Diagnostic& diagnostic() const noexcept { return diag_; }

 private:
  robust::Diagnostic diag_;
};

enum class TraceReadMode : std::uint8_t {
  kStrict,   ///< any bad line throws TraceIoError with its line number
  kLenient,  ///< bad lines are skipped and counted in TraceReadStats
};

struct TraceReadOptions {
  TraceReadMode mode = TraceReadMode::kStrict;
};

struct TraceReadStats {
  std::size_t lines_read = 0;     ///< data lines accepted as jobs
  std::size_t lines_skipped = 0;  ///< bad data lines dropped (lenient only)
};

/// Parses one numeric field with full consumption: optional trailing spaces
/// are allowed, anything else left over (including a NUL byte) is a failure,
/// and so is a field with no number in it (empty or whitespace-only).  The
/// accepted set is strtod's, evaluated in the "C" locale; finiteness is the
/// caller's rule.
[[nodiscard]] bool parse_trace_field(std::string_view field, double& out);

/// The one trace line loop.  Yields the jobs of a trace in file order; each
/// yielded job has release/volume/density set and passed every line rule.
/// Ids are left to the consumer.
class TraceScanner {
 public:
  /// `is` must outlive the scanner.  The header is read on the first next().
  explicit TraceScanner(std::istream& is, TraceReadMode mode = TraceReadMode::kStrict);

  /// Yields the next accepted line's job; false at end of stream.  Header
  /// faults throw in both modes; bad data lines throw (strict) or are
  /// skipped and counted (lenient).
  bool next(Job* out);

  /// Rejects the job next() just yielded by a consumer's own rule (`why`
  /// names it): strict throws with that line's number, lenient moves the
  /// line from lines_read to lines_skipped.
  void reject(const char* why);

  [[nodiscard]] const TraceReadStats& stats() const noexcept { return stats_; }

 private:
  bool next_line(std::string_view* line, bool* terminated);

  std::istream& is_;
  TraceReadMode mode_;
  TraceReadStats stats_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;  ///< unconsumed bytes are buf_[begin_, end_)
  std::size_t end_ = 0;
  bool eof_ = false;
  bool header_done_ = false;
  std::size_t line_no_ = 0;  ///< the header is line 1
};

void write_trace(std::ostream& os, const Instance& instance);
/// Crash-safe: tmp + flush + atomic rename.
void write_trace_file(const std::string& path, const Instance& instance);

/// Drains a TraceScanner into an Instance.  Releases need not be sorted.
[[nodiscard]] Instance read_trace(std::istream& is, const TraceReadOptions& options = {},
                                  TraceReadStats* stats = nullptr);
[[nodiscard]] Instance read_trace_file(const std::string& path,
                                       const TraceReadOptions& options = {},
                                       TraceReadStats* stats = nullptr);

}  // namespace speedscale::workload
