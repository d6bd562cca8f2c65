#include "src/workload/trace_io.h"

#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>

#include "src/robust/atomic_io.h"

namespace speedscale::workload {

namespace {

/// Initial read block; the buffer doubles only when one line outgrows it.
constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

[[noreturn]] void malformed(std::string message, std::size_t line_no) {
  throw TraceIoError(robust::Diagnostic{robust::ErrorCode::kIoMalformed, std::move(message),
                                        "line " + std::to_string(line_no)});
}

/// The fixed "C" locale for the strtod_l fallback, so no field's meaning
/// depends on the process's LC_NUMERIC.
locale_t c_locale() {
  static const locale_t loc = newlocale(LC_ALL_MASK, "C", locale_t{});
  return loc;
}

/// Full-consumption strtod in the "C" locale: the rule for every field
/// std::from_chars refuses.  Trailing junk (including NUL bytes) is a
/// failure, unlike std::stod's prefix semantics, and so is a field in which
/// nothing converts (strtod would read a whitespace-only field as 0).
bool parse_field_fallback(std::string_view field, double& out) {
  if (field.empty() || std::memchr(field.data(), '\0', field.size()) != nullptr) return false;
  char small[128];
  std::string large;
  const char* s = small;
  if (field.size() < sizeof small) {
    std::memcpy(small, field.data(), field.size());
    small[field.size()] = '\0';
  } else {
    large.assign(field);
    s = large.c_str();
  }
  char* end = nullptr;
  out = strtod_l(s, &end, c_locale());
  if (end == s) return false;
  while (*end == ' ') ++end;
  return end == s + field.size();
}

/// Parses a data line's fields.  `why` (when given) names the first broken
/// rule; it is written only on failure, so an accepted line allocates nothing.
bool parse_job_line(std::string_view line, double values[3], std::string* why) {
  std::string_view fields[4];
  std::size_t count = 0;
  std::size_t start = 0;
  for (std::size_t comma; (comma = line.find(',', start)) != std::string_view::npos;
       start = comma + 1) {
    if (count < 4) fields[count] = line.substr(start, comma - start);
    ++count;
  }
  if (count < 4) fields[count] = line.substr(start);
  ++count;
  if (count != 4) {
    if (why) *why = "expected 4 fields, got " + std::to_string(count);
    return false;
  }
  static constexpr const char* kNames[] = {"id", "release", "volume", "density"};
  for (std::size_t k = 0; k < 4; ++k) {
    double v = 0.0;
    if (!parse_trace_field(fields[k], v)) {
      if (why) {
        *why = std::string("unparseable ") + kNames[k] + " field '" +
               std::string(fields[k].substr(0, 32)) + "'";
      }
      return false;
    }
    if (k == 0) continue;  // the id is informational: any number will do
    if (!std::isfinite(v)) {
      if (why) *why = std::string("non-finite ") + kNames[k];
      return false;
    }
    if (k >= 2 && !(v > 0.0)) {
      if (why) *why = std::string("non-positive ") + kNames[k];
      return false;
    }
    values[k - 1] = v;
  }
  return true;
}

}  // namespace

bool parse_trace_field(std::string_view field, double& out) {
  const char* const last = field.data() + field.size();
  double v = 0.0;
  auto [p, ec] = std::from_chars(field.data(), last, v);
  if (ec == std::errc() && std::isfinite(v)) {
    while (p != last && *p == ' ') ++p;
    if (p == last) {
      out = v;
      return true;
    }
  }
  return parse_field_fallback(field, out);
}

// --- TraceScanner -----------------------------------------------------------

TraceScanner::TraceScanner(std::istream& is, TraceReadMode mode)
    : is_(is), mode_(mode), buf_(kBlockBytes) {}

bool TraceScanner::next_line(std::string_view* line, bool* terminated) {
  std::size_t scanned = begin_;  // buf_[begin_, scanned) holds no '\n'
  for (;;) {
    const char* base = buf_.data();
    if (const void* nl = std::memchr(base + scanned, '\n', end_ - scanned)) {
      const std::size_t stop = static_cast<std::size_t>(static_cast<const char*>(nl) - base);
      *line = std::string_view(base + begin_, stop - begin_);
      *terminated = true;
      begin_ = stop + 1;
      return true;
    }
    if (eof_) {
      if (begin_ == end_) return false;
      *line = std::string_view(base + begin_, end_ - begin_);
      *terminated = false;
      begin_ = end_;
      return true;
    }
    // Refill behind the partial line, which moves to the front; the buffer
    // grows only when that line already fills all of it.
    const std::size_t partial = end_ - begin_;
    std::memmove(buf_.data(), base + begin_, partial);
    begin_ = 0;
    end_ = scanned = partial;
    if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
    is_.read(buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
    end_ += static_cast<std::size_t>(is_.gcount());
    eof_ = !is_;  // a short read sets failbit
  }
}

bool TraceScanner::next(Job* out) {
  std::string_view line;
  bool terminated = false;
  if (!header_done_) {
    line_no_ = 1;
    if (!next_line(&line, &terminated)) malformed("empty stream", 1);
    if (line.substr(0, 3) != "id,") malformed("missing 'id,...' header", 1);
    header_done_ = true;
  }
  const bool strict = mode_ == TraceReadMode::kStrict;
  while (next_line(&line, &terminated)) {
    ++line_no_;
    if (line.empty()) continue;
    // A final line with no '\n' is a crash fragment, never data: it may
    // still parse as 4 valid fields (a truncated "…,1.25" reads as "…,1").
    if (!terminated) {
      if (strict) malformed("unterminated final line (torn tail)", line_no_);
      ++stats_.lines_skipped;
      continue;
    }
    double values[3] = {};
    std::string why;
    if (!parse_job_line(line, values, strict ? &why : nullptr)) {
      if (strict) malformed("malformed trace line: " + why, line_no_);
      ++stats_.lines_skipped;
      continue;
    }
    out->release = values[0];
    out->volume = values[1];
    out->density = values[2];
    ++stats_.lines_read;
    return true;
  }
  return false;
}

void TraceScanner::reject(const char* why) {
  if (mode_ == TraceReadMode::kStrict) malformed(why, line_no_);
  --stats_.lines_read;
  ++stats_.lines_skipped;
}

void write_trace(std::ostream& os, const Instance& instance) {
  os << "id,release,volume,density\n";
  os << std::setprecision(17);
  for (const Job& j : instance.jobs()) {
    os << j.id << ',' << j.release << ',' << j.volume << ',' << j.density << '\n';
  }
}

void write_trace_file(const std::string& path, const Instance& instance) {
  robust::atomic_write_file(path, [&](std::ostream& os) { write_trace(os, instance); });
}

Instance read_trace(std::istream& is, const TraceReadOptions& options, TraceReadStats* stats) {
  TraceScanner scanner(is, options.mode);
  std::vector<Job> jobs;
  Job j;
  while (scanner.next(&j)) jobs.push_back(j);
  if (stats) *stats = scanner.stats();
  return Instance(std::move(jobs));
}

Instance read_trace_file(const std::string& path, const TraceReadOptions& options,
                         TraceReadStats* stats) {
  std::ifstream f(path);
  if (!f) {
    throw TraceIoError(robust::Diagnostic{robust::ErrorCode::kIoMalformed,
                                          "cannot open trace file", path});
  }
  return read_trace(f, options, stats);
}

}  // namespace speedscale::workload
