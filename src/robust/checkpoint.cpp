#include "src/robust/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "src/obs/metrics_registry.h"
#include "src/robust/diagnostics.h"

namespace speedscale::robust {

namespace {

/// Parses `"key":` at/after `pos` and the double following it.  Returns
/// false on any mismatch (the caller then discards the line).
bool parse_keyed_double(const std::string& line, const char* key, std::size_t& pos,
                        double& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle, pos);
  if (at == std::string::npos) return false;
  const char* start = line.c_str() + at + needle.size();
  char* end = nullptr;
  out = std::strtod(start, &end);
  if (end == start || !std::isfinite(out)) return false;
  pos = static_cast<std::size_t>(end - line.c_str());
  return true;
}

bool parse_line(const std::string& line, SearchCheckpoint& cp) {
  std::size_t pos = 0;
  double round_d = 0.0;
  if (!parse_keyed_double(line, "round", pos, round_d)) return false;
  if (round_d < 0.0 || round_d != std::floor(round_d)) return false;
  if (!parse_keyed_double(line, "step", pos, cp.step)) return false;
  if (!parse_keyed_double(line, "ratio", pos, cp.ratio)) return false;
  if (cp.step <= 0.0 || cp.ratio < 0.0) return false;
  const std::size_t open = line.find("\"x\":[", pos);
  if (open == std::string::npos) return false;
  const std::size_t close = line.find(']', open);
  if (close == std::string::npos) return false;  // torn mid-array
  cp.x.clear();
  const char* p = line.c_str() + open + 5;
  const char* stop = line.c_str() + close;
  while (p < stop) {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || !std::isfinite(v)) return false;
    cp.x.push_back(v);
    p = end;
    while (p < stop && (*p == ',' || *p == ' ')) ++p;
  }
  cp.next_round = static_cast<int>(round_d);
  return !cp.x.empty();
}

}  // namespace

void append_search_checkpoint(const std::string& path, const SearchCheckpoint& cp) {
  std::ofstream f(path, std::ios::app);
  if (!f) throw RobustError(ErrorCode::kIoMalformed, "cannot open checkpoint", path);
  std::ostringstream line;
  line << std::setprecision(17);
  line << "{\"round\":" << cp.next_round << ",\"step\":" << cp.step
       << ",\"ratio\":" << cp.ratio << ",\"x\":[";
  for (std::size_t i = 0; i < cp.x.size(); ++i) {
    if (i > 0) line << ',';
    line << cp.x[i];
  }
  line << "]}\n";
  f << line.str();
  f.flush();
  if (!f) throw RobustError(ErrorCode::kIoMalformed, "checkpoint write failed", path);
}

std::optional<SearchCheckpoint> load_search_checkpoint(const std::string& path,
                                                       std::size_t* skipped_lines) {
  if (skipped_lines) *skipped_lines = 0;
  std::ifstream f(path);
  if (!f) return std::nullopt;
  std::optional<SearchCheckpoint> best;
  std::string line;
  std::size_t skipped = 0;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    SearchCheckpoint cp;
    if (parse_line(line, cp)) {
      best = std::move(cp);
    } else {
      ++skipped;
    }
  }
  if (skipped > 0) {
    // Torn/corrupt lines are expected after a crash (the append is flushed
    // per line, so at most the tail is torn) but must never be *silent*: a
    // resumed run surfaces how much it discarded, both as a counter and on
    // stderr, so a checkpoint file rotting line-by-line is visible long
    // before the search itself misbehaves.  The count goes straight to the
    // registry (not OBS_COUNT): recovery bookkeeping must not divert into an
    // active shard scope and perturb per-item counter deltas.
    obs::registry().counter("robust.checkpoint.torn_lines").add(
        static_cast<std::int64_t>(skipped));
    const Diagnostic warn(ErrorCode::kIoMalformed, "skipped torn checkpoint line(s)",
                          std::to_string(skipped) + " line(s) in " + path);
    std::fprintf(stderr, "[robust] WARN: %s\n", warn.to_string().c_str());
  }
  if (skipped_lines) *skipped_lines = skipped;
  return best;
}

}  // namespace speedscale::robust
