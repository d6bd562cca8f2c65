// Whole-token integer parsing for the bench binaries' numeric flags.
#pragma once

#include <charconv>
#include <cstring>
#include <system_error>

namespace speedscale::bench {

/// Parses all of `text` as a base-10 integer in [lo, hi], the way
/// trace_tool parses its numbers: std::from_chars, so it rejects trailing
/// characters ("10M", "2x"), an empty value, overflow and, for an unsigned
/// `Int`, any sign ("-1").  Leaves `out` unchanged on failure.
template <class Int>
bool parse_int_in(const char* text, Int lo, Int hi, Int& out) {
  const char* const last = text + std::strlen(text);
  Int v{};
  const auto [p, ec] = std::from_chars(text, last, v);
  if (ec != std::errc() || p != last || v < lo || v > hi) return false;
  out = v;
  return true;
}

}  // namespace speedscale::bench
