// Minimal ASCII line chart so benches can show the *shape* of each figure
// (power curves, lower-bound growth, crossovers) directly in the terminal.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace speedscale::analysis {

struct Series {
  std::string name;
  std::vector<double> x;
  std::vector<double> y;
  char glyph = '*';
};

/// Renders all series into one `width` x `height` character grid with simple
/// linear axes and a legend.  Safe with empty input (prints a note).
void plot(std::ostream& os, const std::vector<Series>& series, int width = 72, int height = 18,
          const std::string& title = "");

}  // namespace speedscale::analysis
