#include "src/analysis/ascii_chart.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

namespace speedscale::analysis {

void plot(std::ostream& os, const std::vector<Series>& series, int width, int height,
          const std::string& title) {
  double x_min = std::numeric_limits<double>::infinity();
  double x_max = -x_min, y_min = x_min, y_max = -x_min;
  bool any = false;
  for (const Series& s : series) {
    for (std::size_t i = 0; i < s.x.size() && i < s.y.size(); ++i) {
      if (!std::isfinite(s.x[i]) || !std::isfinite(s.y[i])) continue;
      any = true;
      x_min = std::min(x_min, s.x[i]);
      x_max = std::max(x_max, s.x[i]);
      y_min = std::min(y_min, s.y[i]);
      y_max = std::max(y_max, s.y[i]);
    }
  }
  if (!title.empty()) os << title << '\n';
  if (!any) {
    os << "  (no data)\n";
    return;
  }
  if (x_max <= x_min) x_max = x_min + 1.0;
  if (y_max <= y_min) y_max = y_min + 1.0;

  std::vector<std::string> grid(static_cast<std::size_t>(height),
                                std::string(static_cast<std::size_t>(width), ' '));
  for (const Series& s : series) {
    // Draw line segments between consecutive points by dense sampling.
    for (std::size_t i = 0; i + 1 < s.x.size() && i + 1 < s.y.size(); ++i) {
      for (int k = 0; k <= 24; ++k) {
        const double f = static_cast<double>(k) / 24.0;
        const double x = s.x[i] * (1.0 - f) + s.x[i + 1] * f;
        const double y = s.y[i] * (1.0 - f) + s.y[i + 1] * f;
        if (!std::isfinite(x) || !std::isfinite(y)) continue;
        const int cx = static_cast<int>(std::lround((x - x_min) / (x_max - x_min) * (width - 1)));
        const int cy = static_cast<int>(std::lround((y - y_min) / (y_max - y_min) * (height - 1)));
        if (cx >= 0 && cx < width && cy >= 0 && cy < height) {
          grid[static_cast<std::size_t>(height - 1 - cy)][static_cast<std::size_t>(cx)] = s.glyph;
        }
      }
    }
    if (s.x.size() == 1 && s.y.size() == 1) {
      const int cx =
          static_cast<int>(std::lround((s.x[0] - x_min) / (x_max - x_min) * (width - 1)));
      const int cy =
          static_cast<int>(std::lround((s.y[0] - y_min) / (y_max - y_min) * (height - 1)));
      if (cx >= 0 && cx < width && cy >= 0 && cy < height) {
        grid[static_cast<std::size_t>(height - 1 - cy)][static_cast<std::size_t>(cx)] = s.glyph;
      }
    }
  }

  std::ostringstream ymax_s, ymin_s;
  ymax_s << std::setprecision(4) << y_max;
  ymin_s << std::setprecision(4) << y_min;
  for (int r = 0; r < height; ++r) {
    if (r == 0) {
      os << std::setw(10) << std::right << ymax_s.str() << " |";
    } else if (r == height - 1) {
      os << std::setw(10) << std::right << ymin_s.str() << " |";
    } else {
      os << std::string(10, ' ') << " |";
    }
    os << grid[static_cast<std::size_t>(r)] << '\n';
  }
  os << std::string(11, ' ') << '+' << std::string(static_cast<std::size_t>(width), '-') << '\n';
  os << std::string(12, ' ') << std::setprecision(4) << x_min;
  os << std::string(static_cast<std::size_t>(std::max(1, width - 16)), ' ')
     << std::setprecision(4) << x_max << '\n';
  for (const Series& s : series) {
    os << "    " << s.glyph << " = " << s.name << '\n';
  }
}

}  // namespace speedscale::analysis
