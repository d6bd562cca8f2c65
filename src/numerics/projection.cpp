#include "src/numerics/projection.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace speedscale::numerics {

void project_simplex(std::span<double> x, double total, std::span<std::uint32_t> order) {
  if (total < 0.0) throw std::invalid_argument("project_simplex: negative total");
  if (order.size() != x.size()) {
    throw std::invalid_argument("project_simplex: order hint size differs from x");
  }
  if (x.empty()) {
    if (total > 0.0) throw std::invalid_argument("project_simplex: empty span, positive total");
    return;
  }
  if (total == 0.0) {
    for (double& xi : x) xi = 0.0;
    return;
  }
  // Finish the hint into a descending order of x.
  for (std::size_t k = 1; k < order.size(); ++k) {
    const std::uint32_t v = order[k];
    const double key = x[v];
    std::size_t m = k;
    for (; m > 0 && x[order[m - 1]] < key; --m) order[m] = order[m - 1];
    order[m] = v;
  }
  // Find tau such that sum_i max(x_i - tau, 0) = total.
  double cssv = 0.0;
  double tau = 0.0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const double u = x[order[i]];
    cssv += u;
    const double t = (cssv - total) / static_cast<double>(i + 1);
    if (u - t > 0.0) tau = t;
  }
  for (double& xi : x) xi = std::max(xi - tau, 0.0);
}

void project_simplex(std::span<double> x, double total) {
  std::vector<std::uint32_t> order(x.size());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) { return x[a] > x[b]; });
  project_simplex(x, total, order);
}

}  // namespace speedscale::numerics
