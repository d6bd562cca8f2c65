// Euclidean projection onto the scaled simplex {x >= 0, sum x = v}.
//
// The discretized offline-optimum solver (src/opt/convex_opt.h) constrains
// each job's per-slot volumes to a scaled simplex; projected/accelerated
// gradient descent needs this projection at every iterate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace speedscale::numerics {

/// Projects x (in place) onto {x >= 0, sum_i x_i = total}
/// (Held-Wolfe-Crowder / Duchi et al.): the threshold tau comes from the
/// prefix sums of x in descending order, and x_i becomes max(x_i - tau, 0).
///
/// `order` must hold a permutation of [0, x.size()).  On entry it is a hint,
/// on exit x's indices in descending order of the input values.  The hint is
/// finished by insertion sort, so the cost is O(n + k) for k inversions
/// between the hint and the sorted order: O(n) when the order of x changed
/// little since the hint was produced (FISTA's consecutive iterates), O(n^2)
/// at worst.  Every descending order gives the same prefix sums (equal
/// values are equal bits, and +0/-0 add alike), so tau, and the result, are
/// bit-identical for every hint.
/// `total` must be >= 0; an empty span with total > 0 is an error.
void project_simplex(std::span<double> x, double total, std::span<std::uint32_t> order);

/// Same, without a hint: sorts the indices first, O(n log n).
void project_simplex(std::span<double> x, double total);

}  // namespace speedscale::numerics
