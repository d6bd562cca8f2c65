#include "src/numerics/roots.h"

#include <cmath>
#include <string>

#include "src/obs/metrics_registry.h"
#include "src/robust/diagnostics.h"

namespace speedscale::numerics {

namespace {

using robust::ErrorCode;
using robust::RobustError;

std::string bracket_context(double lo, double flo, double hi, double fhi) {
  return "lo=" + std::to_string(lo) + " f(lo)=" + std::to_string(flo) +
         " hi=" + std::to_string(hi) + " f(hi)=" + std::to_string(fhi);
}

/// Evaluates f with the NaN guard every probe shares.
double probe(const std::function<double(double)>& f, double x, const char* who) {
  const double v = f(x);
  if (std::isnan(v)) {
    throw RobustError(ErrorCode::kNumericNonfinite, std::string(who) + ": f(x) is NaN",
                      "x=" + std::to_string(x));
  }
  return v;
}

/// Shared bracket validation: equal signs raise the typed
/// kRootNotBracketed diagnostic.
void require_bracketed(const char* who, double lo, double flo, double hi, double fhi) {
  if ((flo > 0.0) == (fhi > 0.0)) {
    throw RobustError(ErrorCode::kRootNotBracketed, std::string(who) + ": root not bracketed",
                      bracket_context(lo, flo, hi, fhi));
  }
}

/// Flushes an iteration tally to a named counter on scope exit, so every
/// return path (convergence, float exhaustion, budget fallback) records the
/// work done.  Iteration counts are seed-deterministic, which makes them the
/// bench ledger's noise-free regression signal (src/obs/perf/).
struct IterationTally {
  const char* name;
  std::int64_t n = 0;
  ~IterationTally() {
    // shard_aware_add: under a sweep shard (src/obs/shard_scope.h) the tally
    // lands in the shard's delta map, like every OBS_COUNT site.
    if (n > 0 && obs::metrics_enabled()) obs::shard_aware_add(name, n);
  }
};

}  // namespace

double bisect(const std::function<double(double)>& f, double lo, double hi, double tol) {
  double flo = probe(f, lo, "bisect");
  double fhi = probe(f, hi, "bisect");
  if (flo == 0.0) return lo;
  if (fhi == 0.0) return hi;
  require_bracketed("bisect", lo, flo, hi, fhi);
  IterationTally iters{"numerics.roots.bisect_iters"};
  while (hi - lo > tol * std::max(1.0, std::abs(lo) + std::abs(hi))) {
    ++iters.n;
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || mid == hi) break;  // float exhaustion
    const double fm = probe(f, mid, "bisect");
    if (fm == 0.0) return mid;
    if ((fm > 0.0) == (fhi > 0.0)) {
      hi = mid;
      fhi = fm;
    } else {
      lo = mid;
      flo = fm;
    }
  }
  return 0.5 * (lo + hi);
}

double brent(const std::function<double(double)>& f, double lo, double hi, double tol,
             int max_iter) {
  double a = lo, b = hi;
  double fa = probe(f, a, "brent"), fb = probe(f, b, "brent");
  if (fa == 0.0) return a;
  if (fb == 0.0) return b;
  require_bracketed("brent", a, fa, b, fb);
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a, fc = fa;
  bool mflag = true;
  double d = 0.0;
  IterationTally iters{"numerics.roots.brent_iters"};
  for (int i = 0; i < max_iter; ++i) {
    if (fb == 0.0 || std::abs(b - a) < tol * std::max(1.0, std::abs(b))) return b;
    ++iters.n;
    double s;
    if (fa != fc && fb != fc) {
      // inverse quadratic interpolation
      s = a * fb * fc / ((fa - fb) * (fa - fc)) + b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      s = b - fb * (b - a) / (fb - fa);  // secant
    }
    const double lo_b = (3.0 * a + b) / 4.0;
    const bool cond1 = !((s > std::min(lo_b, b) && s < std::max(lo_b, b)));
    const bool cond2 = mflag && std::abs(s - b) >= std::abs(b - c) / 2.0;
    const bool cond3 = !mflag && std::abs(s - b) >= std::abs(c - d) / 2.0;
    const bool cond4 = mflag && std::abs(b - c) < tol;
    const bool cond5 = !mflag && std::abs(c - d) < tol;
    if (cond1 || cond2 || cond3 || cond4 || cond5) {
      s = 0.5 * (a + b);
      mflag = true;
    } else {
      mflag = false;
    }
    const double fs = probe(f, s, "brent");
    d = c;
    c = b;
    fc = fb;
    if ((fa > 0.0) != (fs > 0.0)) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  // Iteration budget exhausted: [a, b] still brackets the root (the update
  // rule preserves opposite signs), so degrade to plain bisection on it
  // rather than surfacing kNoConvergence.
  OBS_COUNT("numerics.roots.brent_fallbacks", 1);
  return bisect(f, std::min(a, b), std::max(a, b), tol);
}

double find_root_increasing(const std::function<double(double)>& f, double lo, double hi0,
                            double tol, int max_expansions) {
  double hi = hi0;
  const double flo = probe(f, lo, "find_root_increasing");
  if (flo > 0.0) {
    throw RobustError(ErrorCode::kRootNotBracketed, "find_root_increasing: f(lo) > 0",
                      "lo=" + std::to_string(lo) + " f(lo)=" + std::to_string(flo));
  }
  int expansions = 0;
  double fhi = probe(f, hi, "find_root_increasing");
  while (fhi < 0.0) {
    if (++expansions > max_expansions) {
      OBS_COUNT("numerics.roots.expansion_cap_hits", 1);
      throw RobustError(ErrorCode::kRootNotBracketed,
                        "find_root_increasing: no sign change within expansion cap",
                        "expansions=" + std::to_string(expansions - 1) + " " +
                            bracket_context(lo, flo, hi, fhi));
    }
    hi *= 2.0;
    fhi = probe(f, hi, "find_root_increasing");
  }
  OBS_COUNT("numerics.roots.expansions", expansions);
  return brent(f, lo, hi, tol);
}

}  // namespace speedscale::numerics
