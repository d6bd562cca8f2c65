// Post-run invariant checker: corrupted numerics are caught at the run
// boundary, not three layers downstream.
//
// Structural checks (every run, every power function):
//   * band times and weights finite, weights >= 0, densities > 0, and each
//     band ending no earlier than it starts and no later than the next
//     one starts;
//   * objectives (energy, fractional/integral flow) finite and >= 0;
//   * every job completed at or after its release.
//
// Identity checks (the paper's lemmas, used as numeric tripwires):
//   * Algorithm C: cumulative energy == cumulative fractional flow (the
//     P(s) = W rule makes both equal int W dt; any power function);
//   * Lemma 3: Algorithm NC's energy equals Algorithm C's on the same
//     instance (any power function) — supplied via `reference_c`;
//   * Lemma 4 (P = s^alpha only): fractional flow == energy / (1 - 1/alpha).
//
// A tripped check is a Diagnostic (ErrorCode::kInvariantBreach or
// kNumericNonfinite), never an abort.  The generic engine runs it once per
// run and throws the first breach; nothing is retried, since its
// quadrature meets its tolerance or throws.
#pragma once

#include <optional>
#include <vector>

#include "src/core/instance.h"
#include "src/robust/diagnostics.h"
#include "src/sim/numeric_engine.h"

namespace speedscale::robust {

/// Which identity profile applies to the run under check.
enum class RunKind : std::uint8_t {
  kAlgorithmC,   ///< P = W rule: energy == fractional flow
  kAlgorithmNC,  ///< P = U rule: Lemma 3 vs reference, Lemma 4 if alpha given
};

struct InvariantOptions {
  RunKind kind = RunKind::kAlgorithmC;
  /// Relative tolerance of the identity residuals.  The generic engine's
  /// quadrature leaves ~1e-15 residuals at P = s^alpha, and its completion
  /// and bootstrap epsilons (P'(0) > 0 only) ~1e-10; a NaN or a skipped
  /// event blows far past it.
  double identity_tol = 1e-6;
  /// Set when the power function is P(s) = s^alpha: enables Lemma 4.
  std::optional<double> alpha;
  /// Algorithm C run on the same instance: enables the Lemma 3 check.
  const SampledRun* reference_c = nullptr;
};

/// The breach list (empty == clean).
struct InvariantReport {
  std::vector<Diagnostic> breaches;

  [[nodiscard]] bool ok() const { return breaches.empty(); }
  /// One line per breach, for error messages and logs.
  [[nodiscard]] std::string to_string() const;
};

/// Runs every applicable check on a generic-engine run.  Guard trips
/// are counted under "robust.invariants.*" when metrics are enabled.
[[nodiscard]] InvariantReport check_sampled_run(const Instance& instance, const SampledRun& run,
                                                const InvariantOptions& options = {});

}  // namespace speedscale::robust
