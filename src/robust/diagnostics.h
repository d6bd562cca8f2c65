// Typed failure taxonomy for the numeric stack.
//
// The verification machinery is most brittle exactly where the model is
// delicate (the alpha -> 1 limit, bootstrap/completion epsilons, hours-long
// adversarial searches), so failures there must be *data*, not process
// aborts.  This header defines:
//
//   * ErrorCode   — the closed taxonomy every guard reports under;
//   * Diagnostic  — one typed failure record (code + message + context);
//   * RobustError — the exception carrying a Diagnostic across layers that
//                   still use stack unwinding internally;
//   * RunStatus   — how a harness-level run ended (ok / degraded / failed).
//
// Contract: guards *throw* RobustError close to the failing operation;
// harness-level wrappers catch it and record a RunStatus plus the
// diagnostic, so one bad algorithm/instance never aborts a whole suite or
// search.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace speedscale::robust {

/// Closed error taxonomy (docs/robustness.md documents each member).
enum class ErrorCode : std::uint8_t {
  kNumericNonfinite,   ///< NaN/inf escaped a numeric kernel
  kRootNotBracketed,   ///< root finder's bracket never straddled a sign change
  kNoConvergence,      ///< iteration budget exhausted without meeting tol
  kInvariantBreach,    ///< post-run invariant checker tripped
  kIoMalformed,        ///< malformed trace/checkpoint input
  kTaskFailed,         ///< a thread-pool task threw
  kBudgetExhausted,    ///< wall-clock/evaluation budget ran out mid-search
};

/// Stable lower-case name ("numeric_nonfinite", ...); used in messages,
/// metrics suffixes, and the JSONL checkpoint/diagnostic encodings.
[[nodiscard]] const char* error_code_name(ErrorCode code);

/// One typed failure record.  `context` carries the machine-readable locus
/// ("line 17", "s=0.25 power=e^s-1", ...) separately from the prose message.
struct Diagnostic {
  ErrorCode code = ErrorCode::kNumericNonfinite;
  std::string message;
  std::string context;

  Diagnostic() = default;
  Diagnostic(ErrorCode c, std::string msg, std::string ctx = {})
      : code(c), message(std::move(msg)), context(std::move(ctx)) {}

  [[nodiscard]] std::string to_string() const;
};

/// Exception form of a Diagnostic, for layers that unwind internally.
/// what() == diagnostic().to_string().
class RobustError : public std::runtime_error {
 public:
  explicit RobustError(Diagnostic diag)
      : std::runtime_error(diag.to_string()), diag_(std::move(diag)) {}
  RobustError(ErrorCode code, std::string message, std::string context = {})
      : RobustError(Diagnostic{code, std::move(message), std::move(context)}) {}

  [[nodiscard]] const Diagnostic& diagnostic() const noexcept { return diag_; }
  [[nodiscard]] ErrorCode code() const noexcept { return diag_.code; }

 private:
  Diagnostic diag_;
};

/// How a harness-level run ended.
enum class RunStatus : std::uint8_t {
  kOk,        ///< all invariants clean
  kDegraded,  ///< succeeded after a fallback; the diagnostic names it
  kFailed,    ///< failed; no value
};

[[nodiscard]] const char* run_status_name(RunStatus status);

}  // namespace speedscale::robust
