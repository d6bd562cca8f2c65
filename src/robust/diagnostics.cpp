#include "src/robust/diagnostics.h"

namespace speedscale::robust {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNumericNonfinite:
      return "numeric_nonfinite";
    case ErrorCode::kRootNotBracketed:
      return "root_not_bracketed";
    case ErrorCode::kNoConvergence:
      return "no_convergence";
    case ErrorCode::kInvariantBreach:
      return "invariant_breach";
    case ErrorCode::kIoMalformed:
      return "io_malformed";
    case ErrorCode::kBudgetExhausted:
      return "budget_exhausted";
  }
  return "unknown";
}

const char* run_status_name(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kDegraded:
      return "degraded";
    case RunStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string Diagnostic::to_string() const {
  std::string out = "[";
  out += error_code_name(code);
  out += "] ";
  out += message;
  if (!context.empty()) {
    out += " (";
    out += context;
    out += ")";
  }
  return out;
}

}  // namespace speedscale::robust
