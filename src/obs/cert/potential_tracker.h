// Online competitiveness certificates: a potential-function ledger over a
// run's event stream, plus the Lemma 6/7 speed-profile invariant.
//
// The paper's guarantees (Theorems 5 and 9) are proved by amortized local
// competitiveness: at every instant,
//
//     dALG/dt + dPhi/dt  <=  c * dOPT/dt
//
// for an explicit potential Phi.  The end-to-end ratio harness only sees the
// final ratio, so a near-tight (or violated) instant is invisible until the
// run ends.  This module turns the inequality into a per-event *certificate
// stream*: one record per release/completion/preemption with the cost
// increments, the potential move, an online OPT lower bound, and the slack —
// the local inequality integrated from time 0 to the event,
//
//     slack(t) = c * OPT_lb(t) - ALG(t) - Phi(t),
//
// so non-negative slack at every event certifies the run was within its
// competitive budget at every instant, not just at the end.
//
// The potential is the *committed-cost* form of the Theorem 5/9 amortization:
//
//     Phi(t) = sum_{j : r_j <= t} cost_j  -  ALG(t),
//
// where cost_j is job j's attributed cost in the recorded run — recoverable
// from the event stream alone, because every job_complete event carries the
// run's cumulative energy (value) and cumulative flow (aux), so cost_j is the
// delta at j's completion.  ALG(t) + Phi(t) then telescopes exactly: it is
// piecewise constant and jumps only at releases, by the released job's
// committed cost.  Between events dALG + dPhi == 0, so the slack is constant
// there; a release raises the committed side by the job's cost and the
// budget side by c times the OPT lower bound's marginal increase (both
// visible in the record's d_* columns); a completion lands the committed
// cost (dALG = -dPhi) without moving the slack.  At the final release the
// slack is exactly c * OPT_lb - ALG_total: the end-to-end Theorem 5/9 margin.
//
// The OPT lower bound is online and monotone: at each release the prefix
// instance I(t) (everything released so far, volumes as revealed by the
// recorded completions) is itself a valid instance, and removing jobs never
// increases OPT, so OPT(I(t)) <= OPT(I).  Modes: the discretized convex
// program (src/opt/convex_opt.h, the strong bound used by the tests and CI)
// or the closed-form per-job sum of single-job optima (cheap, much weaker —
// deep queues certify negative; used by the pinned bench for determinism).
//
// The second certificate is the Lemma 6/7 measure-preservation invariant:
// each completed job's recorded processing window must sweep its weight band
// [u0, u0 + W_j] in exactly the time the power-law kinematics dictate
// (grow branch for NC, decay branch for C — the same closed form, which is
// the lemma's local content).  `defect` is the relative gap, ~1e-15 on the
// exact simulators; the whole-run rearrangement distance against a virtual
// Algorithm C run rides in the ledger summary.
//
// A negative slack does NOT disprove the theorem: the bound compares against
// a *lower bound* on OPT and charges each job's whole committed cost at its
// release — before the budget for its yet-unreleased competitors exists.  It
// flags the exact event, job, and residual state where the run is tightest —
// which is the point: when a future change breaks a scheduler, the first
// violated certificate pinpoints it (see worst_case.h, which reports the K
// tightest certificates of its adversarial instances).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/obs/trace.h"

namespace speedscale::obs::cert {

/// How the online OPT lower bound is computed at each release.
enum class OptLbMode {
  kNone,          ///< no bound (dOPT_lb = 0; slack is -committed cost)
  kSingleJob,     ///< sum of closed-form single-job optima (cheap, weak)
  kPrefixConvex,  ///< grid dual of the convex OPT on the released prefix (strong)
};

/// Whether the Lemma 6/7 band-sweep defect is computed per completion.
enum class ProfileCert {
  kAuto,  ///< on when the stream has one processing window per job
  kOff,
};

struct CertOptions {
  /// Competitive constants; 0 = the paper's values, 2 + 1/(alpha-1)
  /// (fractional, Theorem 5) and 3 + 1/(alpha-1) (integral, Theorem 9).
  double c_frac = 0.0;
  double c_int = 0.0;
  OptLbMode opt_lb = OptLbMode::kPrefixConvex;
  int opt_slots = 240;       ///< discretization of the prefix convex solves
  int opt_max_iters = 2000;  ///< FISTA iteration cap per prefix solve
  /// Worker threads for the kPrefixConvex solves.  Each release's prefix
  /// solve is a pure function of the release order, so the solves run in a
  /// pre-pass sharded across this many threads; the ledger (records, slack,
  /// opt_lb_updates) is byte-identical at any value.  Workers re-install the
  /// caller's active OPT solve cache (src/opt/opt_cache.h), if any.
  int solver_jobs = 1;
  ProfileCert profile = ProfileCert::kAuto;
  /// When emitting through the Tracer (emit_trace_events), flush all sinks
  /// every this many records so a crashed run keeps its certificate stream
  /// up to the last checkpoint (JsonlSink::flush makes the ".tmp" durable).
  int checkpoint_every = 16;
  /// Re-emit each record as a phase_boundary trace event labelled
  /// "cert.slack" (value = slack, aux = d_opt_lb) plus "cert.phi"
  /// (value = phi, aux = d_phi): the Chrome exporter renders "cert.*"
  /// labels as counter tracks next to the speed series.
  bool emit_trace_events = false;
};

/// One per-event certificate.  The `d_*` columns are this event's marginal
/// moves; `slack` is the cumulative certificate c * OPT_lb(t) - ALG(t) -
/// Phi(t) after the event.  Unsuffixed fields are the fractional-objective
/// ledger (Theorem 5); `*_int` the integral one (Theorem 9; same dOPT_lb —
/// fractional OPT lower-bounds integral OPT).
struct CertRecord {
  double t = 0.0;
  EventKind kind = EventKind::kPhaseBoundary;
  JobId job = kNoJob;
  double d_alg = 0.0;
  double d_phi = 0.0;
  double d_opt_lb = 0.0;
  double slack = 0.0;
  double d_alg_int = 0.0;
  double d_phi_int = 0.0;
  double slack_int = 0.0;
  double phi = 0.0;         ///< Phi after the event (fractional)
  double alg_cum = 0.0;     ///< cumulative attributed ALG cost (fractional)
  double opt_lb_cum = 0.0;  ///< online OPT lower bound so far
  JobId tightest_job = kNoJob;  ///< job at the minimum-slack record so far
  double defect = 0.0;          ///< Lemma 6/7 relative band-sweep defect
};

/// The finished ledger: every record plus run-level summary state.
struct CertificateLedger {
  double alpha = 2.0;
  double c_frac = 0.0;
  double c_int = 0.0;
  std::vector<CertRecord> records;

  double alg_total_frac = 0.0;
  double alg_total_int = 0.0;
  double opt_lb_final = 0.0;
  double min_slack_frac = kInf;
  double min_slack_int = kInf;
  double tightest_t = 0.0;
  JobId tightest_job = kNoJob;
  double max_defect = 0.0;
  /// Whole-run Lemma 6/7 rearrangement distance of the reconstructed
  /// profile against a virtual Algorithm C run; negative when unavailable
  /// (profile certificate off, or the stream had incomplete jobs).
  double rearrangement_defect = -1.0;
  std::size_t opt_lb_updates = 0;   ///< lower-bound recomputations (releases)
  std::size_t incomplete_jobs = 0;  ///< released but never completed

  /// Records with negative fractional or integral slack.
  [[nodiscard]] std::size_t violations() const;
  /// Human-readable multi-line summary (deterministic, "%.17g"-free).
  [[nodiscard]] std::string summary() const;
};

/// Canonical single-line JSON of one record (sorted keys, locale-independent
/// "%.17g" doubles — equal records serialize byte-identically everywhere).
void append_record_json(std::string& out, const CertRecord& rec);

/// The whole ledger as JSONL: one record per line, then one trailing
/// {"kind":"cert_summary",...} line with the run-level totals.
[[nodiscard]] std::string certificates_jsonl(const CertificateLedger& ledger);

/// Crash-safe file variant (tmp + atomic rename) of certificates_jsonl.
void write_certificates_jsonl_file(const std::string& path, const CertificateLedger& ledger);

/// Builds the certificate ledger from a recorded event stream.  The stream
/// is the contract every simulator already meets: job_release events carry
/// (volume, density), job_complete events carry cumulative (energy, flow).
/// Events need not be globally time-sorted (simulators interleave kinds);
/// they are stably ordered internally.  Pure function of its inputs.
[[nodiscard]] CertificateLedger certify_events(const std::vector<TraceEvent>& events,
                                               double alpha, const CertOptions& options = {});

/// Replayed trace: events plus the run configuration recovered from the
/// leading "trace_tool" meta event, when present (alpha = 0 when absent).
/// Replayed events carry no labels (labels are pointers to static storage).
struct ReplayedTrace {
  std::vector<TraceEvent> events;
  double alpha = 0.0;
};

/// Parses a JSONL event trace (trace_tool --trace) back into events.
/// Throws ModelError with a line number on malformed input.
[[nodiscard]] ReplayedTrace replay_jsonl_trace(std::istream& is);

/// Parses a Chrome Trace Event Format document (trace_tool --chrome) back
/// into the model-time events it encodes (pid 1; profiler slices ignored).
/// Throws ModelError on malformed JSON or a missing traceEvents array.
[[nodiscard]] ReplayedTrace replay_chrome_trace(const std::string& text);

}  // namespace speedscale::obs::cert
