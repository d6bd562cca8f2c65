#include "src/obs/cert/potential_tracker.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <istream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/instance.h"
#include "src/core/kinematics.h"
#include "src/core/schedule.h"
#include "src/obs/json_min.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics_registry.h"
#include "src/opt/convex_opt.h"
#include "src/opt/single_job_opt.h"
#include "src/robust/atomic_io.h"
#include "src/sim/c_machine.h"
#include "src/sim/speed_profile.h"

namespace speedscale::obs::cert {

namespace {

/// Deterministic intra-timestamp order: causes before effects.  A release at
/// time t precedes the speed change it triggers, which precedes a completion
/// at the same instant (zero-length segments on tied events).
int kind_rank(EventKind kind) {
  switch (kind) {
    case EventKind::kJobRelease:
      return 0;
    case EventKind::kSpeedChange:
      return 1;
    case EventKind::kPreemption:
      return 2;
    case EventKind::kDispatch:
      return 3;
    case EventKind::kJobComplete:
      return 4;
    case EventKind::kPhaseBoundary:
      return 5;
  }
  return 6;
}

/// Everything pass 1 learns about one job from the stream.
struct JobState {
  bool released = false;
  double r = 0.0;
  double volume = 0.0;
  double density = 0.0;
  bool completed = false;
  double tc = 0.0;
  double cost_frac = 0.0;  ///< attributed energy + fractional flow
  double cost_int = 0.0;   ///< attributed energy + integral weighted flow
  int speed_changes = 0;
  double start_t = 0.0;  ///< time of the job's first speed change
  double u0 = 0.0;       ///< driving weight at that speed change (event aux)
  double defect = 0.0;   ///< Lemma 6/7 band-sweep defect (completions)
  SpeedLaw law = SpeedLaw::kPowerGrow;  ///< matched kinematic branch
};

/// Locale-independent "%.6g" for the human summary (json_util's contract,
/// at reading precision instead of round-trip precision).
std::string fmt6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  std::string s(buf);
  for (char& c : s) {
    if (c == ',') c = '.';
  }
  return s;
}

}  // namespace

std::size_t CertificateLedger::violations() const {
  std::size_t n = 0;
  for (const CertRecord& rec : records) {
    if (rec.slack < 0.0 || rec.slack_int < 0.0) ++n;
  }
  return n;
}

std::string CertificateLedger::summary() const {
  std::size_t jobs = 0;
  for (const CertRecord& rec : records) {
    if (rec.kind == EventKind::kJobComplete) ++jobs;
  }
  std::string s;
  s += "certificates: " + std::to_string(records.size()) + " records, " +
       std::to_string(violations()) + " violation(s), " + std::to_string(jobs) +
       " completed job(s), " + std::to_string(incomplete_jobs) + " incomplete\n";
  s += "constants: alpha=" + fmt6(alpha) + "  c_frac=" + fmt6(c_frac) + "  c_int=" + fmt6(c_int) +
       "\n";
  s += "totals: ALG_frac=" + fmt6(alg_total_frac) + "  ALG_int=" + fmt6(alg_total_int) +
       "  OPT_lb=" + fmt6(opt_lb_final) + " (" + std::to_string(opt_lb_updates) + " update(s))\n";
  if (std::isfinite(min_slack_frac)) {
    s += "min slack: frac=" + fmt6(min_slack_frac) + "  int=" + fmt6(min_slack_int) + " (job " +
         std::to_string(tightest_job) + " @ t=" + fmt6(tightest_t) + ")\n";
  }
  if (rearrangement_defect >= 0.0) {
    s += "profile (Lemma 6/7): max band defect=" + fmt6(max_defect) +
         "  rearrangement distance=" + fmt6(rearrangement_defect) + "\n";
  }
  return s;
}

void append_record_json(std::string& out, const CertRecord& rec) {
  out += "{\"alg_cum\":";
  append_json_number(out, rec.alg_cum);
  out += ",\"d_alg\":";
  append_json_number(out, rec.d_alg);
  out += ",\"d_alg_int\":";
  append_json_number(out, rec.d_alg_int);
  out += ",\"d_opt_lb\":";
  append_json_number(out, rec.d_opt_lb);
  out += ",\"d_phi\":";
  append_json_number(out, rec.d_phi);
  out += ",\"d_phi_int\":";
  append_json_number(out, rec.d_phi_int);
  out += ",\"defect\":";
  append_json_number(out, rec.defect);
  out += ",\"event\":\"";
  out += event_kind_name(rec.kind);
  out += "\",\"job\":";
  out += std::to_string(rec.job);
  out += ",\"opt_lb_cum\":";
  append_json_number(out, rec.opt_lb_cum);
  out += ",\"phi\":";
  append_json_number(out, rec.phi);
  out += ",\"slack\":";
  append_json_number(out, rec.slack);
  out += ",\"slack_int\":";
  append_json_number(out, rec.slack_int);
  out += ",\"t\":";
  append_json_number(out, rec.t);
  out += ",\"tightest_job\":";
  out += std::to_string(rec.tightest_job);
  out += '}';
}

std::string certificates_jsonl(const CertificateLedger& ledger) {
  std::string out;
  out.reserve(ledger.records.size() * 220 + 512);
  for (const CertRecord& rec : ledger.records) {
    append_record_json(out, rec);
    out += '\n';
  }
  out += "{\"alg_total_frac\":";
  append_json_number(out, ledger.alg_total_frac);
  out += ",\"alg_total_int\":";
  append_json_number(out, ledger.alg_total_int);
  out += ",\"alpha\":";
  append_json_number(out, ledger.alpha);
  out += ",\"c_frac\":";
  append_json_number(out, ledger.c_frac);
  out += ",\"c_int\":";
  append_json_number(out, ledger.c_int);
  out += ",\"incomplete_jobs\":";
  out += std::to_string(ledger.incomplete_jobs);
  out += ",\"kind\":\"cert_summary\",\"max_defect\":";
  append_json_number(out, ledger.max_defect);
  out += ",\"min_slack_frac\":";
  append_json_number(out, ledger.min_slack_frac);
  out += ",\"min_slack_int\":";
  append_json_number(out, ledger.min_slack_int);
  out += ",\"opt_lb_final\":";
  append_json_number(out, ledger.opt_lb_final);
  out += ",\"opt_lb_updates\":";
  out += std::to_string(ledger.opt_lb_updates);
  out += ",\"rearrangement_defect\":";
  append_json_number(out, ledger.rearrangement_defect);
  out += ",\"records\":";
  out += std::to_string(ledger.records.size());
  out += ",\"tightest_job\":";
  out += std::to_string(ledger.tightest_job);
  out += ",\"tightest_t\":";
  append_json_number(out, ledger.tightest_t);
  out += ",\"violations\":";
  out += std::to_string(ledger.violations());
  out += "}\n";
  return out;
}

void write_certificates_jsonl_file(const std::string& path, const CertificateLedger& ledger) {
  robust::atomic_write_file(path, [&](std::ostream& os) { os << certificates_jsonl(ledger); });
}

CertificateLedger certify_events(const std::vector<TraceEvent>& events, double alpha,
                                 const CertOptions& options) {
  if (!(alpha > 1.0)) throw ModelError("certify_events: alpha must be > 1");

  CertificateLedger ledger;
  ledger.alpha = alpha;
  ledger.c_frac = 2.0 + 1.0 / (alpha - 1.0);
  ledger.c_int = 3.0 + 1.0 / (alpha - 1.0);
  // Checked before the sort: a NaN time breaks its ordering.
  for (const TraceEvent& ev : events) {
    const bool costed = ev.kind == EventKind::kJobRelease || ev.kind == EventKind::kJobComplete;
    if (!std::isfinite(ev.t) || (costed && !(std::isfinite(ev.value) && std::isfinite(ev.aux)))) {
      throw ModelError(std::string("certify_events: non-finite ") +
                       (std::isfinite(ev.t) ? "payload" : "time") + " on a " +
                       event_kind_name(ev.kind) + " event of job " + std::to_string(ev.job));
    }
    // A release carries the job's volume and density; Instance rejects
    // either at or below zero, and so does the ledger.
    if (ev.kind == EventKind::kJobRelease && !(ev.value > 0.0 && ev.aux > 0.0)) {
      throw ModelError(std::string("certify_events: non-positive ") +
                       (ev.value > 0.0 ? "density (aux)" : "volume (value)") +
                       " on the release of job " + std::to_string(ev.job));
    }
  }

  std::vector<TraceEvent> sorted = events;
  std::stable_sort(sorted.begin(), sorted.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.t != b.t) return a.t < b.t;
    return kind_rank(a.kind) < kind_rank(b.kind);
  });

  // --- Pass 1: per-job state (releases, attributed costs, speed windows) ---
  std::map<JobId, JobState> jobs;
  // Cumulative (energy, flow) at the last completion, per machine stream:
  // completion payloads are cumulative, so per-job costs are the deltas.
  std::map<MachineId, std::pair<double, double>> cum;
  std::size_t preemptions = 0;
  for (const TraceEvent& ev : sorted) {
    switch (ev.kind) {
      case EventKind::kJobRelease: {
        if (ev.job == kNoJob) break;
        JobState& js = jobs[ev.job];
        if (js.released) break;  // first release wins
        js.released = true;
        js.r = ev.t;
        js.volume = ev.value;
        js.density = ev.aux;
        break;
      }
      case EventKind::kSpeedChange: {
        if (ev.job == kNoJob) break;
        JobState& js = jobs[ev.job];
        if (js.speed_changes++ == 0) {
          js.start_t = ev.t;
          js.u0 = ev.aux;
        }
        break;
      }
      case EventKind::kPreemption:
        ++preemptions;
        break;
      case EventKind::kJobComplete: {
        if (ev.job == kNoJob) break;
        JobState& js = jobs[ev.job];
        if (js.completed) break;
        js.completed = true;
        js.tc = ev.t;
        auto& [cum_energy, cum_flow] = cum[ev.machine];
        const double e_j = ev.value - cum_energy;
        const double f_j = ev.aux - cum_flow;
        cum_energy = ev.value;
        cum_flow = ev.aux;
        js.cost_frac = e_j + f_j;
        js.cost_int = js.released
                          ? e_j + js.density * js.volume * (js.tc - js.r)
                          : js.cost_frac;  // no release seen: weight unknown
        break;
      }
      case EventKind::kDispatch:
      case EventKind::kPhaseBoundary:
        break;
    }
  }

  // --- Lemma 6/7 band-sweep certificate, per completed job ----------------
  // Each completed job's processing window [start, tc] must sweep its weight
  // band in exactly the closed-form time: the growing branch for NC streams
  // (U: u0 -> u0 + W_j), the decaying branch for single-segment C streams
  // (W: u0 -> u0 - W_j).  Requires an unambiguous window — exactly one speed
  // change per job and no preemptions; the check is off otherwise
  // (numerically-stepped engines emit no per-job speed events at all).
  bool profile_on = preemptions == 0;
  std::size_t completed = 0;
  for (const auto& [id, js] : jobs) {
    if (!js.completed) continue;
    ++completed;
    if (!js.released || js.speed_changes != 1) profile_on = false;
  }
  if (profile_on && completed > 0) {
    const PowerLawKinematics kin(alpha);
    for (auto& [id, js] : jobs) {
      if (!js.completed) continue;
      const double w = js.density * js.volume;
      const double dt = js.tc - js.start_t;
      double best = kInf;
      if (js.density > 0.0 && w > 0.0) {
        const double t_grow = kin.grow_time_to_weight(js.u0, js.u0 + w, js.density);
        if (std::abs(dt - t_grow) < best) {
          best = std::abs(dt - t_grow);
          js.law = SpeedLaw::kPowerGrow;
        }
        if (js.u0 >= w) {
          const double t_decay = kin.decay_time_to_weight(js.u0, js.u0 - w, js.density);
          if (std::abs(dt - t_decay) < best) {
            best = std::abs(dt - t_decay);
            js.law = SpeedLaw::kPowerDecay;
          }
        }
      }
      js.defect = std::isfinite(best) ? best / std::max(dt, 1e-300) : kInf;
      ledger.max_defect = std::max(ledger.max_defect, js.defect);
    }
  }

  // --- Pass 2: walk the stream, maintain Phi and the OPT lower bound ------
  double phi = 0.0;
  double phi_int = 0.0;
  double alg_cum = 0.0;
  double alg_cum_int = 0.0;
  double opt_lb = 0.0;
  double min_combined = kInf;
  std::vector<Job> prefix;  // qualifying releases so far (kPrefixConvex)
  std::map<JobId, bool> seen_release, seen_complete;

  for (const TraceEvent& ev : sorted) {
    if (ev.kind == EventKind::kDispatch || ev.kind == EventKind::kPhaseBoundary) continue;
    CertRecord rec;
    rec.t = ev.t;
    rec.kind = ev.kind;
    rec.job = ev.job;

    if (ev.kind == EventKind::kJobRelease && ev.job != kNoJob && !seen_release[ev.job]) {
      seen_release[ev.job] = true;
      const JobState& js = jobs[ev.job];
      // Online lower bound: OPT of the prefix instance released so far is a
      // lower bound on OPT of the full instance (dropping jobs never raises
      // OPT); monotone clamping absorbs discretization wobble.
      if (js.volume > 0.0 && js.density > 0.0) {
        double lb_new = opt_lb;
        if (options.opt_lb == OptLbMode::kSingleJob) {
          lb_new = opt_lb + single_job_frac_opt(js.volume, js.density, alpha).objective;
          ++ledger.opt_lb_updates;
        } else {
          // The solve's `dual` is the grid Lagrangian dual, a lower bound on
          // the grid optimum; on mixed densities FISTA's `objective` is a
          // feasible point above it.  The thread's installed OPT cache, if
          // any, serves repeated prefixes.
          prefix.push_back(Job{ev.job, js.r, js.volume, js.density});
          try {
            TraceSuppressGuard suppress_virtual_solves;
            const ConvexOptParams params{.slots = options.opt_slots, .max_iters = kCertOptMaxIters};
            lb_new = std::max(opt_lb, solve_fractional_opt(Instance(prefix), alpha, params).dual);
            ++ledger.opt_lb_updates;
          } catch (const ModelError&) {
            // unsolvable prefix: keep the previous bound (no update)
          }
        }
        rec.d_opt_lb = lb_new - opt_lb;
        opt_lb = lb_new;
      }
      // The potential commits the job's whole attributed cost at its release
      // (unknowable costs of never-completed jobs stay out of the ledger).
      if (js.completed) {
        rec.d_phi = js.cost_frac;
        rec.d_phi_int = js.cost_int;
      } else {
        ++ledger.incomplete_jobs;
      }
    } else if (ev.kind == EventKind::kJobComplete && ev.job != kNoJob && !seen_complete[ev.job]) {
      seen_complete[ev.job] = true;
      const JobState& js = jobs[ev.job];
      // The committed cost lands: dALG = -dPhi exactly, the certificate
      // state ALG + Phi is unchanged.
      rec.d_alg = js.cost_frac;
      rec.d_phi = -js.cost_frac;
      rec.d_alg_int = js.cost_int;
      rec.d_phi_int = -js.cost_int;
      rec.defect = js.defect;
    }
    // Speed changes and preemptions move neither ALG nor Phi (costs accrue
    // continuously between events and cancel inside the potential); their
    // records exist to anchor the timeline at every simulator event.

    phi += rec.d_phi;
    phi_int += rec.d_phi_int;
    alg_cum += rec.d_alg;
    alg_cum_int += rec.d_alg_int;
    rec.phi = phi;
    rec.alg_cum = alg_cum;
    rec.opt_lb_cum = opt_lb;
    // The certificate proper: the local inequality dALG + dPhi <= c * dOPT
    // integrated from 0 to this event.  ALG(t) + Phi(t) is the committed
    // cost of everything released so far, so non-negative slack at every
    // event means the run was provably within budget at every instant —
    // however the per-release marginals (d_* above) distribute.
    rec.slack = ledger.c_frac * opt_lb - (alg_cum + phi);
    rec.slack_int = ledger.c_int * opt_lb - (alg_cum_int + phi_int);
    // The tightest certificate: the minimum slack over *release* records —
    // the only events that move the certificate state (completions land
    // committed costs without changing ALG + Phi, so their slack simply
    // carries the previous release's value forward).
    if (rec.kind == EventKind::kJobRelease) {
      const double combined = std::min(rec.slack, rec.slack_int);
      if (combined < min_combined) {
        min_combined = combined;
        ledger.tightest_job = rec.job;
        ledger.tightest_t = rec.t;
      }
      ledger.min_slack_frac = std::min(ledger.min_slack_frac, rec.slack);
      ledger.min_slack_int = std::min(ledger.min_slack_int, rec.slack_int);
    }
    rec.tightest_job = ledger.tightest_job;
    ledger.records.push_back(rec);
  }

  ledger.alg_total_frac = alg_cum;
  ledger.alg_total_int = alg_cum_int;
  ledger.opt_lb_final = opt_lb;

  // --- Whole-run Lemma 6/7: rearrangement distance vs a virtual C run -----
  // Reconstruct the run's speed profile from the matched per-job windows and
  // compare its level-set measures against Algorithm C on the same instance.
  if (profile_on && completed > 0 && ledger.incomplete_jobs == 0) {
    try {
      std::vector<Job> all;
      all.reserve(jobs.size());
      for (const auto& [id, js] : jobs) all.push_back(Job{id, js.r, js.volume, js.density});
      const Instance instance(all);
      std::vector<const JobState*> order;
      order.reserve(jobs.size());
      for (const auto& [id, js] : jobs) order.push_back(&js);
      std::sort(order.begin(), order.end(),
                [](const JobState* a, const JobState* b) { return a->start_t < b->start_t; });
      Schedule recon(alpha);
      for (std::size_t i = 0; i < order.size(); ++i) {
        const JobState& js = *order[i];
        recon.append({js.start_t, js.tc, kNoJob, js.law, js.u0, js.density});
      }
      TraceSuppressGuard suppress_virtual_run;
      const Schedule c = run_algorithm_c(instance, alpha);
      ledger.rearrangement_defect = rearrangement_distance(recon, c);
    } catch (const ModelError&) {
      ledger.rearrangement_defect = -1.0;  // overlapping/odd windows: no cert
    }
  }

  // --- Emission: counters, gauges, and optional trace re-emission ---------
  OBS_COUNT("obs.cert.records", static_cast<std::int64_t>(ledger.records.size()));
  OBS_COUNT("obs.cert.violations", static_cast<std::int64_t>(ledger.violations()));
  OBS_COUNT("obs.cert.opt_lb_updates", static_cast<std::int64_t>(ledger.opt_lb_updates));
  if (metrics_enabled()) {
    registry().gauge("obs.cert.min_slack_frac").set(ledger.min_slack_frac);
    registry().gauge("obs.cert.min_slack_int").set(ledger.min_slack_int);
    registry().gauge("obs.cert.max_defect").set(ledger.max_defect);
  }
  if (options.emit_trace_events && tracing_enabled()) {
    int since_flush = 0;
    for (const CertRecord& rec : ledger.records) {
      TRACE_EVENT(.kind = EventKind::kPhaseBoundary, .t = rec.t, .job = rec.job,
                  .value = rec.slack, .aux = rec.d_opt_lb, .label = "cert.slack");
      TRACE_EVENT(.kind = EventKind::kPhaseBoundary, .t = rec.t, .job = rec.job, .value = rec.phi,
                  .aux = rec.d_phi, .label = "cert.phi");
      // Periodic checkpoint: push every sink's buffered bytes to the OS so a
      // crashed run keeps its certificate stream (JsonlSink streams to the
      // ".tmp" sibling; flushed lines survive even without the final commit).
      if (++since_flush >= kCertCheckpointEvery) {
        Tracer::instance().flush();
        since_flush = 0;
      }
    }
    Tracer::instance().flush();
  }
  return ledger;
}

// --- Replay: JSONL events back into TraceEvents -----------------------------

namespace {

/// Payload numbers round-trip through json_util's convention: non-finite
/// doubles serialize as the quoted strings "inf"/"-inf"/"nan".  `v` is
/// null when the field is missing.
double replay_number(const JsonValue* v, const char* what, std::size_t line) {
  if (v != nullptr && v->is_number()) return v->number;
  if (v != nullptr && v->is_string()) {
    if (v->string == "inf") return kInf;
    if (v->string == "-inf") return -kInf;
    if (v->string == "nan") return std::nan("");
  }
  throw ModelError("replay: line " + std::to_string(line) + ": field '" + what +
                   "' is missing or not a number");
}

/// "job" and "machine" are ids: an integer in [-1, 2^31 - 1], -1 for none.
std::int32_t replay_id(const JsonValue* v, const char* what, std::size_t line) {
  const double x = replay_number(v, what, line);
  if (!(x >= -1.0 && x <= 2147483647.0 && x == std::floor(x))) {
    throw ModelError("replay: line " + std::to_string(line) + ": field '" + what +
                     "' is not an integer in [-1, 2^31 - 1]");
  }
  return static_cast<std::int32_t>(x);
}

bool kind_from_name(const std::string& name, EventKind* out) {
  for (int k = 0; k < 6; ++k) {
    const auto kind = static_cast<EventKind>(k);
    if (name == event_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace

ReplayedTrace replay_jsonl_trace(std::istream& is) {
  ReplayedTrace out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = parse_json(line);
    } catch (const ModelError& e) {
      throw ModelError("replay: line " + std::to_string(lineno) + ": " + e.what());
    }
    if (!v.is_object()) {
      throw ModelError("replay: line " + std::to_string(lineno) + ": not a JSON object");
    }
    if (v.find("traceEvents") != nullptr) {
      throw ModelError("replay: line " + std::to_string(lineno) +
                       ": a Chrome trace export, which is write-only; certify the JSONL "
                       "event trace that --trace records");
    }
    const JsonValue* kind = v.find("kind");
    if (kind == nullptr || !kind->is_string()) {
      throw ModelError("replay: line " + std::to_string(lineno) + ": missing \"kind\"");
    }
    TraceEvent ev;
    if (!kind_from_name(kind->string, &ev.kind)) {
      throw ModelError("replay: line " + std::to_string(lineno) + ": unknown kind \"" +
                       kind->string + "\"");
    }
    ev.t = replay_number(v.find("t"), "t", lineno);
    if (const JsonValue* job = v.find("job"); job != nullptr) {
      ev.job = replay_id(job, "job", lineno);
    }
    if (const JsonValue* machine = v.find("machine"); machine != nullptr) {
      ev.machine = replay_id(machine, "machine", lineno);
    }
    ev.value = replay_number(v.find("value"), "value", lineno);
    ev.aux = replay_number(v.find("aux"), "aux", lineno);
    // Labels are static-storage pointers in live events; a replayed stream
    // has none.  The "trace_tool" meta event's payload survives side-band.
    if (const JsonValue* label = v.find("label");
        label != nullptr && label->is_string() && label->string == "trace_tool") {
      out.alpha = ev.value;
    }
    out.events.push_back(ev);
  }
  return out;
}

}  // namespace speedscale::obs::cert
