#include "src/obs/cert/potential_tracker.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <istream>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/instance.h"
#include "src/core/kinematics.h"
#include "src/core/schedule.h"
#include "src/obs/json_min.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics_registry.h"
#include "src/opt/convex_opt.h"
#include "src/opt/opt_cache.h"
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
  ledger.c_frac = options.c_frac > 0.0 ? options.c_frac : 2.0 + 1.0 / (alpha - 1.0);
  ledger.c_int = options.c_int > 0.0 ? options.c_int : 3.0 + 1.0 / (alpha - 1.0);

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
  // change per job and no preemptions; kAuto turns the check off otherwise
  // (numerically-stepped engines emit no per-job speed events at all).
  bool profile_on = options.profile == ProfileCert::kAuto && preemptions == 0;
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

  // --- Prefix convex solves, hoisted out of pass 2 ------------------------
  // Each qualifying release k solves the prefix instance of releases 0..k —
  // a pure function of the (already fixed) release order, so the solves can
  // run ahead of the walk, sharded across options.solver_jobs threads.
  // Each solve contributes its `dual`, the grid Lagrangian dual: a lower
  // bound on the grid optimum, where FISTA's `objective` (mixed densities)
  // is a feasible point above it.  Pass 2 consumes the bounds in stream
  // order, which keeps the ledger byte-identical at any thread count.  NaN
  // marks an unsolvable prefix (ModelError): pass 2 keeps the previous
  // bound and does not count an update, exactly as the inline solve did.
  std::vector<double> prefix_lower_bound;
  if (options.opt_lb == OptLbMode::kPrefixConvex) {
    std::vector<Job> releases;  // qualifying releases, in stream order
    {
      std::map<JobId, bool> seen;
      for (const TraceEvent& ev : sorted) {
        if (ev.kind != EventKind::kJobRelease || ev.job == kNoJob || seen[ev.job]) continue;
        seen[ev.job] = true;
        const JobState& js = jobs[ev.job];
        if (js.volume > 0.0 && js.density > 0.0) {
          releases.push_back(Job{ev.job, js.r, js.volume, js.density});
        }
      }
    }
    prefix_lower_bound.assign(releases.size(), std::numeric_limits<double>::quiet_NaN());
    const auto solve_prefix = [&](std::size_t k) {
      try {
        TraceSuppressGuard suppress_virtual_solves;
        ConvexOptParams params;
        params.slots = options.opt_slots;
        params.max_iters = options.opt_max_iters;
        std::vector<Job> pre(releases.begin(),
                             releases.begin() + static_cast<std::ptrdiff_t>(k + 1));
        prefix_lower_bound[k] =
            solve_fractional_opt(Instance(std::move(pre)), alpha, params).dual;
      } catch (const ModelError&) {
        // leave NaN: unsolvable prefix keeps the previous bound
      }
    };
    const std::size_t n_solves = releases.size();
    const std::size_t workers = std::min(
        n_solves, options.solver_jobs > 1 ? static_cast<std::size_t>(options.solver_jobs)
                                          : std::size_t{1});
    if (workers > 1) {
      // Plain std::thread workers (obs cannot depend on analysis::ThreadPool)
      // over an atomic work counter.  Each worker re-installs the caller's
      // OPT solve cache so repeated prefixes memoize across certify calls.
      OptSolveCache* caller_cache = active_opt_cache();
      std::atomic<std::size_t> next{0};
      std::exception_ptr first_error;
      std::mutex error_mu;
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
          ScopedOptSolveCache cache_scope(caller_cache);
          try {
            for (std::size_t k; (k = next.fetch_add(1)) < n_solves;) solve_prefix(k);
          } catch (...) {
            // Rethrown after the join: same propagation as the serial path.
            const std::lock_guard<std::mutex> lock(error_mu);
            if (!first_error) first_error = std::current_exception();
          }
        });
      }
      for (std::thread& t : pool) t.join();
      if (first_error) std::rethrow_exception(first_error);
    } else {
      for (std::size_t k = 0; k < n_solves; ++k) solve_prefix(k);
    }
  }

  // --- Pass 2: walk the stream, maintain Phi and the OPT lower bound ------
  double phi = 0.0;
  double phi_int = 0.0;
  double alg_cum = 0.0;
  double alg_cum_int = 0.0;
  double opt_lb = 0.0;
  double min_combined = kInf;
  std::size_t prefix_idx = 0;  // next entry of prefix_lower_bound to consume
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
        } else if (options.opt_lb == OptLbMode::kPrefixConvex) {
          const double lower = prefix_lower_bound[prefix_idx++];
          if (!std::isnan(lower)) {
            lb_new = std::max(opt_lb, lower);
            ++ledger.opt_lb_updates;
          }
          // NaN: unsolvable prefix, keep the previous bound (no update)
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
    const int every = std::max(1, options.checkpoint_every);
    int since_flush = 0;
    for (const CertRecord& rec : ledger.records) {
      TRACE_EVENT(.kind = EventKind::kPhaseBoundary, .t = rec.t, .job = rec.job,
                  .value = rec.slack, .aux = rec.d_opt_lb, .label = "cert.slack");
      TRACE_EVENT(.kind = EventKind::kPhaseBoundary, .t = rec.t, .job = rec.job, .value = rec.phi,
                  .aux = rec.d_phi, .label = "cert.phi");
      // Periodic checkpoint: push every sink's buffered bytes to the OS so a
      // crashed run keeps its certificate stream (JsonlSink streams to the
      // ".tmp" sibling; flushed lines survive even without the final commit).
      if (++since_flush >= every) {
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
/// doubles serialize as the quoted strings "inf"/"-inf"/"nan".
double replay_number(const JsonValue& v, const char* what, std::size_t line) {
  if (v.is_number()) return v.number;
  if (v.is_string()) {
    if (v.string == "inf") return kInf;
    if (v.string == "-inf") return -kInf;
    if (v.string == "nan") return std::nan("");
  }
  throw ModelError("replay: line " + std::to_string(line) + ": field '" + what +
                   "' is not a number");
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
    const JsonValue* kind = v.find("kind");
    if (kind == nullptr || !kind->is_string()) {
      throw ModelError("replay: line " + std::to_string(lineno) + ": missing \"kind\"");
    }
    TraceEvent ev;
    if (!kind_from_name(kind->string, &ev.kind)) {
      throw ModelError("replay: line " + std::to_string(lineno) + ": unknown kind \"" +
                       kind->string + "\"");
    }
    ev.t = replay_number(v.at("t"), "t", lineno);
    if (const JsonValue* job = v.find("job"); job != nullptr) {
      ev.job = static_cast<JobId>(replay_number(*job, "job", lineno));
    }
    if (const JsonValue* machine = v.find("machine"); machine != nullptr) {
      ev.machine = static_cast<MachineId>(replay_number(*machine, "machine", lineno));
    }
    ev.value = replay_number(v.at("value"), "value", lineno);
    ev.aux = replay_number(v.at("aux"), "aux", lineno);
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

// --- Replay: Chrome Trace Event Format back into TraceEvents ----------------

ReplayedTrace replay_chrome_trace(const std::string& text) {
  const JsonValue doc = parse_json(text);
  const JsonValue* trace_events = doc.find("traceEvents");
  if (trace_events == nullptr || !trace_events->is_array()) {
    throw ModelError("replay: not a Chrome trace (no traceEvents array)");
  }
  // The exporter writes model seconds as microseconds (chrome_trace.h).
  constexpr double kScale = 1e-6;
  ReplayedTrace out;
  for (const JsonValue& r : trace_events->array) {
    if (!r.is_object()) continue;
    const JsonValue* ph = r.find("ph");
    const JsonValue* pid = r.find("pid");
    const JsonValue* name = r.find("name");
    if (ph == nullptr || !ph->is_string() || name == nullptr || !name->is_string()) continue;
    if (pid == nullptr || !pid->is_number() || pid->number != 1.0) continue;  // model time only
    const JsonValue* ts = r.find("ts");
    const JsonValue* args = r.find("args");
    const JsonValue* tid = r.find("tid");
    if (ts == nullptr || !ts->is_number()) continue;
    const double t = ts->number * kScale;
    const JobId tid_job =
        tid != nullptr && tid->is_number() && tid->number >= 1.0
            ? static_cast<JobId>(tid->number) - 1
            : kNoJob;
    const auto arg = [&](const char* key) -> double {
      if (args == nullptr) return 0.0;
      const JsonValue* a = args->find(key);
      return a != nullptr && a->is_number() ? a->number : 0.0;
    };
    const std::string& n = name->string;
    const char p = ph->string.empty() ? '?' : ph->string[0];
    if (n.rfind("job ", 0) == 0 && (p == 'X' || p == 'i')) {
      // A job slice ('X', known completion) or instant ('i', no completion):
      // either way its start is the release, with volume/density in args.
      TraceEvent ev{EventKind::kJobRelease, t, kNoJob, kNoMachine, arg("volume"), arg("density")};
      ev.job = static_cast<JobId>(std::strtol(n.c_str() + 4, nullptr, 10));
      out.events.push_back(ev);
    } else if (n == "complete" && p == 'i') {
      out.events.push_back(
          {EventKind::kJobComplete, t, tid_job, kNoMachine, arg("cum_energy"), arg("cum_flow")});
    } else if (n == "speed" && p == 'C') {
      // The counter series carries the speed but not the driving job/weight:
      // replayed C/NC streams certify the potential, not the speed profile.
      out.events.push_back({EventKind::kSpeedChange, t, kNoJob, kNoMachine, arg("speed"), 0.0});
    } else if (n == "preemption" && p == 'i') {
      out.events.push_back(
          {EventKind::kPreemption, t, tid_job, kNoMachine, arg("by_job"), arg("remaining")});
    } else if (n == "dispatch" && p == 'i') {
      out.events.push_back({EventKind::kDispatch, t, tid_job, kNoMachine, arg("key"), 0.0});
    } else if (p == 'i' && n.rfind("cert.", 0) != 0 && n != "trace_tool" && n != "trace_tool.end") {
      continue;  // foreign instants (lifecycle 'b'/'e' spans are skipped too)
    } else if (n == "trace_tool") {
      out.alpha = arg("value");
    }
  }
  return out;
}

}  // namespace speedscale::obs::cert
