// trace_tool: run any of the library's schedulers on a CSV job trace, or
// replay a recorded trace into a competitiveness-certificate report.
//
// Usage:
//   trace_tool <trace.csv> [--algo nc|c|nc-nonuniform|fixed|naive|doubling]
//              [--alpha A] [--speed S] [--out schedule.csv]
//              [--profile profile.csv] [--jobs jobs.csv]
//              [--trace events.jsonl] [--obs report.json]
//              [--chrome chrome.json] [--cert-out certs.jsonl]
//              [--fail-on-violation] [--lenient] [--help]
//   trace_tool --certify recorded.jsonl [--cert-out certs.jsonl]
//              [--alpha A] [--fail-on-violation]
//
// Trace format (header required):  id,release,volume,density
// Reads are strict by default: a malformed line is a typed, line-numbered
// error.  --lenient skips-and-counts bad lines instead (reported on stdout).
// With --out, writes the resulting piecewise schedule as CSV:
//   t0,t1,job,speed_law,param,rho
// With --trace, records the run's structured event stream as JSONL (one JSON
// object per line; scripts/plot_profiles.py can plot it directly) and prints
// a per-kind summary.  With --obs, writes the metrics-registry snapshot and
// profiler breakdown as one JSON report.  With --chrome, exports the event
// stream (plus profiler aggregates, if any) in the Chrome Trace Event Format
// for https://ui.perfetto.dev or chrome://tracing.
//
// Certificates (src/obs/cert/, docs/observability.md): --certify FILE
// replays a recorded JSONL event trace (from --trace; Chrome exports are
// write-only) through the potential-function ledger and prints the
// certificate summary, running no scheduler; --cert-out on a live run
// certifies the run's own event stream and writes the per-event certificate
// JSONL (scripts/plot_certificates.py plots it).  --fail-on-violation exits with
// code 3 when any certificate has negative slack.
// Run with no arguments to see a demo on a generated trace; --help for the
// full flag reference (docs/observability.md has the long-form version).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_nonuniform.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/baselines.h"
#include "src/analysis/export.h"
#include "src/obs/cert/potential_tracker.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/perf/chrome_trace.h"
#include "src/obs/profiler.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "src/robust/diagnostics.h"
#include "src/workload/generators.h"
#include "src/workload/trace_io.h"

using namespace speedscale;

namespace {

const char* law_name(SpeedLaw law) {
  switch (law) {
    case SpeedLaw::kIdle:
      return "idle";
    case SpeedLaw::kConstant:
      return "constant";
    case SpeedLaw::kPowerDecay:
      return "power-decay";
    case SpeedLaw::kPowerGrow:
      return "power-grow";
  }
  return "?";
}

void write_schedule_csv(const std::string& path, const Schedule& sched) {
  std::ofstream f(path);
  if (!f) throw ModelError("cannot open " + path);
  f << "t0,t1,job,speed_law,param,rho\n";
  for (const Segment& s : sched.segments()) {
    f << s.t0 << ',' << s.t1 << ',' << s.job << ',' << law_name(s.law) << ',' << s.param << ','
      << s.rho << '\n';
  }
}

void print_flags(std::FILE* to) {
  std::fprintf(
      to,
      "usage: trace_tool [trace.csv] [flags]\n"
      "\n"
      "  trace.csv            input job trace (header: id,release,volume,density);\n"
      "                       omitted: demo on a generated 12-job trace\n"
      "  --algo NAME          scheduler: nc (default) | c | nc-nonuniform | fixed |\n"
      "                       naive | doubling\n"
      "  --alpha A            power exponent P = s^A (default 2)\n"
      "  --speed S            speed for --algo fixed (default 1)\n"
      "  --lenient            skip-and-count malformed trace lines instead of failing\n"
      "  --out FILE           write the schedule as CSV (t0,t1,job,speed_law,param,rho)\n"
      "  --profile FILE       write the piecewise speed profile as CSV\n"
      "  --jobs FILE          write the per-job summary (completion, flow) as CSV\n"
      "  --trace FILE         record the structured event stream as JSONL and print\n"
      "                       a per-kind summary\n"
      "  --obs FILE           write the metrics + profiler report as JSON\n"
      "  --chrome FILE        export the event stream as a Chrome Trace Event Format\n"
      "                       JSON for ui.perfetto.dev / chrome://tracing\n"
      "  --certify FILE       replay a JSONL trace recorded with --trace into a\n"
      "                       certificate report; runs no scheduler (Chrome exports\n"
      "                       are write-only)\n"
      "  --cert-out FILE      write the per-event certificate JSONL; on a live run\n"
      "                       this certifies the run's own event stream\n"
      "  --fail-on-violation  exit with code 3 if any certificate has negative slack\n"
      "  --help, -h           this message\n"
      "\n"
      "exit codes: 0 ok, 1 error, 2 usage, 3 certificate violation.\n"
      "docs/observability.md documents the flags and artifact formats in full.\n");
}

int usage(const char* complaint = nullptr, const char* flag = nullptr) {
  if (complaint != nullptr) {
    std::fprintf(stderr, "trace_tool: %s%s%s\n\n", complaint, flag != nullptr ? ": " : "",
                 flag != nullptr ? flag : "");
  }
  print_flags(stderr);
  return 2;
}

/// Parses the whole of `text` as one finite number, locale-independently
/// (std::from_chars, like the trace scanner).  Rejects trailing characters
/// ("2x"), an empty value, and anything that overflows or is not finite.
bool parse_finite(const std::string& text, double& out) {
  const char* const last = text.data() + text.size();
  double v = 0.0;
  const auto [p, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc() || p != last || !std::isfinite(v)) return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path, algo = "nc", out_path, profile_path, jobs_path;
  std::string events_path, obs_path, chrome_path, certify_path, cert_out;
  double alpha = 2.0, speed = 1.0;
  bool lenient = false, fail_on_violation = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_arg = i + 1 < argc;
    if (arg == "--help" || arg == "-h") {
      print_flags(stdout);
      return 0;
    } else if (arg == "--lenient") {
      lenient = true;
    } else if (arg == "--fail-on-violation") {
      fail_on_violation = true;
    } else if (arg == "--algo" || arg == "--alpha" || arg == "--speed" || arg == "--out" ||
               arg == "--profile" || arg == "--jobs" || arg == "--trace" || arg == "--obs" ||
               arg == "--chrome" || arg == "--certify" || arg == "--cert-out") {
      if (!has_arg) return usage("flag requires an argument", arg.c_str());
      const std::string val = argv[++i];
      if (arg == "--algo") {
        algo = val;
      } else if (arg == "--alpha") {
        if (!parse_finite(val, alpha) || !(alpha > 1.0)) {
          return usage("--alpha takes a finite number > 1", val.c_str());
        }
      } else if (arg == "--speed") {
        if (!parse_finite(val, speed) || !(speed > 0.0)) {
          return usage("--speed takes a finite number > 0", val.c_str());
        }
      } else if (arg == "--out") {
        out_path = val;
      } else if (arg == "--profile") {
        profile_path = val;
      } else if (arg == "--jobs") {
        jobs_path = val;
      } else if (arg == "--trace") {
        events_path = val;
      } else if (arg == "--obs") {
        obs_path = val;
      } else if (arg == "--chrome") {
        chrome_path = val;
      } else if (arg == "--certify") {
        certify_path = val;
      } else {
        cert_out = val;
      }
    } else if (arg.rfind("-", 0) == 0) {
      return usage("unknown flag", arg.c_str());
    } else {
      trace_path = arg;
    }
  }

  // --certify: pure replay of a recorded JSONL trace — no scheduler runs,
  // so there is no per-job summary to write.
  if (!certify_path.empty() && !jobs_path.empty()) {
    return usage("--jobs does not apply to --certify");
  }
  try {
    if (!certify_path.empty()) {
      std::ifstream f(certify_path);
      if (!f) throw ModelError("cannot open " + certify_path);
      const obs::cert::ReplayedTrace replayed = obs::cert::replay_jsonl_trace(f);
      const double a = replayed.alpha > 1.0 ? replayed.alpha : alpha;
      const obs::cert::CertificateLedger ledger = obs::cert::certify_events(replayed.events, a);
      std::printf("certified %s: %zu event(s), alpha=%.3g\n%s", certify_path.c_str(),
                  replayed.events.size(), a, ledger.summary().c_str());
      if (!cert_out.empty()) {
        obs::cert::write_certificates_jsonl_file(cert_out, ledger);
        std::printf("certificates written to %s (%zu records)\n", cert_out.c_str(),
                    ledger.records.size());
      }
      if (fail_on_violation && ledger.violations() > 0) {
        std::fprintf(stderr, "trace_tool: %zu certificate(s) with negative slack\n",
                     ledger.violations());
        return 3;
      }
      return 0;
    }

    Instance inst;
    if (trace_path.empty()) {
      std::printf("(no trace given: demo on a generated 12-job trace; see --help)\n\n");
      inst = workload::generate({.n_jobs = 12, .arrival_rate = 1.5, .seed = 1});
    } else {
      workload::TraceReadOptions read_opts;
      read_opts.mode = lenient ? workload::TraceReadMode::kLenient
                               : workload::TraceReadMode::kStrict;
      workload::TraceReadStats stats;
      inst = workload::read_trace_file(trace_path, read_opts, &stats);
      if (stats.lines_skipped > 0) {
        std::printf("lenient read: kept %zu job(s), skipped %zu bad line(s)\n",
                    stats.lines_read, stats.lines_skipped);
      }
    }

    // Observability plumbing: a JSONL sink plus a human summary when --trace
    // is given; an in-memory ring for --chrome (the exporter needs the whole
    // stream at once); hot-path metrics + profiling when --obs is given.
    std::shared_ptr<obs::JsonlSink> jsonl;
    std::shared_ptr<obs::SummarySink> summary;
    std::shared_ptr<obs::RingBufferSink> ring;
    if (!events_path.empty()) {
      jsonl = std::make_shared<obs::JsonlSink>(events_path);
      summary = std::make_shared<obs::SummarySink>();
      obs::Tracer::instance().add_sink(jsonl);
      obs::Tracer::instance().add_sink(summary);
    }
    if (!chrome_path.empty() || !cert_out.empty()) {
      // The Chrome exporter and the certificate ledger both need the whole
      // event stream at once.
      ring = std::make_shared<obs::RingBufferSink>(1 << 20);
      obs::Tracer::instance().add_sink(ring);
    }
    if (jsonl || ring) {
      obs::Tracer::instance().set_enabled(true);
      // Leading meta event: lets consumers (plot_profiles.py) recover the run
      // configuration without a side channel.  value = alpha, aux = job count.
      TRACE_EVENT(.kind = obs::EventKind::kPhaseBoundary, .t = 0.0, .value = alpha,
                  .aux = static_cast<double>(inst.size()), .label = "trace_tool");
    }
    if (!obs_path.empty()) obs::set_metrics_enabled(true);

    Schedule sched(alpha);
    Metrics metrics;
    if (algo == "nc") {
      auto r = run_nc_uniform(inst, alpha);
      sched = std::move(r.schedule);
      metrics = r.metrics;
    } else if (algo == "c") {
      auto r = run_c(inst, alpha);
      sched = std::move(r.schedule);
      metrics = r.metrics;
    } else if (algo == "nc-nonuniform") {
      auto r = run_nc_nonuniform(inst, alpha);
      sched = std::move(r.result.schedule);
      metrics = r.result.metrics;
    } else if (algo == "fixed") {
      auto r = run_fixed_speed(inst, alpha, speed);
      sched = std::move(r.schedule);
      metrics = r.metrics;
    } else if (algo == "naive") {
      auto r = run_naive_nc(inst, alpha);
      sched = std::move(r.schedule);
      metrics = r.metrics;
    } else if (algo == "doubling") {
      auto r = run_doubling_nc(inst, alpha);
      sched = std::move(r.schedule);
      metrics = r.metrics;
    } else {
      return usage();
    }

    // Live-run certification: replay the run's own event stream through the
    // potential-function ledger.  Emitted while the sinks are still attached
    // so the "cert.slack"/"cert.phi" series land in the JSONL and Chrome
    // artifacts (the tracker checkpoints the sinks as it streams).
    obs::cert::CertificateLedger cert_ledger;
    bool certified = false;
    if (!cert_out.empty()) {
      obs::cert::CertOptions copts;
      copts.emit_trace_events = true;
      cert_ledger = obs::cert::certify_events(ring->events(), alpha, copts);
      certified = true;
    }

    if (jsonl || ring) {
      TRACE_EVENT(.kind = obs::EventKind::kPhaseBoundary, .t = sched.makespan(), .value = alpha,
                  .aux = static_cast<double>(inst.size()), .label = "trace_tool.end");
      obs::Tracer::instance().set_enabled(false);
      obs::Tracer::instance().flush();
      if (jsonl) obs::Tracer::instance().remove_sink(jsonl.get());
      if (summary) obs::Tracer::instance().remove_sink(summary.get());
      if (ring) obs::Tracer::instance().remove_sink(ring.get());
    }

    std::printf("algo=%s alpha=%.3g jobs=%zu makespan=%.6g\n", algo.c_str(), alpha, inst.size(),
                sched.makespan());
    std::printf("energy            = %.6g\n", metrics.energy);
    std::printf("fractional flow   = %.6g\n", metrics.fractional_flow);
    std::printf("integral flow     = %.6g\n", metrics.integral_flow);
    std::printf("frac objective    = %.6g\n", metrics.fractional_objective());
    std::printf("int objective     = %.6g\n", metrics.integral_objective());
    if (!out_path.empty()) {
      write_schedule_csv(out_path, sched);
      std::printf("schedule written to %s (%zu segments)\n", out_path.c_str(),
                  sched.segments().size());
    }
    if (!profile_path.empty()) {
      analysis::export_speed_profile_file(profile_path, sched);
      std::printf("speed profile written to %s\n", profile_path.c_str());
    }
    if (!jobs_path.empty()) {
      std::ofstream jf(jobs_path);
      if (!jf) throw ModelError("cannot open " + jobs_path);
      analysis::export_job_summary(jf, inst, sched);
      std::printf("job summary written to %s\n", jobs_path.c_str());
    }
    if (jsonl) {
      jsonl->close();  // commits the ".tmp" sibling to events_path
      std::printf("event trace written to %s (%zu events)\n%s", events_path.c_str(),
                  jsonl->lines(), summary->summary().c_str());
    }
    if (!obs_path.empty()) {
      obs::write_observability_report_file(obs_path);
      std::printf("observability report written to %s\n", obs_path.c_str());
    }
    if (ring && !chrome_path.empty()) {
      if (ring->dropped() > 0) {
        std::printf("note: chrome trace is truncated to the most recent %zu events "
                    "(%zu dropped)\n",
                    ring->capacity(), ring->dropped());
      }
      obs::perf::write_chrome_trace_file(chrome_path, ring->events(),
                                         obs::profiler().snapshot());
      std::printf("chrome trace written to %s (%zu events; open in ui.perfetto.dev)\n",
                  chrome_path.c_str(), ring->size());
    }
    if (certified) {
      obs::cert::write_certificates_jsonl_file(cert_out, cert_ledger);
      std::printf("certificates written to %s (%zu records)\n%s", cert_out.c_str(),
                  cert_ledger.records.size(), cert_ledger.summary().c_str());
      if (fail_on_violation && cert_ledger.violations() > 0) {
        std::fprintf(stderr, "trace_tool: %zu certificate(s) with negative slack\n",
                     cert_ledger.violations());
        return 3;
      }
    }
  } catch (const workload::TraceIoError& e) {
    const robust::Diagnostic& d = e.diagnostic();
    std::fprintf(stderr, "error [%s] %s (%s)\n", robust::error_code_name(d.code),
                 d.message.c_str(), d.context.c_str());
    std::fprintf(stderr, "hint: --lenient skips malformed lines instead of failing\n");
    return 1;
  } catch (const robust::RobustError& e) {
    const robust::Diagnostic& d = e.diagnostic();
    std::fprintf(stderr, "error [%s] %s (%s)\n", robust::error_code_name(d.code),
                 d.message.c_str(), d.context.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
