// E27: the streaming million-job engine under a memory ceiling.
//
// Drives src/engine/ (StreamEngine + SyntheticJobSource) at configurable
// scale and *asserts the RSS plateau in-process*: resident memory, sampled
// from /proc/self/status every --probe-every jobs through a JobSource
// decorator, must stop growing once the backlog reaches steady state.  A
// full-instance simulator is O(jobs) resident; the streaming engine's
// contract (docs/performance.md) is O(active backlog), so after warmup the
// curve is flat no matter how many more jobs stream through.
//
//   bench_engine_stream                         # smoke: 200k jobs, plateau assert
//   bench_engine_stream --jobs 10000000 --rss-ceiling-mb 512 --json out.json
//                                               # the pinned engine.stream/10M run
//   bench_engine_stream --machines 4 --dispatch ncpar
//                                               # NC-PAR's queue instead of round robin
//
// With --json the run is emitted as a speedscale.bench_ledger/1 document:
// the engine's deterministic tallies (jobs, arena high-water/slots, kinematics
// pow calls, recorder counts) as hard-gated work counters, wall time per
// repetition as the advisory half, and the measured RSS waypoints in the
// (ungated) config block.  scripts/run_bench_suite.py merges this into BENCH.json next to
// the pinned engine.stream/* suite entries.
//
// Exit status: 0 ok, 1 plateau/ceiling breach or nondeterministic counters,
// 2 usage.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include <chrono>

#include "bench/cli_numbers.h"
#include "src/engine/job_source.h"
#include "src/engine/stream_engine.h"
#include "src/obs/perf/bench_ledger.h"

using namespace speedscale;

namespace {

/// VmRSS in kB from /proc/self/status; 0 when unavailable (non-procfs
/// platforms), which downgrades the plateau assertion to a warning.
long read_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// JobSource decorator that samples RSS every `probe_every` jobs pulled.
/// The engine consumes its source internally, so the decorator is the only
/// place a probe can ride along without touching engine code.  It records
/// the first sample at/after `warmup_jobs` (the backlog's steady-state
/// baseline) and the running max after that point.
class RssProbeSource : public engine::JobSource {
 public:
  RssProbeSource(engine::JobSource& inner, std::uint64_t probe_every,
                 std::uint64_t warmup_jobs)
      : inner_(inner), probe_every_(probe_every), warmup_jobs_(warmup_jobs) {}

  bool next(Job* out) override {
    const bool more = inner_.next(out);
    if (more && ++pulled_ % probe_every_ == 0) sample();
    return more;
  }

  /// One explicit post-run sample (the engine drains the backlog after the
  /// source is exhausted, so the final reading happens outside next()).
  void final_sample() { sample(); }

  [[nodiscard]] long warmup_kb() const { return warmup_kb_; }
  [[nodiscard]] long max_after_warmup_kb() const { return max_after_warmup_kb_; }
  [[nodiscard]] long final_kb() const { return final_kb_; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

 private:
  void sample() {
    const long kb = read_rss_kb();
    if (kb <= 0) return;
    ++samples_;
    final_kb_ = kb;
    if (pulled_ >= warmup_jobs_) {
      if (warmup_kb_ == 0) warmup_kb_ = kb;
      if (kb > max_after_warmup_kb_) max_after_warmup_kb_ = kb;
    }
  }

  engine::JobSource& inner_;
  std::uint64_t probe_every_;
  std::uint64_t warmup_jobs_;
  std::uint64_t pulled_ = 0;
  std::uint64_t samples_ = 0;
  long warmup_kb_ = 0;
  long max_after_warmup_kb_ = 0;
  long final_kb_ = 0;
};

/// "10M" / "200k" / "1234" — the suffix convention of the pinned suite.
std::string scale_label(std::uint64_t jobs) {
  char buf[32];
  if (jobs >= 1'000'000 && jobs % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%lluM", static_cast<unsigned long long>(jobs / 1'000'000));
  } else if (jobs >= 1'000 && jobs % 1'000 == 0) {
    std::snprintf(buf, sizeof buf, "%lluk", static_cast<unsigned long long>(jobs / 1'000));
  } else {
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(jobs));
  }
  return buf;
}

int usage(const char* flag = nullptr, const char* value = nullptr) {
  if (flag != nullptr) {
    std::fprintf(stderr, "bench_engine_stream: bad %s value: %s\n\n", flag, value);
  }
  std::fprintf(stderr,
               "usage: bench_engine_stream [--jobs N] [--machines K] [--reps R]\n"
               "                           [--dispatch round-robin|least-count|ncpar]\n"
               "                           [--record off|ring] [--ring-capacity N]\n"
               "                           [--rss-ceiling-mb M] [--rss-slack-mb M]\n"
               "                           [--probe-every N] [--json FILE] [--name NAME]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t jobs = 200'000;
  int machines = 1, reps = 1;
  DispatchPolicy dispatch = DispatchPolicy::kRoundRobin;
  std::string dispatch_name = "round-robin";
  engine::RecordMode mode = engine::RecordMode::kOff;
  std::size_t ring_capacity = 1 << 16;
  long ceiling_mb = 0, slack_mb = 64;
  std::uint64_t probe_every = 1 << 14;
  std::string json_path, name;
  constexpr std::uint64_t kMaxCount = 1'000'000'000'000;  // jobs, probe spacing
  constexpr long kMaxMb = 1 << 20;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const char* const value = has_value ? argv[i + 1] : "";
    bool ok = true;
    if (arg == "--jobs" && has_value) {
      ok = bench::parse_int_in<std::uint64_t>(value, 1, kMaxCount, jobs);
    } else if (arg == "--machines" && has_value) {
      ok = bench::parse_int_in(value, 1, 4096, machines);
    } else if (arg == "--reps" && has_value) {
      ok = bench::parse_int_in(value, 1, 1000, reps);
    } else if (arg == "--dispatch" && has_value) {
      dispatch_name = value;
      if (dispatch_name == "round-robin") {
        dispatch = DispatchPolicy::kRoundRobin;
      } else if (dispatch_name == "least-count") {
        dispatch = DispatchPolicy::kLeastCount;
      } else if (dispatch_name == "ncpar") {
        dispatch = DispatchPolicy::kNcPar;
      } else {
        ok = false;
      }
    } else if (arg == "--record" && has_value) {
      const std::string m = value;
      if (m == "off") {
        mode = engine::RecordMode::kOff;
      } else if (m == "ring") {
        mode = engine::RecordMode::kRing;
      } else {
        ok = false;
      }
    } else if (arg == "--ring-capacity" && has_value) {
      ok = bench::parse_int_in<std::size_t>(value, 1, std::size_t{1} << 30, ring_capacity);
    } else if (arg == "--rss-ceiling-mb" && has_value) {
      ok = bench::parse_int_in(value, 0L, kMaxMb, ceiling_mb);
    } else if (arg == "--rss-slack-mb" && has_value) {
      ok = bench::parse_int_in(value, 0L, kMaxMb, slack_mb);
    } else if (arg == "--probe-every" && has_value) {
      ok = bench::parse_int_in<std::uint64_t>(value, 1, kMaxCount, probe_every);
    } else if (arg == "--json" && has_value) {
      json_path = value;
    } else if (arg == "--name" && has_value) {
      name = value;
    } else {
      return usage();
    }
    if (!ok) return usage(arg.c_str(), value);
    ++i;
  }
  if (name.empty()) {
    const std::string rule = dispatch_name == "round-robin" ? "" : "_" + dispatch_name;
    name = "engine.stream" + rule + "/" + scale_label(jobs);
  }
  // Steady state arrives well before 1/8 of the stream at the pinned load;
  // cap the warmup window so tiny --jobs runs still get a post-warmup phase.
  const std::uint64_t warmup_jobs = jobs / 8;

  obs::perf::BenchLedger ledger("engine-stream");
  ledger.set_config("alpha", "2");
  ledger.set_config("jobs", std::to_string(jobs));
  ledger.set_config("machines", std::to_string(machines));
  ledger.set_config("dispatch", dispatch_name);
  ledger.set_config("record", mode == engine::RecordMode::kOff ? "off" : "ring");
  obs::perf::BenchEntry& entry = ledger.entry(name);
  entry.source = "runner";
  entry.repetitions = reps;

  long warmup_kb = 0, max_kb = 0, final_kb = 0;
  for (int rep = 0; rep < reps; ++rep) {
    engine::SyntheticJobSource::Params params;
    params.n_jobs = jobs;
    params.seed = 21;  // the pinned engine.stream seed (src/analysis/pinned_suite.cpp)
    engine::SyntheticJobSource source(params);
    RssProbeSource probed(source, probe_every, warmup_jobs);

    engine::StreamOptions options;
    options.alpha = 2.0;
    options.machines = machines;
    options.dispatch = dispatch;
    options.recorder.mode = mode;
    options.recorder.ring_capacity = ring_capacity;
    engine::StreamEngine eng(options);

    const auto t0 = std::chrono::steady_clock::now();
    const engine::StreamResult res = eng.run(probed);
    const auto t1 = std::chrono::steady_clock::now();
    probed.final_sample();
    entry.wall_ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));

    std::map<std::string, std::int64_t> counters;
    counters["engine.stream.jobs"] = static_cast<std::int64_t>(res.jobs);
    counters["engine.stream.arena_high_water"] =
        static_cast<std::int64_t>(res.arena_high_water);
    counters["engine.stream.arena_slots"] = static_cast<std::int64_t>(res.arena_capacity);
    counters["engine.stream.pow_calls"] = static_cast<std::int64_t>(res.pow_calls);
    if (mode != engine::RecordMode::kOff) {
      counters["engine.stream.segments_recorded"] =
          static_cast<std::int64_t>(res.segments_recorded);
      counters["engine.stream.segments_dropped"] =
          static_cast<std::int64_t>(res.segments_dropped);
    }
    if (rep == 0) {
      entry.counters = std::move(counters);
    } else if (counters != entry.counters) {
      std::fprintf(stderr,
                   "FATAL: %s: work counters differ between repetition 0 and %d — "
                   "the streaming run is not deterministic\n",
                   name.c_str(), rep);
      return 1;
    }

    warmup_kb = probed.warmup_kb();
    max_kb = probed.max_after_warmup_kb();
    final_kb = probed.final_kb();
    // ns/job is the whole run per job (source, RSS probe and engine); pow
    // calls per job is the kinematics layer's work counter (at most 2).
    const double per_job = 1.0 / static_cast<double>(res.jobs);
    std::printf(
        "%-20s rep=%d  jobs=%llu  makespan=%.3f  energy=%.6g  flow=%.6g  "
        "arena=%zu/%zu slots  wall=%.3f ms  ns/job=%.1f  pow_calls/job=%.3f\n",
        name.c_str(), rep, static_cast<unsigned long long>(res.jobs), res.makespan,
        res.online.energy, res.online.fractional_flow, res.arena_high_water,
        res.arena_capacity, entry.wall_ns.back() * 1e-6, entry.wall_ns.back() * per_job,
        static_cast<double>(res.pow_calls) * per_job);
    std::printf("  rss: warmup=%.1f MB  max_after_warmup=%.1f MB  final=%.1f MB  "
                "(%llu samples, every %llu jobs)\n",
                warmup_kb / 1024.0, max_kb / 1024.0, final_kb / 1024.0,
                static_cast<unsigned long long>(probed.samples()),
                static_cast<unsigned long long>(probe_every));
  }

  // The plateau assertion: once the backlog reaches steady state, resident
  // memory must not keep growing with the job count.  Slack covers allocator
  // hysteresis and the one-off geometric arena growth that can land just
  // after the warmup snapshot.
  int rc = 0;
  if (warmup_kb > 0) {
    if (max_kb > warmup_kb + slack_mb * 1024) {
      std::fprintf(stderr,
                   "FAIL: RSS grew past the plateau: warmup %.1f MB -> max %.1f MB "
                   "(slack %ld MB) — resident state is scaling with the stream\n",
                   warmup_kb / 1024.0, max_kb / 1024.0, slack_mb);
      rc = 1;
    }
  } else {
    std::fprintf(stderr, "warning: VmRSS unavailable; plateau not asserted\n");
  }
  if (ceiling_mb > 0 && max_kb > ceiling_mb * 1024) {
    std::fprintf(stderr, "FAIL: RSS %.1f MB exceeds the --rss-ceiling-mb %ld MB\n",
                 max_kb / 1024.0, ceiling_mb);
    rc = 1;
  }

  ledger.set_config("rss_final_mb", std::to_string(final_kb / 1024));
  ledger.set_config("rss_max_after_warmup_mb", std::to_string(max_kb / 1024));
  ledger.set_config("rss_warmup_mb", std::to_string(warmup_kb / 1024));
  if (!json_path.empty()) {
    ledger.write_file(json_path);
    std::printf("ledger written to %s\n", json_path.c_str());
  }
  return rc;
}
