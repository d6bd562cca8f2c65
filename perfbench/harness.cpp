// perfbench harness: runs one workload of the repo benchmark and writes its
// raw measurements as one JSON object.  run.py builds this binary, runs it in
// a fresh process per workload and turns the raw numbers into the reported
// metrics (README.md in this directory explains both).
//
//   perfbench_harness --workload stream|trace|batch|sweep --seed N
//                     --seconds S --trace 0|1 --out raw.json
//                     [--spans spans.jsonl] [--tmp-dir DIR]
//
// Every workload is a closed batch: inputs are generated from the seed during
// set-up, then whole passes over them repeat until --seconds have elapsed (at
// least one pass).  --trace 1 alternates untraced passes with traced ones; a
// traced pass records spans around each call into a library layer and keeps
// them in memory until the end, when they are written to --spans.
//
// Operation failures (a throw, a failed suite outcome, a broken lemma
// identity or ratio bound) are counted and listed, never skipped.  `correct`
// is the harness's own integrity verdict: every pass over the same inputs
// produced bit-identical results, and every result was finite.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_nonuniform.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/baselines.h"
#include "src/algo/frac_to_int.h"
#include "src/algo/parallel.h"
#include "src/analysis/ratio_harness.h"
#include "src/analysis/sweep.h"
#include "src/core/metrics.h"
#include "src/core/power.h"
#include "src/engine/job_source.h"
#include "src/engine/online_metrics.h"
#include "src/engine/stream_engine.h"
#include "src/obs/build_info.h"
#include "src/obs/cert/potential_tracker.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/opt/convex_opt.h"
#include "src/workload/generators.h"

using namespace speedscale;

namespace {

// --- Workload sizes --------------------------------------------------------
// Why each workload exists is in README.md; the sizes keep one pass well
// inside a run while giving every pass at least 100 timed items.

constexpr std::uint64_t kStreamJobs = 10'000'000;
constexpr std::uint64_t kStreamSlice = 100'000;   // jobs per timed stream item
constexpr std::uint64_t kStreamWarmupJobs = 500'000;
constexpr int kStreamMachines = 2;

constexpr std::uint64_t kTraceLines = 1'000'000;  // data lines, malformed included
constexpr double kTraceMalformedRate = 0.01;
constexpr std::uint64_t kTraceSlice = 5'000;      // accepted jobs per timed item
constexpr std::uint64_t kTraceWarmupJobs = 100'000;

constexpr int kBatchInstances = 128;
constexpr int kBatchJobs = 4096;
constexpr int kBatchMachines = 4;

constexpr int kSweepPoints = 120;
constexpr int kSweepUniformJobs = 12;
constexpr int kSweepNonUniformJobs = 32;
constexpr int kSweepOptSlots = 200;

constexpr double kAlphas[] = {1.5, 2.0, 3.0};
constexpr double kStreamAlpha = 2.0;
constexpr double kReductionEps = 0.5;  // SuiteOptions::reduction_eps default

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

/// Relative residual |a - b| / max(1, |b|): the scale the repo's online-vs-
/// replay contract (engine::metrics_within_tolerance) uses.
double rel_residual(double a, double b) {
  return std::abs(a - b) / std::max(1.0, std::abs(b));
}

/// Peak resident set (VmHWM) of this process in kB.
long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtol(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

// --- Spans -----------------------------------------------------------------

/// In-memory span store, shared by the sweep's worker threads.
class SpanLog {
 public:
  struct Rec {
    std::uint64_t id;
    std::uint64_t parent;  // 0 = root
    const char* name;
    std::int64_t item;
    std::int64_t t0_ns;
    std::int64_t t1_ns;
  };

  std::uint64_t next_id() { return ++last_id_; }
  void add(const Rec& rec) {
    std::lock_guard<std::mutex> lock(mu_);
    recs_.push_back(rec);
  }
  void write(const std::string& path, std::int64_t origin_ns) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write span file " + path);
    std::lock_guard<std::mutex> lock(mu_);
    for (const Rec& r : recs_) {
      os << "{\"id\":" << r.id << ",\"parent\":" << r.parent << ",\"name\":\"" << r.name
         << "\",\"item\":" << r.item << ",\"t0_ns\":" << (r.t0_ns - origin_ns)
         << ",\"t1_ns\":" << (r.t1_ns - origin_ns) << "}\n";
    }
  }

 private:
  std::atomic<std::uint64_t> last_id_{0};
  mutable std::mutex mu_;
  std::vector<Rec> recs_;
};

thread_local std::uint64_t t_open_span = 0;

constexpr std::uint64_t kThreadParent = ~std::uint64_t{0};

/// Records [construction, destruction) as one span when `log` is non-null;
/// a no-op otherwise, so traced and untraced passes run the same code.  The
/// parent is the innermost open span on this thread unless given.
class Span {
 public:
  Span(SpanLog* log, const char* name, std::int64_t item, std::uint64_t parent = kThreadParent)
      : log_(log) {
    if (log_ == nullptr) return;
    rec_ = {log_->next_id(), parent == kThreadParent ? t_open_span : parent, name, item, 0, 0};
    saved_open_ = t_open_span;
    t_open_span = rec_.id;
    rec_.t0_ns = now_ns();
  }
  ~Span() {
    if (log_ == nullptr) return;
    rec_.t1_ns = now_ns();
    t_open_span = saved_open_;
    log_->add(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return rec_.id; }

 private:
  SpanLog* log_;
  SpanLog::Rec rec_{};
  std::uint64_t saved_open_ = 0;
};

// --- Results ---------------------------------------------------------------

struct Failure {
  int pass;
  std::int64_t item;
  std::string check;
  double residual;
};

/// Everything a run measures; serialized by write_raw.
struct Raw {
  std::vector<double> setup_s;
  std::vector<double> generate_ms;
  std::uint64_t jobs_per_pass = 0;
  std::uint64_t items_per_pass = 0;
  std::vector<double> pass_s;         // untraced passes
  std::vector<double> item_ms;        // untraced items, all passes
  std::vector<double> traced_pass_s;  // traced passes (--trace 1)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Failure> failures;
  bool correct = true;
  std::vector<std::string> integrity_errors;
  std::map<std::string, double> counts;  // per-layer counts of one traced pass
  std::size_t workers = 1;
};

/// Bitwise fingerprint of one item's results; every later pass must match
/// the first.
class Fingerprints {
 public:
  void check(Raw& raw, std::size_t item, const std::vector<double>& values) {
    for (double v : values) {
      if (!std::isfinite(v)) {
        integrity(raw, "non-finite result at item " + std::to_string(item));
        return;
      }
    }
    if (item >= seen_.size()) seen_.resize(item + 1);
    std::vector<double>& prev = seen_[item];
    if (prev.empty()) {
      prev = values;
    } else if (prev.size() != values.size() ||
               std::memcmp(prev.data(), values.data(), sizeof(double) * values.size()) != 0) {
      integrity(raw, "results differ between passes at item " + std::to_string(item));
    }
  }

  /// The first pass's values of `item`; null before it was seen.
  [[nodiscard]] const std::vector<double>* first(std::size_t item) const {
    return item < seen_.size() && !seen_[item].empty() ? &seen_[item] : nullptr;
  }

  static void integrity(Raw& raw, const std::string& why) {
    raw.correct = false;
    if (raw.integrity_errors.size() < 16) raw.integrity_errors.push_back(why);
  }

 private:
  std::vector<std::vector<double>> seen_;
};

void fail(Raw& raw, int pass, std::int64_t item, const std::string& check, double residual,
          std::uint64_t ops = 1) {
  raw.failed += ops;
  raw.failures.push_back({pass, item, check, residual});
}

// --- stream / trace --------------------------------------------------------

/// Stamps the wall clock every `slice` jobs pulled: the engine consumes its
/// source internally, so the source is the only place a per-slice timer can
/// ride along.  One counter increment per job; the base call is direct.
template <class Base>
class SlicedSource final : public Base {
 public:
  template <class... A>
  SlicedSource(std::uint64_t slice, std::vector<std::int64_t>* stamps, A&&... args)
      : Base(std::forward<A>(args)...), slice_(slice), stamps_(stamps) {}

  bool next(Job* out) override {
    if (!Base::next(out)) return false;
    if (++pulled_ % slice_ == 0 && stamps_ != nullptr) stamps_->push_back(now_ns());
    return true;
  }
  [[nodiscard]] std::uint64_t pulled() const { return pulled_; }

 private:
  std::uint64_t slice_;
  std::vector<std::int64_t>* stamps_;
  std::uint64_t pulled_ = 0;
};

/// Yields at most `limit` jobs of `inner` (the set-up warm-up runs).
class PrefixSource final : public engine::JobSource {
 public:
  PrefixSource(engine::JobSource& inner, std::uint64_t limit) : inner_(inner), limit_(limit) {}
  bool next(Job* out) override { return pulled_++ < limit_ && inner_.next(out); }

 private:
  engine::JobSource& inner_;
  std::uint64_t limit_;
  std::uint64_t pulled_ = 0;
};

engine::StreamOptions stream_options(bool trace_workload, engine::RecordMode mode) {
  engine::StreamOptions o;
  o.alpha = kStreamAlpha;
  o.machines = trace_workload ? 1 : kStreamMachines;
  o.dispatch = DispatchPolicy::kLeastCount;
  o.recorder.mode = mode;
  return o;
}

class StreamWorkload {
 public:
  StreamWorkload(bool trace_workload, std::uint64_t seed, const std::string& tmp_dir)
      : trace_(trace_workload), seed_(seed), tmp_dir_(tmp_dir) {}
  ~StreamWorkload() {
    if (!path_.empty()) std::filesystem::remove(path_);
  }
  StreamWorkload(const StreamWorkload&) = delete;
  StreamWorkload& operator=(const StreamWorkload&) = delete;

  void setup(Raw& raw) {
    if (trace_) write_trace_file();
    // First touch: the arena, recorder ring and (for trace) the parser reach
    // their steady state on a prefix of the real input.
    const std::uint64_t warm = trace_ ? kTraceWarmupJobs : kStreamWarmupJobs;
    with_source(nullptr, [&](engine::JobSource& src) {
      PrefixSource prefix(src, warm);
      engine::StreamEngine(stream_options(trace_, workload_mode())).run(prefix);
    });
    raw.jobs_per_pass = trace_ ? kTraceLines - injected_ : kStreamJobs;
    raw.items_per_pass = raw.jobs_per_pass / slice();
  }

  void untraced_pass(Raw& raw, int pass) {
    std::vector<std::int64_t> stamps;
    stamps.reserve(raw.items_per_pass + 1);
    const std::int64_t t0 = now_ns();
    const engine::StreamResult r = run_engine(workload_mode(), &stamps, raw, pass);
    raw.pass_s.push_back(last_run_s_);
    std::int64_t prev = t0;
    for (std::int64_t stamp : stamps) {
      raw.item_ms.push_back(static_cast<double>(stamp - prev) * 1e-6);
      prev = stamp;
    }
    fingerprints_.check(raw, 0, {static_cast<double>(r.jobs), r.online.energy,
                                 r.online.fractional_flow, r.online.integral_flow, r.makespan});
  }

  /// Successive differences of whole runs: the source drained alone, then
  /// source + engine with the recorder off, then (stream) with the ring.
  void traced_pass(Raw& raw, int pass, SpanLog& log) {
    Span round(&log, trace_ ? "trace.round" : "stream.round", pass);
    {
      Span s(&log, "workload.drain", pass);
      with_source(nullptr, [](engine::JobSource& src) {
        Job j;
        while (src.next(&j)) {
        }
      });
    }
    engine::StreamResult r;
    {
      Span s(&log, "engine.run.off", pass);
      r = run_engine(engine::RecordMode::kOff, nullptr, raw, pass);
    }
    if (!trace_) {
      Span s(&log, "engine.run.ring", pass);
      r = run_engine(engine::RecordMode::kRing, nullptr, raw, pass);
    }
    raw.traced_pass_s.push_back(last_run_s_);  // the last run is the workload's own
    if (raw.counts.empty()) {
      raw.counts["engine.arena_high_water"] = static_cast<double>(r.arena_high_water);
      raw.counts["engine.segments_dropped"] = static_cast<double>(r.segments_dropped);
      if (trace_) {
        raw.counts["workload.lines_read"] = static_cast<double>(last_stats_.lines_read);
        raw.counts["workload.lines_skipped"] = static_cast<double>(last_stats_.lines_skipped);
      }
    }
  }

 private:
  [[nodiscard]] std::uint64_t slice() const { return trace_ ? kTraceSlice : kStreamSlice; }
  [[nodiscard]] engine::RecordMode workload_mode() const {
    return trace_ ? engine::RecordMode::kOff : engine::RecordMode::kRing;
  }

  /// Builds the workload's source (stamping slices into `stamps` when given)
  /// and hands it to `body`.
  template <class Body>
  void with_source(std::vector<std::int64_t>* stamps, Body&& body) {
    if (trace_) {
      std::ifstream is(path_);
      if (!is) throw std::runtime_error("cannot open trace " + path_);
      SlicedSource<engine::TraceJobSource> src(slice(), stamps, is,
                                               workload::TraceReadMode::kLenient);
      body(src);
      last_stats_ = src.stats();
      last_pulled_ = src.pulled();
    } else {
      engine::SyntheticJobSource::Params p;
      p.n_jobs = kStreamJobs;
      p.seed = seed_;
      SlicedSource<engine::SyntheticJobSource> src(slice(), stamps, p);
      body(src);
      last_pulled_ = src.pulled();
    }
  }

  /// One engine run over the whole input, timed into last_run_s_ and checked.
  engine::StreamResult run_engine(engine::RecordMode mode, std::vector<std::int64_t>* stamps,
                                  Raw& raw, int pass) {
    engine::StreamResult r;
    const std::int64_t t0 = now_ns();
    try {
      with_source(stamps, [&](engine::JobSource& src) {
        r = engine::StreamEngine(stream_options(trace_, mode)).run(src);
      });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "stream pass %d threw: %s\n", pass, e.what());
      raw.attempted += raw.jobs_per_pass;
      fail(raw, pass, 0, "engine_run_threw", 1.0, raw.jobs_per_pass);
      return r;
    }
    last_run_s_ = seconds_since(t0);
    check(raw, pass, r);
    return r;
  }

  void check(Raw& raw, int pass, const engine::StreamResult& r) {
    raw.attempted += r.jobs;
    if (r.jobs != last_pulled_ || r.jobs != raw.jobs_per_pass) {
      const double residual = static_cast<double>(r.jobs) - static_cast<double>(raw.jobs_per_pass);
      fail(raw, pass, 0, "job_count", residual, r.jobs);
      return;
    }
    if (trace_ && last_stats_.lines_skipped != injected_) {
      fail(raw, pass, 0, "lines_skipped",
           static_cast<double>(last_stats_.lines_skipped) - static_cast<double>(injected_),
           r.jobs);
      return;
    }
    // Lemma 3 + Lemma 4 on the online accumulators: E_NC = E_C = F_C and
    // F_NC = F_C / (1 - 1/alpha), so energy == fractional flow * (1 - 1/alpha).
    const double residual =
        rel_residual(r.online.energy, r.online.fractional_flow * (1.0 - 1.0 / kStreamAlpha));
    if (!(residual <= engine::kOnlineVsReplayRelTol)) {
      fail(raw, pass, 0, "lemma3_4_online", residual, r.jobs);
    }
  }

  /// Writes the CSV trace: jobs from the library's seeded generator, with
  /// about 1% of the lines (chosen by the seed) replaced by malformed ones
  /// the lenient reader must skip.  Streamed, so set-up stays O(1) memory.
  void write_trace_file() {
    std::filesystem::create_directories(tmp_dir_);
    path_ = (std::filesystem::path(tmp_dir_) / "trace.csv").string();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path_);
    static char buf[1 << 20];
    std::setvbuf(f, buf, _IOFBF, sizeof buf);
    static const char* const kMalformed[] = {
        ",not-a-number,1,1\n",  // unparsable field
        ",1.5,2.0\n",           // missing field
        ",1.5,nan,1\n",         // non-finite volume
        ",1.5,-2.0,1\n",        // non-positive volume
    };
    engine::SyntheticJobSource::Params params;
    params.n_jobs = kTraceLines;
    params.seed = seed_;
    engine::SyntheticJobSource gen(params);
    std::mt19937_64 pick(seed_ ^ 0x7ace7ace7ace7aceULL);
    const auto threshold = static_cast<std::uint64_t>(kTraceMalformedRate * 0x1p64);
    std::fputs("id,release,volume,density\n", f);
    injected_ = 0;
    Job j;
    char line_buf[128];
    for (std::uint64_t line = 0; line < kTraceLines; ++line) {
      char* end = line_buf + sizeof line_buf;
      char* p = std::to_chars(line_buf, end, line).ptr;
      if (pick() < threshold) {
        std::fwrite(line_buf, 1, static_cast<std::size_t>(p - line_buf), f);
        std::fputs(kMalformed[injected_++ % 4], f);
        continue;
      }
      gen.next(&j);
      // Shortest round-trip form: the reader parses back the exact doubles.
      for (double v : {j.release, j.volume, j.density}) {
        *p++ = ',';
        p = std::to_chars(p, end, v).ptr;
      }
      *p++ = '\n';
      std::fwrite(line_buf, 1, static_cast<std::size_t>(p - line_buf), f);
    }
    if (std::fclose(f) != 0) throw std::runtime_error("short write to " + path_);
    // Page-cache warm-up: the timed passes read a resident file.
    std::ifstream is(path_, std::ios::binary);
    std::vector<char> chunk(1 << 20);
    while (is.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) || is.gcount() > 0) {
    }
  }

  bool trace_;
  std::uint64_t seed_;
  std::string tmp_dir_;
  std::string path_;
  std::uint64_t injected_ = 0;
  workload::TraceReadStats last_stats_;
  std::uint64_t last_pulled_ = 0;
  double last_run_s_ = 0.0;
  Fingerprints fingerprints_;
};

// --- batch -----------------------------------------------------------------

class BatchWorkload {
 public:
  explicit BatchWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Raw& raw) {
    const std::int64_t t0 = now_ns();
    instances_.clear();
    for (int i = 0; i < kBatchInstances; ++i) {
      workload::WorkloadParams p;
      p.n_jobs = kBatchJobs;
      p.seed = seed_ * 1000003ULL + static_cast<std::uint64_t>(i);
      instances_.push_back(workload::generate(p));
    }
    raw.generate_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    Raw scratch;  // warm-up item: allocator and code reach steady state
    item(scratch, -1, 0, nullptr);
    std::uint64_t jobs = 0;
    for (const Instance& inst : instances_) jobs += inst.size();
    raw.jobs_per_pass = jobs;
    raw.items_per_pass = instances_.size();
  }

  void untraced_pass(Raw& raw, int pass) {
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < instances_.size(); ++i) item(raw, pass, i, nullptr);
    raw.pass_s.push_back(seconds_since(t0));
  }

  void traced_pass(Raw& raw, int pass, SpanLog& log) {
    const bool first = raw.counts.empty();
    c_segments_ = 0;
    mismatches_ = 0;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < instances_.size(); ++i) item(raw, pass, i, &log);
    raw.traced_pass_s.push_back(seconds_since(t0));
    if (first) {
      raw.counts["sim.c_segments"] = static_cast<double>(c_segments_);
      raw.counts["algo.nc_par_mismatches"] = static_cast<double>(mismatches_);
    }
  }

 private:
  static double alpha_of(std::size_t i) { return kAlphas[i % 3]; }

  /// One instance: C, NC (detailed), the NC replay, C-PAR and NC-PAR, each
  /// one guarded call, then the Lemma 3/4/20 and online-vs-replay checks.
  void item(Raw& raw, int pass, std::size_t i, SpanLog* log) {
    const Instance& inst = instances_[i];
    const double a = alpha_of(i);
    const auto id = static_cast<std::int64_t>(i);
    std::optional<RunResult> c;
    std::optional<NCUniformRun> nc;
    std::optional<Metrics> replay;
    std::optional<ParallelRun> cpar;
    std::optional<ParallelRun> ncpar;
    const std::int64_t t0 = now_ns();
    {
      Span it(log, "batch.item", id);
      guarded(raw, pass, id, "run_c_threw", [&] {
        Span s(log, "sim.run_c", id);
        c.emplace(run_c(inst, a));
      });
      guarded(raw, pass, id, "run_nc_uniform_threw", [&] {
        Span s(log, "algo.run_nc_uniform_detailed", id);
        nc.emplace(run_nc_uniform_detailed(inst, a));
      });
      if (nc) {
        guarded(raw, pass, id, "nc_replay_threw", [&] {
          Span s(log, "core.compute_metrics", id);
          replay = compute_metrics(inst, nc->result.schedule, PowerLaw(a));
        });
      }
      guarded(raw, pass, id, "run_c_par_threw", [&] {
        Span s(log, "algo.run_c_par", id);
        cpar.emplace(run_c_par(inst, a, kBatchMachines));
      });
      guarded(raw, pass, id, "run_nc_par_threw", [&] {
        Span s(log, "algo.run_nc_par", id);
        ncpar.emplace(run_nc_par(inst, a, kBatchMachines));
      });
    }
    if (pass >= 0 && log == nullptr) {
      raw.item_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    raw.attempted += 4;

    // NC: Lemma 3 (E_NC = E_C), Lemma 4 (F_NC (1 - 1/a) = F_C) and the
    // online accumulators against the replay.  One failed NC operation at
    // most, named by its first broken check.
    if (c && nc && replay) {
      const double lemma3 = rel_residual(replay->energy, c->metrics.energy);
      const double lemma4 =
          rel_residual(replay->fractional_flow * (1.0 - 1.0 / a), c->metrics.fractional_flow);
      double online = 0.0;
      if (nc->result.online) {
        const Metrics& on = *nc->result.online;
        online = std::max({rel_residual(on.energy, replay->energy),
                           rel_residual(on.fractional_flow, replay->fractional_flow),
                           rel_residual(on.integral_flow, replay->integral_flow)});
      }
      if (!(lemma3 <= engine::kOnlineVsReplayRelTol)) {
        fail(raw, pass, id, "lemma3_energy", lemma3);
      } else if (!(lemma4 <= engine::kOnlineVsReplayRelTol)) {
        fail(raw, pass, id, "lemma4_flow", lemma4);
      } else if (!(online <= engine::kOnlineVsReplayRelTol)) {
        fail(raw, pass, id, "nc_online_vs_replay", online);
      }
    }
    if (c && c->online) {
      const double online = std::max({rel_residual(c->online->energy, c->metrics.energy),
                                       rel_residual(c->online->fractional_flow,
                                                    c->metrics.fractional_flow)});
      if (!(online <= engine::kOnlineVsReplayRelTol)) {
        fail(raw, pass, id, "c_online_vs_replay", online);
      }
    }
    // Lemma 20: NC-PAR assigns every job to the machine C-PAR does.  The
    // residual is the number of jobs assigned differently.
    std::size_t differing = 0;
    if (cpar && ncpar) {
      for (std::size_t j = 0; j < inst.size(); ++j) {
        differing += cpar->assignment[j] != ncpar->assignment[j] ? 1 : 0;
      }
      if (differing > 0) {
        fail(raw, pass, id, "lemma20_assignment", static_cast<double>(differing));
        ++mismatches_;
      }
    }
    if (c) c_segments_ += c->schedule.segments().size();
    if (pass < 0) return;
    fingerprints_.check(
        raw, i,
        {c ? c->metrics.energy : 0.0, replay ? replay->energy : 0.0,
         replay ? replay->fractional_flow : 0.0, cpar ? cpar->metrics.fractional_objective() : 0.0,
         ncpar ? ncpar->metrics.fractional_objective() : 0.0, static_cast<double>(differing)});
  }

  template <class F>
  static void guarded(Raw& raw, int pass, std::int64_t id, const char* check, F&& body) {
    try {
      body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "item %lld: %s\n", static_cast<long long>(id), e.what());
      fail(raw, pass, id, check, 1.0);
    }
  }

  std::uint64_t seed_;
  std::vector<Instance> instances_;
  std::size_t c_segments_ = 0;
  std::size_t mismatches_ = 0;
  Fingerprints fingerprints_;
};

// --- sweep -----------------------------------------------------------------

struct SweepPoint {
  Instance instance;
  double alpha;
  bool uniform;
};

/// What the traced replica of run_suite records for one point.
struct PointTrace {
  std::map<std::string, double> counts;  // per-layer counts, by metric name
  std::vector<double> fingerprint;
  std::vector<Failure> failures;
  std::uint64_t attempted = 0;
};

class SweepWorkload {
 public:
  SweepWorkload(std::uint64_t seed, std::size_t workers) : seed_(seed), workers_(workers) {}

  void setup(Raw& raw) {
    const std::int64_t t0 = now_ns();
    points_.clear();
    for (int i = 0; i < kSweepPoints; ++i) {
      workload::WorkloadParams p;
      const bool uniform = i % 2 == 0;
      p.n_jobs = uniform ? kSweepUniformJobs : kSweepNonUniformJobs;
      p.density_mode = uniform ? workload::DensityMode::kUnit : workload::DensityMode::kClasses;
      p.seed = seed_ * 1000003ULL + static_cast<std::uint64_t>(i);
      points_.push_back({workload::generate(p), kAlphas[(i / 2) % 3], uniform});
    }
    raw.generate_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    // Warm-up: the first point of each kind and alpha, serially.
    for (std::size_t i = 0; i < 6; ++i) {
      (void)analysis::run_suite(points_[i].instance, points_[i].alpha, options(points_[i]));
    }
    std::uint64_t jobs = 0;
    for (const SweepPoint& pt : points_) jobs += pt.instance.size();
    raw.jobs_per_pass = jobs;
    raw.items_per_pass = points_.size();
    raw.workers = workers_;
  }

  void untraced_pass(Raw& raw, int pass) {
    std::vector<analysis::SuiteResult> suites(points_.size());
    std::vector<double> item_ms(points_.size());
    analysis::SweepScheduler sched(sweep_options());
    const std::int64_t t0 = now_ns();
    sched.run(points_.size(), [&](std::size_t i) {
      const std::int64_t s = now_ns();
      suites[i] = analysis::run_suite(points_[i].instance, points_[i].alpha, options(points_[i]));
      item_ms[i] = static_cast<double>(now_ns() - s) * 1e-6;
    });
    raw.pass_s.push_back(seconds_since(t0));
    raw.item_ms.insert(raw.item_ms.end(), item_ms.begin(), item_ms.end());
    for (std::size_t i = 0; i < points_.size(); ++i) check_suite(raw, pass, i, suites[i]);
  }

  /// Calls what run_suite calls, in its order, each under a span; the
  /// per-item counter deltas of SweepScheduler::run give the OPT cache tally.
  void traced_pass(Raw& raw, int pass, SpanLog& log) {
    std::vector<PointTrace> traces(points_.size());
    analysis::SweepScheduler sched(sweep_options());
    obs::set_metrics_enabled(true);
    std::vector<std::map<std::string, std::int64_t>> deltas;
    const std::int64_t t0 = now_ns();
    {
      Span sweep(&log, "analysis.sweep", pass);
      const std::uint64_t sweep_id = sweep.id();
      deltas = sched.run(points_.size(), [&](std::size_t i) {
        Span it(&log, "sweep.item", static_cast<std::int64_t>(i), sweep_id);
        replica(i, pass, &log, traces[i]);
      });
    }
    raw.traced_pass_s.push_back(seconds_since(t0));
    obs::set_metrics_enabled(false);
    std::map<std::string, double> counts;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const PointTrace& t = traces[i];
      raw.attempted += t.attempted;
      for (const Failure& f : t.failures) fail(raw, f.pass, f.item, f.check, f.residual);
      for (const auto& [name, v] : t.counts) counts[name] += v;
      // The replica must reproduce run_suite's results bit for bit.
      replica_checks_.check(raw, i, t.fingerprint);
      const std::vector<double>* suite = suite_checks_.first(i);
      if (suite != nullptr && *suite != t.fingerprint) {
        Fingerprints::integrity(raw, "replica differs from run_suite at point " +
                                         std::to_string(i));
      }
    }
    for (const auto& d : deltas) {
      for (const char* name : {"opt.cache.hits", "opt.cache.misses"}) {
        if (auto it = d.find(name); it != d.end()) counts[name] += static_cast<double>(it->second);
      }
    }
    if (raw.counts.empty()) raw.counts = counts;
  }

 private:
  [[nodiscard]] analysis::SweepOptions sweep_options() const {
    analysis::SweepOptions o;
    o.jobs = workers_;
    return o;
  }

  static analysis::SuiteOptions options(const SweepPoint& pt) {
    analysis::SuiteOptions o;
    o.opt_slots = kSweepOptSlots;
    o.certify = pt.uniform;
    o.include_nonuniform = !pt.uniform;
    return o;
  }

  /// NC-uniform's ratios against the point's OPT must meet Theorem 5
  /// (fractional, 2 + 1/(a-1)) and Theorem 9 (integral, 3 + 1/(a-1)).
  static std::optional<Failure> ratio_failure(int pass, std::int64_t id, double a, double frac,
                                              double integral) {
    const double frac_bound = 2.0 + 1.0 / (a - 1.0);
    const double int_bound = 3.0 + 1.0 / (a - 1.0);
    if (frac > frac_bound) return Failure{pass, id, "theorem5_frac_ratio", frac - frac_bound};
    if (integral > int_bound) return Failure{pass, id, "theorem9_int_ratio", integral - int_bound};
    return std::nullopt;
  }

  /// Operations are the suite's algorithm runs plus its OPT solve.
  void check_suite(Raw& raw, int pass, std::size_t i, const analysis::SuiteResult& s) {
    const auto id = static_cast<std::int64_t>(i);
    const double a = points_[i].alpha;
    raw.attempted += s.outcomes.size() + 1;
    std::vector<double> fp;
    for (const analysis::AlgoOutcome& o : s.outcomes) {
      if (!o.ok()) {
        fail(raw, pass, id, "outcome_failed:" + o.name, 1.0);
        continue;
      }
      fp.push_back(o.metrics.energy);
      fp.push_back(o.metrics.integral_flow);
      if (o.name == "NC (uniform)" && s.opt_fractional) {
        if (auto f = ratio_failure(pass, id, a, s.frac_ratio(o), s.int_ratio(o))) {
          fail(raw, f->pass, f->item, f->check, f->residual);
        }
      }
    }
    if (!s.opt_fractional) {
      fail(raw, pass, id, "opt_solve", 1.0);
    } else {
      fp.push_back(*s.opt_fractional);
    }
    suite_checks_.check(raw, i, fp);
  }

  void replica(std::size_t i, int pass, SpanLog* log, PointTrace& out) {
    const SweepPoint& pt = points_[i];
    const Instance& inst = pt.instance;
    const double a = pt.alpha;
    const auto id = static_cast<std::int64_t>(i);
    const auto op = [&](const char* check, const auto& body) {
      ++out.attempted;
      try {
        body();
      } catch (const std::exception&) {
        out.failures.push_back({pass, id, check, 1.0});
      }
    };
    const auto record = [&](const Metrics& m) {
      out.fingerprint.push_back(m.energy);
      out.fingerprint.push_back(m.integral_flow);
    };
    // Event capture + certification, as run_suite's CertCapture does it.
    const auto certified = [&](const char* span, const auto& body) {
      obs::RingBufferSink ring(1 << 18);
      {
        obs::ScopedThreadCapture capture(&ring);
        Span s(log, span, id);
        body();
      }
      Span s(log, "obs.certify_events", id);
      const obs::cert::CertificateLedger ledger = obs::cert::certify_events(ring.events(), a);
      out.counts["obs.cert_records"] += static_cast<double>(ledger.records.size());
      out.counts["obs.cert_violations"] += static_cast<double>(ledger.violations());
    };

    std::optional<RunResult> c;
    op("outcome_failed:C (clairvoyant)", [&] {
      const auto body = [&] { c.emplace(run_c(inst, a)); };
      if (pt.uniform) {
        certified("sim.run_c", body);
      } else {
        Span s(log, "sim.run_c", id);
        body();
      }
    });
    if (c) {
      record(c->metrics);
      out.counts["sim.c_segments"] += static_cast<double>(c->schedule.segments().size());
    }
    std::optional<Metrics> nc_metrics;
    if (pt.uniform) {
      std::optional<RunResult> nc;
      op("outcome_failed:NC (uniform)",
         [&] { certified("algo.run_nc_uniform", [&] { nc.emplace(run_nc_uniform(inst, a)); }); });
      if (nc) {
        record(nc->metrics);
        nc_metrics = nc->metrics;
        op("outcome_failed:NC + reduction (int)", [&] {
          Span s(log, "algo.reduce_frac_to_int", id);
          const IntReductionRun red = reduce_frac_to_int(inst, nc->schedule, kReductionEps);
          Metrics m;
          m.energy = red.energy;
          m.integral_flow = red.integral_flow;
          record(m);
        });
      }
      op("outcome_failed:NaiveNC (ablation)", [&] {
        Span s(log, "algo.run_naive_nc", id);
        record(run_naive_nc(inst, a).metrics);
      });
    } else {
      op("outcome_failed:NC (non-uniform)", [&] {
        Span s(log, "algo.run_nc_nonuniform", id);
        const NCNonUniformRun run = run_nc_nonuniform(inst, a);
        out.counts["algo.nc_nonuniform_steps"] += static_cast<double>(run.steps);
        out.counts["algo.nc_nonuniform_c_evaluations"] += static_cast<double>(run.c_evaluations);
        record(run.result.metrics);
      });
    }
    op("outcome_failed:ActiveCount PS", [&] {
      Span s(log, "algo.run_active_count", id);
      record(run_active_count(inst, a).metrics);
    });
    std::optional<double> opt;
    op("opt_solve", [&] {
      Span s(log, "opt.solve_fractional_opt", id);
      ConvexOptParams p;
      p.slots = kSweepOptSlots;
      opt = solve_fractional_opt(inst, a, p).objective;
    });
    if (opt) out.fingerprint.push_back(*opt);
    if (opt && *opt > 0.0 && nc_metrics) {
      if (auto f = ratio_failure(pass, id, a, nc_metrics->fractional_objective() / *opt,
                                 nc_metrics->integral_objective() / *opt)) {
        out.failures.push_back(*f);
      }
    }
  }

  std::uint64_t seed_;
  std::size_t workers_;
  std::vector<SweepPoint> points_;
  Fingerprints suite_checks_;
  Fingerprints replica_checks_;
};

// --- Output ----------------------------------------------------------------

void append_array(std::string& out, const char* key, const std::vector<double>& v) {
  out += '"';
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    obs::append_json_number(out, v[i]);
  }
  out += "],";
}

void append_field(std::string& out, const char* key, double v) {
  out += '"';
  out += key;
  out += "\":";
  obs::append_json_number(out, v);
  out += ',';
}

void append_field(std::string& out, const char* key, const std::string& v) {
  out += '"';
  out += key;
  out += "\":";
  obs::append_json_string(out, v);
  out += ',';
}

void write_raw(const std::string& path, const std::string& workload, std::uint64_t seed,
               bool traced, const Raw& raw) {
  std::string out = "{";
  append_field(out, "workload", workload);
  append_field(out, "seed", static_cast<double>(seed));
  append_field(out, "traced", traced ? 1.0 : 0.0);
  append_field(out, "nproc", static_cast<double>(std::thread::hardware_concurrency()));
  append_field(out, "workers", static_cast<double>(raw.workers));
  const obs::BuildInfo& info = obs::build_info();
  append_field(out, "build_type", info.build_type);
  append_field(out, "git_hash", info.git_hash);
  append_field(out, "compiler", info.compiler);
  append_array(out, "setup_s", raw.setup_s);
  append_array(out, "generate_ms", raw.generate_ms);
  append_field(out, "jobs_per_pass", static_cast<double>(raw.jobs_per_pass));
  append_field(out, "items_per_pass", static_cast<double>(raw.items_per_pass));
  append_array(out, "pass_s", raw.pass_s);
  append_array(out, "item_ms", raw.item_ms);
  append_array(out, "traced_pass_s", raw.traced_pass_s);
  append_field(out, "attempted", static_cast<double>(raw.attempted));
  append_field(out, "failed", static_cast<double>(raw.failed));
  append_field(out, "correct", raw.correct ? 1.0 : 0.0);
  append_field(out, "peak_rss_kb", static_cast<double>(peak_rss_kb()));
  out += "\"integrity_errors\":[";
  for (std::size_t i = 0; i < raw.integrity_errors.size(); ++i) {
    if (i > 0) out += ',';
    obs::append_json_string(out, raw.integrity_errors[i]);
  }
  out += "],\"counts\":{";
  bool first = true;
  for (const auto& [k, v] : raw.counts) {
    if (!first) out += ',';
    first = false;
    obs::append_json_string(out, k);
    out += ':';
    obs::append_json_number(out, v);
  }
  out += "},\"failures\":[";
  for (std::size_t i = 0; i < raw.failures.size(); ++i) {
    const Failure& f = raw.failures[i];
    if (i > 0) out += ',';
    out += "{\"pass\":" + std::to_string(f.pass) + ",\"item\":" + std::to_string(f.item) +
           ",\"check\":";
    obs::append_json_string(out, f.check);
    out += ",\"residual\":";
    obs::append_json_number(out, f.residual);
    out += '}';
  }
  out += "]}\n";
  std::ofstream os(path);
  os << out;
  if (!os.flush()) throw std::runtime_error("cannot write " + path);
}

/// Set-up runs this many times; setup_s is their median.
constexpr int kSetupRepeats = 5;

template <class W>
void run_workload(W& w, Raw& raw, double seconds, SpanLog* log) {
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    w.setup(raw);
    raw.setup_s.push_back(seconds_since(t0));
  }
  // Passes repeat while another one of the same length still fits in the
  // run, so a run ends near --seconds however long a pass takes.
  const std::int64_t start = now_ns();
  int pass = 0;
  double last = 0.0;
  do {
    const std::int64_t t0 = now_ns();
    w.untraced_pass(raw, pass++);
    if (log != nullptr) w.traced_pass(raw, pass++, *log);
    last = seconds_since(t0);
  } while (seconds_since(start) + last <= seconds);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload stream|trace|batch|sweep --seed N "
               "--seconds S --trace 0|1 --out RAW.json [--spans SPANS.jsonl] [--tmp-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out;
  std::string spans;
  std::string tmp_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      traced = val == "1";
    } else if (key == "--out") {
      out = val;
    } else if (key == "--spans") {
      spans = val;
    } else if (key == "--tmp-dir") {
      tmp_dir = val;
    } else {
      return usage();
    }
  }
  if (out.empty() || (traced && spans.empty()) || !(seconds > 0.0)) return usage();

  try {
    Raw raw;
    SpanLog log;
    SpanLog* log_ptr = traced ? &log : nullptr;
    const std::int64_t origin = now_ns();
    if (workload == "stream" || workload == "trace") {
      StreamWorkload w(workload == "trace", seed, tmp_dir);
      run_workload(w, raw, seconds, log_ptr);
    } else if (workload == "batch") {
      BatchWorkload w(seed);
      run_workload(w, raw, seconds, log_ptr);
    } else if (workload == "sweep") {
      const std::size_t nproc = std::max(1U, std::thread::hardware_concurrency());
      SweepWorkload w(seed, std::min<std::size_t>(4, nproc));
      run_workload(w, raw, seconds, log_ptr);
    } else {
      return usage();
    }
    if (traced) log.write(spans, origin);
    write_raw(out, workload, seed, traced, raw);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  return 0;
}
