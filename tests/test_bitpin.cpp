// Bit-pin of the exact batch path: run_c, run_nc_uniform_detailed, run_c_par
// and run_nc_par on seeded 4096-job instances, and run_nc_nonuniform on
// seeded 32-job density-class instances.  Each run is reduced to one line of
// tests/golden/bitpin_golden.txt: an FNV-1a hash over the bit patterns of its
// segment tape (t0, t1, job, law, param, rho) and completion times, its
// metrics (and online accumulators) as hex floats, for the parallel runs a
// hash of the job-to-machine assignment, and for non-uniform NC its
// integrator step and C-evaluation counts.  The discretized fractional OPT
// (solve_fractional_opt) is pinned the same way on the solves the ratio
// harness and the prefix certificates make: objective, energy, flow and
// horizon as hex floats, the FISTA iteration count and a hash of the slot
// speeds.  A refactor of the C kernel, the replay or the FISTA kernel must
// leave every line unchanged: the gate is bit identity, not a tolerance.
//
// On a mismatch the failure message prints every computed line, so a
// deliberate change of the pinned arithmetic regenerates the golden from it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_nonuniform.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/algo/parallel.h"
#include "src/opt/convex_opt.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

constexpr double kAlphas[] = {1.5, 2.0, 3.0};
constexpr int kMachines = 4;

/// FNV-1a over 64-bit words.
struct Hash {
  std::uint64_t h = 1469598103934665603ULL;
  void word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void real(double x) {
    std::uint64_t w = 0;
    std::memcpy(&w, &x, sizeof w);
    word(w);
  }
  void integer(std::int64_t v) { word(static_cast<std::uint64_t>(v)); }
};

void hash_schedule(Hash& h, const Schedule& s, const Instance& inst) {
  h.integer(static_cast<std::int64_t>(s.segments().size()));
  for (const Segment& seg : s.segments()) {
    h.real(seg.t0);
    h.real(seg.t1);
    h.integer(seg.job);
    h.integer(static_cast<std::int64_t>(seg.law));
    h.real(seg.param);
    h.real(seg.rho);
  }
  for (const Job& j : inst.jobs()) {
    if (s.completed(j.id)) {
      h.integer(j.id);
      h.real(s.completion(j.id));
    }
  }
}

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string metrics_text(const char* tag, const Metrics& m) {
  return std::string(" ") + tag + "=" + hex(m.energy) + "," + hex(m.fractional_flow) + "," +
         hex(m.integral_flow);
}

struct Case {
  std::string name;
  Instance instance;
  bool uniform;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (std::uint64_t seed : {11ULL, 4242ULL}) {
    workload::WorkloadParams p;
    p.n_jobs = 4096;
    p.seed = seed;
    out.push_back({"gen" + std::to_string(seed), workload::generate(p), true});
  }
  out.push_back({"batch0",
                 workload::batch_at_zero(1024, workload::VolumeDist::kFixed, 1.0, 0.0, 7), true});
  workload::WorkloadParams p;
  p.n_jobs = 4096;
  p.seed = 23;
  p.density_mode = workload::DensityMode::kClasses;
  out.push_back({"classes23", workload::generate(p), false});
  return out;
}

/// Non-uniform NC integrates with two C replays per step, so it is pinned on
/// 32-job instances.
std::vector<Case> nonuniform_cases() {
  std::vector<Case> out;
  for (std::uint64_t seed : {23ULL, 4242ULL}) {
    workload::WorkloadParams p;
    p.n_jobs = 32;
    p.seed = seed;
    p.density_mode = workload::DensityMode::kClasses;
    out.push_back({"classes32-s" + std::to_string(seed), workload::generate(p), false});
  }
  return out;
}

std::string key(const std::string& algo, const Case& c, double alpha) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%g", alpha);
  return algo + "/" + c.name + "/a" + buf;
}

std::string run_line(const std::string& algo, const Case& c, double alpha) {
  Hash tape;
  std::string text;
  if (algo == "c") {
    const RunResult r = run_c(c.instance, alpha);
    hash_schedule(tape, r.schedule, c.instance);
    text = metrics_text("metrics", r.metrics) + metrics_text("online", *r.online);
  } else if (algo == "nc") {
    const NCUniformRun r = run_nc_uniform_detailed(c.instance, alpha);
    hash_schedule(tape, r.result.schedule, c.instance);
    for (double x : r.offsets) tape.real(x);
    for (double x : r.starts) tape.real(x);
    text = metrics_text("metrics", r.result.metrics) + metrics_text("online", *r.result.online);
  } else if (algo == "nc_nonuniform") {
    const NCNonUniformRun r = run_nc_nonuniform(c.instance, alpha);
    hash_schedule(tape, r.result.schedule, c.instance);
    text = " steps=" + std::to_string(r.steps) + " c_evaluations=" +
           std::to_string(r.c_evaluations) + metrics_text("metrics", r.result.metrics) +
           metrics_text("online", *r.result.online);
  } else {
    const ParallelRun r = algo == "cpar" ? run_c_par(c.instance, alpha, kMachines)
                                         : run_nc_par(c.instance, alpha, kMachines);
    for (const Schedule& s : r.schedules) hash_schedule(tape, s, c.instance);
    for (double x : r.start_times) tape.real(x);
    Hash assign;
    for (MachineId m : r.assignment) assign.integer(m);
    text = metrics_text("metrics", r.metrics) + " assign=" + hex64(assign.h);
  }
  return key(algo, c, alpha) + " tape=" + hex64(tape.h) + text;
}

/// One convex-OPT solve of the bit-pin: `name` keys the line.
struct OptCase {
  std::string name;
  Instance instance;
  ConvexOptParams params;
};

/// The solves the sweep makes: every release prefix of a 12-job unit-density
/// instance at the certificates' 240 slots and 2000 iterations, a 32-job
/// density-class point at the ratio harness's 200 slots, plus one
/// energy-weighted (budgeted.h's Lagrangian) and one explicit-horizon solve.
std::vector<OptCase> opt_cases() {
  std::vector<OptCase> out;
  workload::WorkloadParams up;
  up.n_jobs = 12;
  up.seed = 1000003;
  const Instance unit = workload::generate(up);
  const ConvexOptParams prefix{.slots = 240, .max_iters = 2000};
  for (std::size_t k = 1; k <= unit.size(); ++k) {
    std::vector<Job> pre(unit.jobs().begin(),
                         unit.jobs().begin() + static_cast<std::ptrdiff_t>(k));
    char name[32];
    std::snprintf(name, sizeof name, "unit12-p%02zu", k);
    out.push_back({name, Instance(std::move(pre)), prefix});
  }
  workload::WorkloadParams cp;
  cp.n_jobs = 32;
  cp.seed = 1000004;
  cp.density_mode = workload::DensityMode::kClasses;
  out.push_back({"classes32", workload::generate(cp), {.slots = 200}});
  out.push_back({"unit12-ew0.25", unit, {.slots = 240, .max_iters = 2000, .energy_weight = 0.25}});
  out.push_back({"unit12-h40", unit, {.slots = 240, .horizon = 40.0, .max_iters = 2000}});
  return out;
}

std::string opt_line(const OptCase& c, double alpha) {
  const ConvexOptResult r = solve_fractional_opt(c.instance, alpha, c.params);
  Hash speed;
  speed.integer(static_cast<std::int64_t>(r.slot_speed.size()));
  for (double s : r.slot_speed) speed.real(s);
  char a[16];
  std::snprintf(a, sizeof a, "%g", alpha);
  return "opt/" + c.name + "/a" + a + " speed=" + hex64(speed.h) +
         " iterations=" + std::to_string(r.iterations) + " result=" + hex(r.objective) + "," +
         hex(r.energy) + "," + hex(r.fractional_flow) + "," + hex(r.horizon);
}

std::map<std::string, std::string> golden() {
  std::ifstream f(std::string(SPEEDSCALE_TEST_DATA_DIR) + "/golden/bitpin_golden.txt");
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    out[line.substr(0, line.find(' '))] = line;
  }
  return out;
}

/// Runs `algo` over every case it applies to and compares each line.
void check(const std::string& algo) {
  const std::map<std::string, std::string> want = golden();
  ASSERT_FALSE(want.empty()) << "tests/golden/bitpin_golden.txt is missing or empty";
  std::string all;
  int checked = 0;
  for (const Case& c : algo == "nc_nonuniform" ? nonuniform_cases() : cases()) {
    const bool uniform_only = algo == "nc" || algo == "ncpar";
    if (uniform_only && !c.uniform) continue;
    for (double alpha : kAlphas) {
      const std::string got = run_line(algo, c, alpha);
      all += got + "\n";
      const auto it = want.find(key(algo, c, alpha));
      EXPECT_TRUE(it != want.end() && it->second == got) << "bit-pin drift: " << got;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
  if (::testing::Test::HasFailure()) std::printf("computed lines:\n%s", all.c_str());
}

TEST(BitPin, AlgorithmC) { check("c"); }
TEST(BitPin, AlgorithmNCUniform) { check("nc"); }
TEST(BitPin, CPar) { check("cpar"); }
TEST(BitPin, NCPar) { check("ncpar"); }
TEST(BitPin, NCNonUniform) { check("nc_nonuniform"); }

TEST(BitPin, ConvexOpt) {
  const std::map<std::string, std::string> want = golden();
  ASSERT_FALSE(want.empty()) << "tests/golden/bitpin_golden.txt is missing or empty";
  std::string all;
  for (const OptCase& c : opt_cases()) {
    for (double alpha : kAlphas) {
      const std::string got = opt_line(c, alpha);
      all += got + "\n";
      const auto it = want.find(got.substr(0, got.find(' ')));
      EXPECT_TRUE(it != want.end() && it->second == got) << "bit-pin drift: " << got;
    }
  }
  if (::testing::Test::HasFailure()) std::printf("computed lines:\n%s", all.c_str());
}

}  // namespace
}  // namespace speedscale
