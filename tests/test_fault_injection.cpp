// The fault matrix: every degradation path in docs/robustness.md is exercised
// by deterministically injected faults (robust/fault_injection.h) and must
// end in a typed diagnostic — never a crash, never a silently wrong answer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/analysis/thread_pool.h"
#include "src/analysis/worst_case.h"
#include "src/core/power.h"
#include "src/numerics/roots.h"
#include "src/obs/cert/potential_tracker.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/robust/atomic_io.h"
#include "src/robust/checkpoint.h"
#include "src/robust/diagnostics.h"
#include "src/robust/fault_injection.h"
#include "src/robust/invariants.h"
#include "src/sim/numeric_engine.h"
#include "src/workload/trace_io.h"

namespace speedscale {
namespace {

using robust::ErrorCode;
using robust::FaultPlan;
using robust::FaultSite;
using robust::RobustError;
using robust::RunStatus;
using robust::ScopedFaultPlan;

std::string temp_path(const std::string& name) {
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  const std::string path = dir + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

bool file_exists(const std::string& path) { return std::ifstream(path).good(); }

// --- Injector mechanics -----------------------------------------------------

TEST(FaultInjector, SeededPlanIsDeterministic) {
  const FaultPlan a = robust::seed_faults(42, FaultSite::kRootBracket, 5, 1000);
  const FaultPlan b = robust::seed_faults(42, FaultSite::kRootBracket, 5, 1000);
  const auto& sa = a.fire_at[static_cast<std::size_t>(FaultSite::kRootBracket)];
  const auto& sb = b.fire_at[static_cast<std::size_t>(FaultSite::kRootBracket)];
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(sa.size(), 5u);
  for (const std::uint64_t i : sa) EXPECT_LT(i, 1000u);
  const FaultPlan c = robust::seed_faults(43, FaultSite::kRootBracket, 5, 1000);
  EXPECT_NE(sa, c.fire_at[static_cast<std::size_t>(FaultSite::kRootBracket)]);
}

TEST(FaultInjector, CountsCallsAndFires) {
  EXPECT_FALSE(robust::faults_enabled());
  {
    ScopedFaultPlan plan(FaultPlan{}.fire(FaultSite::kRootBracket, {0, 2}));
    EXPECT_TRUE(robust::faults_enabled());
    auto& inj = robust::FaultInjector::instance();
    EXPECT_TRUE(robust::fault_fire(FaultSite::kRootBracket));    // index 0
    EXPECT_FALSE(robust::fault_fire(FaultSite::kRootBracket));   // index 1
    EXPECT_TRUE(robust::fault_fire(FaultSite::kRootBracket));    // index 2
    EXPECT_FALSE(robust::fault_fire(FaultSite::kRootBracket));   // index 3
    EXPECT_EQ(inj.calls(FaultSite::kRootBracket), 4u);
    EXPECT_EQ(inj.fired(FaultSite::kRootBracket), 2u);
    EXPECT_EQ(inj.calls(FaultSite::kPoolTask), 0u);
  }
  EXPECT_FALSE(robust::faults_enabled());
  EXPECT_FALSE(robust::fault_fire(FaultSite::kRootBracket));
}

// --- Generic engine: non-finite quadrature --------------------------------

TEST(QuadratureFault, NonFiniteIntegrandThrowsTyped) {
  // A power function poisoned above s = 0.5: the band's integrand turns NaN
  // there, and the run must raise the typed diagnostic, never return NaN.
  class PoisonedPower final : public PowerFunction {
   public:
    double power(double s) const override { return s > 0.5 ? std::nan("") : s * s; }
    double speed_for_power(double p) const override { return std::sqrt(p); }
    double derivative(double s) const override { return 2.0 * s; }
    std::string name() const override { return "poisoned s^2"; }
  };
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}});
  try {
    (void)run_generic_c(inst, PoisonedPower());
    FAIL() << "expected RobustError";
  } catch (const RobustError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNumericNonfinite);
    EXPECT_NE(std::string(e.what()).find("non-finite integrand"), std::string::npos);
  }
}

// --- Invariant checker ------------------------------------------------------

TEST(Invariants, FlagsPoisonedRuns) {
  const Instance inst({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.5, 1.0, 1.0}});
  const PowerLaw p(2.0);
  const SampledRun run = run_generic_c(inst, p);
  robust::InvariantOptions opts;
  opts.kind = robust::RunKind::kAlgorithmC;
  EXPECT_TRUE(robust::check_sampled_run(inst, run, opts).ok());

  SampledRun nan_energy = run;
  nan_energy.energy = std::nan("");
  const auto r1 = robust::check_sampled_run(inst, nan_energy, opts);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.breaches.front().code, ErrorCode::kNumericNonfinite);

  SampledRun bad_times = run;
  ASSERT_GE(bad_times.bands.size(), 2u);
  std::swap(bad_times.bands.front(), bad_times.bands.back());  // decreasing times
  const auto r2 = robust::check_sampled_run(inst, bad_times, opts);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.breaches.front().code, ErrorCode::kInvariantBreach);

  SampledRun nan_band = run;
  nan_band.bands.back().w_end = std::nan("");
  const auto r3 = robust::check_sampled_run(inst, nan_band, opts);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.breaches.front().code, ErrorCode::kNumericNonfinite);
}

// --- Root finders -----------------------------------------------------------

TEST(RootFault, InjectedBracketFaultIsTyped) {
  ScopedFaultPlan plan(FaultPlan{}.fire(FaultSite::kRootBracket, {0}));
  // A perfectly good bracket, failed by injection: the typed path fires.
  try {
    (void)numerics::bisect([](double x) { return x - 0.5; }, 0.0, 1.0, 1e-12);
    FAIL() << "expected RobustError";
  } catch (const RobustError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRootNotBracketed);
  }
}

TEST(RootFault, ExpansionRecoversFromInjectedFalseNegative) {
  // The injected fault claims "no sign change" once; one extra doubling
  // later the finder recovers and converges to the true root.
  ScopedFaultPlan plan(FaultPlan{}.fire(FaultSite::kRootBracket, {0}));
  const double root =
      numerics::find_root_increasing([](double x) { return x - 10.0; }, 0.0, 20.0, 1e-12);
  EXPECT_NEAR(root, 10.0, 1e-9);
  EXPECT_EQ(robust::FaultInjector::instance().fired(FaultSite::kRootBracket), 1u);
}

TEST(RootFault, ExpansionCapHitIsTyped) {
  FaultPlan plan;
  auto& s = plan.fire_at[static_cast<std::size_t>(FaultSite::kRootBracket)];
  for (std::uint64_t i = 0; i < 64; ++i) s.insert(i);
  ScopedFaultPlan scoped(std::move(plan));
  try {
    (void)numerics::find_root_increasing([](double x) { return x - 10.0; }, 0.0, 20.0, 1e-12,
                                         /*max_expansions=*/5);
    FAIL() << "expected RobustError";
  } catch (const RobustError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kRootNotBracketed);
    EXPECT_NE(e.diagnostic().context.find("expansions="), std::string::npos);
  }
}

TEST(RootFault, BrentDegradesToBisectionOnIterationExhaustion) {
  obs::set_metrics_enabled(true);
  obs::Counter& fallbacks = obs::registry().counter("numerics.roots.brent_fallbacks");
  const std::int64_t before = fallbacks.value();
  // One Brent iteration cannot resolve this root; the fallback must.
  const double root =
      numerics::brent([](double x) { return std::cos(x) - x; }, 0.0, 1.0, 1e-13,
                      /*max_iter=*/1);
  obs::set_metrics_enabled(false);
  EXPECT_NEAR(std::cos(root), root, 1e-10);
  EXPECT_GE(fallbacks.value(), before + 1);
}

TEST(RootFault, NanProbeIsTyped) {
  try {
    (void)numerics::bisect([](double x) { return x < 0.5 ? -1.0 : std::nan(""); }, 0.0, 1.0,
                           1e-9);
    FAIL() << "expected RobustError";
  } catch (const RobustError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNumericNonfinite);
  }
}

// --- Trace I/O --------------------------------------------------------------

Instance small_instance() {
  return Instance({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 1.0, 1.0, 1.0},
                   Job{kNoJob, 2.0, 1.0, 1.0}});
}

TEST(TraceFault, CorruptedLineIsReportedWithItsLineNumber) {
  std::ostringstream os;
  {
    // Fire on the second data line (call index 1) => file line 3.
    ScopedFaultPlan plan(FaultPlan{}.fire(FaultSite::kTraceLine, {1}));
    workload::write_trace(os, small_instance());
    EXPECT_EQ(robust::FaultInjector::instance().fired(FaultSite::kTraceLine), 1u);
  }
  std::istringstream is(os.str());
  try {
    (void)workload::read_trace(is);
    FAIL() << "expected TraceIoError";
  } catch (const workload::TraceIoError& e) {
    EXPECT_EQ(e.diagnostic().code, ErrorCode::kIoMalformed);
    EXPECT_EQ(e.diagnostic().context, "line 3");
  }
}

TEST(TraceFault, LenientModeSkipsAndCounts) {
  std::ostringstream os;
  {
    ScopedFaultPlan plan(FaultPlan{}.fire(FaultSite::kTraceLine, {1}));
    workload::write_trace(os, small_instance());
  }
  std::istringstream is(os.str());
  workload::TraceReadStats stats;
  const Instance got =
      workload::read_trace(is, {.mode = workload::TraceReadMode::kLenient}, &stats);
  EXPECT_EQ(got.jobs().size(), 2u);
  EXPECT_EQ(stats.lines_read, 2u);
  EXPECT_EQ(stats.lines_skipped, 1u);
}

TEST(TraceFault, RoundTripSurvivesWhenNoFaultInstalled) {
  std::ostringstream os;
  workload::write_trace(os, small_instance());
  std::istringstream is(os.str());
  const Instance got = workload::read_trace(is);
  EXPECT_EQ(got.jobs().size(), 3u);
}

// --- Thread pool ------------------------------------------------------------

TEST(PoolFault, InjectedTaskFailureRethrownAtWaitIdle) {
  ScopedFaultPlan plan(FaultPlan{}.fire(FaultSite::kPoolTask, {0}));
  analysis::ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  try {
    pool.wait_idle();
    FAIL() << "expected RobustError";
  } catch (const RobustError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kTaskFailed);
  }
  EXPECT_EQ(pool.failed_tasks(), 1u);
  // The pool stays usable: the error was collected, not fatal.
  pool.submit([&] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 4);  // 3 clean + 1 injected-away + 1 after
}

TEST(PoolFault, UserExceptionsAreCapturedAndFirstRethrown) {
  analysis::ThreadPool pool(2);
  for (int i = 0; i < 3; ++i) {
    pool.submit([] { throw std::runtime_error("task boom"); });
  }
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(pool.failed_tasks(), 3u);
  EXPECT_NO_THROW(pool.wait_idle());  // error already collected
}

TEST(PoolFault, TeardownWithInFlightFailuresCannotTerminate) {
  // Destroy the pool while tasks are still failing, without wait_idle():
  // exceptions must stay captured inside workers (reaching a worker's stack
  // frame boundary would std::terminate the process).
  {
    analysis::ThreadPool pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.submit([] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        throw std::runtime_error("mid-teardown boom");
      });
    }
    // ~ThreadPool drains and joins here with errors pending.
  }
  SUCCEED();
}

TEST(PoolFault, TeardownWithInjectedFaultsCannotTerminate) {
  FaultPlan plan;
  auto& s = plan.fire_at[static_cast<std::size_t>(FaultSite::kPoolTask)];
  for (std::uint64_t i = 0; i < 64; ++i) s.insert(i);
  ScopedFaultPlan scoped(std::move(plan));
  {
    analysis::ThreadPool pool(4);
    for (int i = 0; i < 32; ++i) {
      pool.submit([] { std::this_thread::sleep_for(std::chrono::microseconds(20)); });
    }
  }
  SUCCEED();
}

TEST(PoolFault, ParallelForPropagatesFirstError) {
  analysis::ThreadPool pool(2);
  EXPECT_THROW(analysis::parallel_for(pool, 8,
                                      [](std::size_t i) {
                                        if (i == 5) {
                                          throw RobustError(ErrorCode::kTaskFailed, "index 5");
                                        }
                                      }),
               RobustError);
}

// --- Worst-case search: budget + checkpoint/resume --------------------------

TEST(WorstCaseRobust, ZeroBudgetDegradesWithTypedDiagnostic) {
  analysis::WorstCaseOptions opts;
  opts.n_jobs = 2;
  opts.rounds = 4;
  opts.opt_slots = 100;
  opts.wall_clock_budget_s = 0.0;
  const auto w = analysis::find_worst_nc_instance(2.0, opts);
  EXPECT_EQ(w.status, RunStatus::kDegraded);
  EXPECT_EQ(w.rounds_completed, 0);
  ASSERT_FALSE(w.diagnostics.empty());
  bool has_budget = false;
  for (const auto& d : w.diagnostics) has_budget |= d.code == ErrorCode::kBudgetExhausted;
  EXPECT_TRUE(has_budget);
  // The best-so-far state is still a usable answer.
  EXPECT_GE(w.ratio, 0.0);
  EXPECT_EQ(w.instance.jobs().size(), 2u);
}

TEST(WorstCaseRobust, CheckpointResumeReplaysUninterruptedTrajectory) {
  const double alpha = 2.0;
  analysis::WorstCaseOptions base;
  base.n_jobs = 2;
  base.opt_slots = 120;
  base.seed = 7;

  analysis::WorstCaseOptions full = base;
  full.rounds = 4;
  const auto uninterrupted = analysis::find_worst_nc_instance(alpha, full);

  const std::string ckpt = temp_path("wc_resume.jsonl");
  analysis::WorstCaseOptions part1 = base;
  part1.rounds = 2;
  part1.checkpoint_path = ckpt;
  const auto first_half = analysis::find_worst_nc_instance(alpha, part1);
  EXPECT_EQ(first_half.rounds_completed, 2);
  ASSERT_TRUE(file_exists(ckpt));

  analysis::WorstCaseOptions part2 = base;
  part2.rounds = 4;
  part2.checkpoint_path = ckpt;
  const auto resumed = analysis::find_worst_nc_instance(alpha, part2);

  EXPECT_NEAR(resumed.ratio, uninterrupted.ratio, 1e-12 * std::max(1.0, uninterrupted.ratio));
  ASSERT_EQ(resumed.instance.jobs().size(), uninterrupted.instance.jobs().size());
  for (std::size_t i = 0; i < resumed.instance.jobs().size(); ++i) {
    EXPECT_NEAR(resumed.instance.jobs()[i].release, uninterrupted.instance.jobs()[i].release,
                1e-12);
    EXPECT_NEAR(resumed.instance.jobs()[i].volume, uninterrupted.instance.jobs()[i].volume,
                1e-12);
  }
  std::remove(ckpt.c_str());
}

TEST(WorstCaseRobust, DimensionMismatchRestartsFromSeed) {
  const std::string ckpt = temp_path("wc_mismatch.jsonl");
  robust::append_search_checkpoint(ckpt, {3, 1.5, 2.0, {1.0, 2.0}});  // 2 != 2*3-1
  analysis::WorstCaseOptions opts;
  opts.n_jobs = 3;
  opts.rounds = 1;
  opts.opt_slots = 80;
  opts.checkpoint_path = ckpt;
  const auto w = analysis::find_worst_nc_instance(2.0, opts);
  EXPECT_EQ(w.status, RunStatus::kDegraded);
  ASSERT_FALSE(w.diagnostics.empty());
  EXPECT_EQ(w.diagnostics.front().code, ErrorCode::kIoMalformed);
  EXPECT_GT(w.ratio, 0.0);  // the seeded restart still produced an answer
  std::remove(ckpt.c_str());
}

// --- Checkpoint file format -------------------------------------------------

TEST(Checkpoint, RoundTripsDoublesExactly) {
  const std::string path = temp_path("ckpt_roundtrip.jsonl");
  const std::vector<double> x = {1.0 / 3.0, 3.141592653589793, 1e-4, 9876.54321};
  robust::append_search_checkpoint(path, {5, std::sqrt(2.0), 1.8570331, x});
  const auto cp = robust::load_search_checkpoint(path);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->next_round, 5);
  EXPECT_EQ(cp->step, std::sqrt(2.0));      // exact: 17 significant digits
  EXPECT_EQ(cp->ratio, 1.8570331);
  ASSERT_EQ(cp->x.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(cp->x[i], x[i]);
  std::remove(path.c_str());
}

TEST(Checkpoint, TornAndGarbageLinesAreSkipped) {
  const std::string path = temp_path("ckpt_torn.jsonl");
  robust::append_search_checkpoint(path, {1, 2.0, 0.5, {1.0}});
  {
    std::ofstream f(path, std::ios::app);
    f << "{\"round\":2,\"step\":\n";                              // torn mid-line
    f << "utter nonsense\n";                                      // not JSON
    f << "{\"round\":3,\"step\":1.5,\"ratio\":0.7,\"x\":[]}\n";   // empty x
  }
  robust::append_search_checkpoint(path, {9, 1.25, 1.75, {4.0, 5.0}});
  // Skipped lines are never silent: the registry counter rises by exactly
  // the number discarded.
  const obs::Counter& torn = obs::registry().counter("robust.checkpoint.torn_lines");
  const std::int64_t before = torn.value();
  std::size_t skipped = 0;
  const auto cp = robust::load_search_checkpoint(path, &skipped);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->next_round, 9);           // the last *valid* line wins
  EXPECT_EQ(cp->x, (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ(skipped, 3u);
  EXPECT_EQ(torn.value() - before, 3);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsNullopt) {
  EXPECT_FALSE(robust::load_search_checkpoint(temp_path("ckpt_missing.jsonl")).has_value());
}

// --- Crash-safe writes ------------------------------------------------------

TEST(AtomicIo, WriteCommitsAndRemovesTmp) {
  const std::string path = temp_path("atomic.txt");
  robust::atomic_write_file(path, [](std::ostream& os) { os << "payload\n"; });
  ASSERT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(robust::tmp_sibling(path)));
  std::ifstream f(path);
  std::string content;
  std::getline(f, content);
  EXPECT_EQ(content, "payload");
  std::remove(path.c_str());
}

TEST(AtomicIo, FailedWriteLeavesTargetUntouched) {
  const std::string path = temp_path("atomic_keep.txt");
  robust::atomic_write_file(path, [](std::ostream& os) { os << "original\n"; });
  try {
    robust::atomic_write_file(path, [](std::ostream& os) {
      os << "partial";
      os.setstate(std::ios::failbit);  // simulated disk failure
    });
    FAIL() << "expected RobustError";
  } catch (const RobustError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoMalformed);
  }
  std::ifstream f(path);
  std::string content;
  std::getline(f, content);
  EXPECT_EQ(content, "original");
  EXPECT_FALSE(file_exists(robust::tmp_sibling(path)));
  std::remove(path.c_str());
}

TEST(AtomicIo, JsonlSinkCommitsOnClose) {
  const std::string path = temp_path("sink.jsonl");
  obs::JsonlSink sink(path);
  sink.on_event(obs::TraceEvent{.kind = obs::EventKind::kPhaseBoundary, .t = 1.0});
  EXPECT_FALSE(file_exists(path));  // still streaming to the .tmp sibling
  EXPECT_TRUE(file_exists(robust::tmp_sibling(path)));
  sink.close();
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(robust::tmp_sibling(path)));
  EXPECT_NO_THROW(sink.close());  // idempotent
  EXPECT_EQ(sink.lines(), 1u);
  std::remove(path.c_str());
}

TEST(AtomicIo, JsonlSinkCommitsAtDestruction) {
  const std::string path = temp_path("sink_dtor.jsonl");
  {
    obs::JsonlSink sink(path);
    sink.on_event(obs::TraceEvent{.kind = obs::EventKind::kPhaseBoundary, .t = 2.0});
  }
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(robust::tmp_sibling(path)));
  std::remove(path.c_str());
}

TEST(AtomicIo, CertCheckpointFlushSurvivesWithoutCommit) {
  // The certificate tracker checkpoints (Tracer::flush) every
  // `checkpoint_every` records, so a run killed before the JsonlSink commits
  // still leaves every flushed certificate line in the ".tmp" sibling.
  const std::string path = temp_path("cert_stream.jsonl");
  auto sink = std::make_shared<obs::JsonlSink>(path);
  const std::vector<obs::TraceEvent> stream = {
      {.kind = obs::EventKind::kJobRelease, .t = 0.0, .job = 0, .value = 1.0, .aux = 1.0},
      {.kind = obs::EventKind::kJobRelease, .t = 0.5, .job = 1, .value = 2.0, .aux = 1.0},
      {.kind = obs::EventKind::kJobComplete, .t = 1.0, .job = 0, .value = 1.5, .aux = 2.0},
      {.kind = obs::EventKind::kJobComplete, .t = 2.5, .job = 1, .value = 4.0, .aux = 6.0},
  };
  {
    obs::ScopedTracing tracing(sink);
    obs::cert::CertOptions copts;
    copts.opt_lb = obs::cert::OptLbMode::kSingleJob;
    copts.emit_trace_events = true;
    copts.checkpoint_every = 1;  // flush after every record
    (void)obs::cert::certify_events(stream, 2.0, copts);
  }
  // No close(): the "crash" happens before the atomic rename.  The final
  // artifact must not exist, but the flushed stream must be fully readable.
  EXPECT_FALSE(file_exists(path));
  std::ifstream tmp(robust::tmp_sibling(path));
  ASSERT_TRUE(tmp.is_open());
  std::size_t cert_lines = 0;
  std::string line;
  while (std::getline(tmp, line)) {
    if (line.find("cert.") != std::string::npos) ++cert_lines;
  }
  // One cert.slack + one cert.phi line per record (4 events -> 8 lines).
  EXPECT_EQ(cert_lines, 2 * stream.size());
  sink->close();
  std::remove(path.c_str());
}

// --- Observability of the guards --------------------------------------------

TEST(RobustMetrics, DiagnosticNamesAreStable) {
  EXPECT_STREQ(robust::error_code_name(ErrorCode::kNumericNonfinite), "numeric_nonfinite");
  EXPECT_STREQ(robust::error_code_name(ErrorCode::kRootNotBracketed), "root_not_bracketed");
  EXPECT_STREQ(robust::error_code_name(ErrorCode::kNoConvergence), "no_convergence");
  EXPECT_STREQ(robust::error_code_name(ErrorCode::kInvariantBreach), "invariant_breach");
  EXPECT_STREQ(robust::error_code_name(ErrorCode::kIoMalformed), "io_malformed");
  EXPECT_STREQ(robust::error_code_name(ErrorCode::kTaskFailed), "task_failed");
  EXPECT_STREQ(robust::error_code_name(ErrorCode::kBudgetExhausted), "budget_exhausted");
  EXPECT_STREQ(robust::run_status_name(RunStatus::kOk), "ok");
  EXPECT_STREQ(robust::run_status_name(RunStatus::kDegraded), "degraded");
  EXPECT_STREQ(robust::run_status_name(RunStatus::kFailed), "failed");
  EXPECT_STREQ(robust::fault_site_name(FaultSite::kRootBracket), "root_bracket");
  EXPECT_STREQ(robust::fault_site_name(FaultSite::kPoolTask), "pool_task");
}

}  // namespace
}  // namespace speedscale
