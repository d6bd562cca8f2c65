// Tests for the competitiveness certificate ledger (src/obs/cert/):
//
//   * amortized local competitiveness on seeded uniform-density workloads —
//     every release certificate has non-negative slack under the paper's
//     constants c = 2 + 1/(alpha-1) (fractional) / 3 + 1/(alpha-1) (integral);
//   * the ledger's telescoping identity: summed increments reproduce the
//     run's metrics exactly;
//   * the Lemma 6/7 speed-profile certificate against the closed-form
//     kinematics on single-job and two-job instances at machine precision;
//   * byte-stability of the certificate JSONL against a golden file (what
//     `trace_tool --certify` on the golden JSONL event trace must reproduce);
//   * replay round-trips: a JSONL trace re-certifies to the same ledger as
//     the live event stream;
//   * malformed streams (non-finite times or payloads, non-integer ids,
//     releases with a non-positive volume or density) are errors, never
//     certificates.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/algo/algorithm_c.h"
#include "src/algo/algorithm_nc_uniform.h"
#include "src/analysis/ratio_harness.h"
#include "src/core/kinematics.h"
#include "src/obs/cert/potential_tracker.h"
#include "src/obs/trace.h"
#include "src/opt/convex_opt.h"
#include "src/workload/generators.h"

namespace speedscale {
namespace {

using obs::EventKind;
using obs::TraceEvent;
using obs::cert::CertificateLedger;
using obs::cert::CertOptions;
using obs::cert::CertRecord;

class CertificatesTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear_sinks();
  }
};

std::vector<TraceEvent> capture(const std::function<void()>& run) {
  auto ring = std::make_shared<obs::RingBufferSink>(1 << 18);
  obs::ScopedTracing tracing(ring);
  run();
  EXPECT_EQ(ring->dropped(), 0u);
  return ring->events();
}

Instance uniform_instance(int n, std::uint64_t seed) {
  return workload::generate({.n_jobs = n,
                             .arrival_rate = 1.2,
                             .volume_dist = workload::VolumeDist::kExponential,
                             .seed = seed});
}

// --- The headline acceptance property ---------------------------------------

TEST_F(CertificatesTest, NCUniformSlackIsNonNegativeOnSeededWorkloads) {
  for (const double alpha : {1.5, 2.0, 3.0}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const Instance inst = uniform_instance(16, seed);
      RunResult nc(alpha);
      const std::vector<TraceEvent> evs = capture([&] { nc = run_nc_uniform(inst, alpha); });
      const CertificateLedger ledger = obs::cert::certify_events(evs, alpha);

      // The paper's constants are the defaults.
      EXPECT_DOUBLE_EQ(ledger.c_frac, 2.0 + 1.0 / (alpha - 1.0));
      EXPECT_DOUBLE_EQ(ledger.c_int, 3.0 + 1.0 / (alpha - 1.0));

      EXPECT_EQ(ledger.violations(), 0u)
          << "alpha=" << alpha << " seed=" << seed << "\n"
          << ledger.summary();
      EXPECT_GE(ledger.min_slack_frac, 0.0);
      EXPECT_GE(ledger.min_slack_int, 0.0);
      EXPECT_EQ(ledger.incomplete_jobs, 0u);
      EXPECT_EQ(ledger.opt_lb_updates, inst.size());

      // Telescoping: the ledger's cumulative ALG is exactly the run's
      // fractional objective (same floats, summed in event order).
      EXPECT_NEAR(ledger.alg_total_frac, nc.metrics.fractional_objective(),
                  1e-9 * std::max(1.0, nc.metrics.fractional_objective()));
      // And the end-to-end inequality the per-event slacks telescope into.
      EXPECT_LE(ledger.alg_total_frac, ledger.c_frac * ledger.opt_lb_final + 1e-9);
    }
  }
}

TEST_F(CertificatesTest, RecordStreamIsAnchoredAndOrdered) {
  const Instance inst = uniform_instance(12, 4);
  const std::vector<TraceEvent> evs =
      capture([&] { (void)run_nc_uniform(inst, 2.0); });
  const CertificateLedger ledger = obs::cert::certify_events(evs, 2.0);

  double last_t = -kInf;
  double prev_slack = 0.0;
  bool have_prev = false;
  std::size_t releases = 0, completions = 0;
  for (const CertRecord& rec : ledger.records) {
    EXPECT_GE(rec.t, last_t);
    last_t = rec.t;
    // Only releases move the certificate state: every other record carries
    // the previous slack forward unchanged.
    if (rec.kind != EventKind::kJobRelease && have_prev) {
      EXPECT_DOUBLE_EQ(rec.slack, prev_slack);
    }
    prev_slack = rec.slack;
    have_prev = true;
    if (rec.kind == EventKind::kJobRelease) ++releases;
    if (rec.kind == EventKind::kJobComplete) {
      ++completions;
      // Completions land the committed cost: dALG = -dPhi exactly, and the
      // certificate state ALG + Phi (hence the slack) does not move.
      EXPECT_DOUBLE_EQ(rec.d_alg, -rec.d_phi);
      EXPECT_DOUBLE_EQ(rec.d_alg_int, -rec.d_phi_int);
    }
  }
  EXPECT_EQ(releases, inst.size());
  EXPECT_EQ(completions, inst.size());
  // Phi drains to zero once every committed cost has landed.
  ASSERT_FALSE(ledger.records.empty());
  EXPECT_NEAR(ledger.records.back().phi, 0.0, 1e-9 * std::max(1.0, ledger.alg_total_frac));
}

// --- Lemma 6/7: the speed-profile certificate -------------------------------

TEST_F(CertificatesTest, SingleJobBandSweepMatchesClosedFormsAtMachinePrecision) {
  for (const double alpha : {1.5, 2.0, 3.0}) {
    const PowerLawKinematics kin(alpha);
    for (const double volume : {0.5, 1.0, 4.0}) {
      const Instance one({Job{kNoJob, 0.0, volume, 1.0}});

      // NC on one job sweeps the growing band [0, W] — the Lemma 6 branch.
      const std::vector<TraceEvent> nc_evs =
          capture([&] { (void)run_nc_uniform(one, alpha); });
      const CertificateLedger nc_ledger = obs::cert::certify_events(nc_evs, alpha);
      EXPECT_LE(nc_ledger.max_defect, 1e-12) << "NC alpha=" << alpha << " V=" << volume;
      ASSERT_GE(nc_ledger.rearrangement_defect, 0.0);
      EXPECT_LE(nc_ledger.rearrangement_defect, 1e-12);
      // The recorded completion time is the closed-form band-sweep time.
      for (const CertRecord& rec : nc_ledger.records) {
        if (rec.kind != EventKind::kJobComplete) continue;
        EXPECT_NEAR(rec.t, kin.grow_time_to_weight(0.0, volume, 1.0),
                    1e-12 * std::max(1.0, rec.t));
      }

      // C on one job decays the band [W, 0] — the Lemma 7 branch.
      const std::vector<TraceEvent> c_evs = capture([&] { (void)run_c(one, alpha); });
      const CertificateLedger c_ledger = obs::cert::certify_events(c_evs, alpha);
      EXPECT_LE(c_ledger.max_defect, 1e-12) << "C alpha=" << alpha << " V=" << volume;
      for (const CertRecord& rec : c_ledger.records) {
        if (rec.kind != EventKind::kJobComplete) continue;
        EXPECT_NEAR(rec.t, kin.decay_time_to_weight(volume, 0.0, 1.0),
                    1e-12 * std::max(1.0, rec.t));
      }
    }
  }
}

TEST_F(CertificatesTest, TwoJobBandSweepMatchesClosedFormsAtMachinePrecision) {
  // Two staggered jobs, no preemption under NC (FIFO): job 0 sweeps [0, W0],
  // job 1 sweeps [u1, u1 + W1] where u1 is its recorded offset.
  for (const double alpha : {1.5, 2.0}) {
    const Instance two({Job{kNoJob, 0.0, 1.0, 1.0}, Job{kNoJob, 0.1, 0.7, 1.0}});
    const std::vector<TraceEvent> evs =
        capture([&] { (void)run_nc_uniform(two, alpha); });
    const CertificateLedger ledger = obs::cert::certify_events(evs, alpha);
    EXPECT_LE(ledger.max_defect, 1e-12) << "alpha=" << alpha << "\n" << ledger.summary();
    ASSERT_GE(ledger.rearrangement_defect, 0.0);
    // The reconstructed profile is a rearrangement of the virtual C profile
    // (Lemma 6/7's whole-run content), up to roundoff in the level measures.
    EXPECT_LE(ledger.rearrangement_defect, 1e-9);
  }
}

TEST_F(CertificatesTest, ProfileCertificateDisablesItselfOnPreemptiveStreams) {
  // Non-uniform C runs preempt; kAuto must turn the band check off rather
  // than report garbage defects.
  const Instance inst({Job{kNoJob, 0.0, 2.0, 1.0}, Job{kNoJob, 0.2, 0.5, 4.0}});
  const std::vector<TraceEvent> evs = capture([&] { (void)run_c(inst, 2.0); });
  bool preempted = false;
  for (const TraceEvent& ev : evs) preempted |= ev.kind == EventKind::kPreemption;
  ASSERT_TRUE(preempted);
  const CertificateLedger ledger = obs::cert::certify_events(evs, 2.0);
  EXPECT_DOUBLE_EQ(ledger.max_defect, 0.0);
  EXPECT_DOUBLE_EQ(ledger.rearrangement_defect, -1.0);
}

// The prefix bound is each solve's grid dual, a lower bound on the grid
// optimum.  On mixed densities FISTA's objective is a feasible point above
// the optimum, so using it could lift OPT_lb past OPT.
TEST_F(CertificatesTest, MixedDensityPrefixBoundIsTheSolvesDual) {
  const Instance inst({Job{kNoJob, 0.0, 2.0, 1.0}, Job{kNoJob, 0.2, 0.5, 4.0}});
  const std::vector<TraceEvent> evs = capture([&] { (void)run_c(inst, 2.0); });
  const CertOptions options;  // kPrefixConvex
  const CertificateLedger ledger = obs::cert::certify_events(evs, 2.0, options);
  const ConvexOptResult solve = solve_fractional_opt(
      inst, 2.0, {.slots = options.opt_slots, .max_iters = obs::cert::kCertOptMaxIters});
  ASSERT_LT(solve.dual, solve.objective);
  double lb_after_second_release = -1.0;
  for (const CertRecord& r : ledger.records) {
    if (r.kind == EventKind::kJobRelease && r.job == 1) lb_after_second_release = r.opt_lb_cum;
  }
  EXPECT_EQ(lb_after_second_release, solve.dual);
  EXPECT_EQ(ledger.opt_lb_final, solve.dual);
}

// --- Serialization: golden bytes and replay round-trips ---------------------

/// The committed golden JSONL event trace (tests/golden/, pinned by
/// test_bench_ledger) re-certified: this is exactly what the CI smoke job's
/// `trace_tool --certify` run must reproduce, byte for byte.
std::string certify_golden_event_trace() {
  const std::string trace_path =
      std::string(SPEEDSCALE_TEST_DATA_DIR) + "/golden/events_golden.jsonl";
  std::ifstream f(trace_path);
  EXPECT_TRUE(f.is_open()) << "missing golden file " << trace_path;
  const obs::cert::ReplayedTrace replayed = obs::cert::replay_jsonl_trace(f);
  const CertificateLedger ledger = obs::cert::certify_events(replayed.events, 2.0);
  return obs::cert::certificates_jsonl(ledger);
}

TEST_F(CertificatesTest, GoldenEventTraceCertifiesByteStably) {
  const std::string actual = certify_golden_event_trace();

  const std::string golden_path =
      std::string(SPEEDSCALE_TEST_DATA_DIR) + "/golden/certificates_golden.jsonl";
  std::ifstream f(golden_path);
  ASSERT_TRUE(f.is_open()) << "missing golden file " << golden_path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string expected = ss.str();

  if (actual != expected) {
    const std::string dump = ::testing::TempDir() + "certificates_actual.jsonl";
    std::ofstream(dump) << actual;
    FAIL() << "certificate JSONL drifted from " << golden_path << "\nactual written to " << dump
           << "\nif the change is intentional, update the golden file to match";
  }
}

TEST_F(CertificatesTest, JsonlReplayReproducesTheLiveLedger) {
  const Instance inst = uniform_instance(10, 7);
  const double alpha = 2.0;

  // Live: capture the stream twice — once as events, once through the JSONL
  // sink — and certify both.
  auto ring = std::make_shared<obs::RingBufferSink>(1 << 18);
  std::ostringstream jsonl;
  auto sink = std::make_shared<obs::JsonlSink>(jsonl);
  {
    obs::ScopedTracing tracing(ring);
    obs::Tracer::instance().add_sink(sink);
    (void)run_nc_uniform(inst, alpha);
    obs::Tracer::instance().remove_sink(sink.get());
  }
  const CertificateLedger live = obs::cert::certify_events(ring->events(), alpha);

  std::istringstream is(jsonl.str());
  const obs::cert::ReplayedTrace replayed = obs::cert::replay_jsonl_trace(is);
  const CertificateLedger back = obs::cert::certify_events(replayed.events, alpha);

  // Byte-identical certificate streams: replay loses nothing the ledger uses.
  EXPECT_EQ(obs::cert::certificates_jsonl(back), obs::cert::certificates_jsonl(live));
}

/// The ModelError message replay_jsonl_trace throws on `text` ("" if none).
std::string replay_error(const std::string& text) {
  std::istringstream is(text);
  try {
    (void)obs::cert::replay_jsonl_trace(is);
  } catch (const ModelError& e) {
    return e.what();
  }
  return "";
}

TEST_F(CertificatesTest, ReplayRejectsMalformedInputWithLineNumbers) {
  EXPECT_NE(replay_error("{\"kind\":\"job_release\",\"t\":0,\"value\":1,\"aux\":1}\nnot json\n")
                .find("line 2"),
            std::string::npos);
  {
    std::istringstream is("{\"kind\":\"no_such_kind\",\"t\":0,\"value\":0,\"aux\":0}\n");
    EXPECT_THROW((void)obs::cert::replay_jsonl_trace(is), ModelError);
  }
  EXPECT_THROW((void)obs::cert::certify_events({}, 1.0), ModelError);  // alpha <= 1
  EXPECT_NE(replay_error("{\"kind\":\"job_release\",\"t\":0,\"value\":1,\"aux\":1}\n"
                         "{\"kind\":\"job_release\",\"value\":1,\"aux\":1}\n")
                .find("line 2: field 't' is missing"),
            std::string::npos);
}

TEST_F(CertificatesTest, ReplayRejectsIdsThatAreNotInt32WithTheLine) {
  const std::string ok = "{\"kind\":\"job_release\",\"t\":0,\"value\":1,\"aux\":1}\n";
  for (const std::string id : {"1e300", "2147483648", "-2", "1.5", "\"nan\"", "\"inf\""}) {
    for (const std::string field : {"job", "machine"}) {
      const std::string bad = "{\"kind\":\"job_release\",\"t\":0,\"" + field + "\":" + id +
                              ",\"value\":1,\"aux\":1}\n";
      const std::string what = replay_error(ok + bad);
      EXPECT_NE(what.find("line 2"), std::string::npos) << field << "=" << id << ": " << what;
      EXPECT_NE(what.find(field), std::string::npos) << what;
    }
  }
  std::istringstream edges(
      "{\"kind\":\"job_release\",\"t\":0,\"job\":2147483647,\"machine\":-1,\"value\":1,"
      "\"aux\":1}\n");
  const obs::cert::ReplayedTrace replayed = obs::cert::replay_jsonl_trace(edges);
  ASSERT_EQ(replayed.events.size(), 1u);
  EXPECT_EQ(replayed.events[0].job, 2147483647);
  EXPECT_EQ(replayed.events[0].machine, kNoMachine);
}

TEST_F(CertificatesTest, ReplayRejectsAChromeExportAsWriteOnly) {
  const std::string what = replay_error("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n");
  EXPECT_NE(what.find("write-only"), std::string::npos) << what;
  EXPECT_NE(what.find("--trace"), std::string::npos) << what;
}

TEST_F(CertificatesTest, NonFiniteEventsAreErrorsNotCertificates) {
  const std::vector<TraceEvent> good = {
      {.kind = EventKind::kJobRelease, .t = 0.0, .job = 0, .value = 1.0, .aux = 1.0},
      {.kind = EventKind::kSpeedChange, .t = 0.0, .value = 1.0, .aux = 1.0},
      {.kind = EventKind::kJobComplete, .t = 1.0, .job = 0, .value = 1.0, .aux = 1.0},
  };
  const CertOptions single{.opt_lb = obs::cert::OptLbMode::kSingleJob};
  EXPECT_EQ(obs::cert::certify_events(good, 2.0, single).records.size(), 3u);
  const double nan = std::nan("");
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (double TraceEvent::*field : {&TraceEvent::t, &TraceEvent::value, &TraceEvent::aux}) {
      for (const double bad_value : {nan, kInf, -kInf}) {
        std::vector<TraceEvent> bad = good;
        bad[i].*field = bad_value;
        // A speed change's payload is not read by the ledger; its time is.
        if (bad[i].kind == EventKind::kSpeedChange && field != &TraceEvent::t) {
          EXPECT_NO_THROW((void)obs::cert::certify_events(bad, 2.0, single));
        } else {
          EXPECT_THROW((void)obs::cert::certify_events(bad, 2.0, single), ModelError)
              << "event " << i;
        }
      }
    }
  }
}

TEST_F(CertificatesTest, NonPositiveReleasesAreErrorsNotCertificates) {
  // A release's value is the job's volume and its aux the density; at or
  // below zero the job is not a job, and the ledger must not certify it.
  const CertOptions single{.opt_lb = obs::cert::OptLbMode::kSingleJob};
  for (double TraceEvent::*field : {&TraceEvent::value, &TraceEvent::aux}) {
    for (const double bad_value : {-1.0, 0.0, -0.0}) {
      std::vector<TraceEvent> bad = {
          {.kind = EventKind::kJobRelease, .t = 0.0, .job = 7, .value = 1.0, .aux = 1.0},
          {.kind = EventKind::kJobComplete, .t = 1.0, .job = 7, .value = 1.0, .aux = 1.0},
      };
      bad[0].*field = bad_value;
      try {
        (void)obs::cert::certify_events(bad, 2.0, single);
        ADD_FAILURE() << "certified a release with " << bad_value;
      } catch (const ModelError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(field == &TraceEvent::value ? "volume" : "density"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("job 7"), std::string::npos) << what;
      }
    }
  }
}

// --- Harness integration ----------------------------------------------------

TEST_F(CertificatesTest, RatioHarnessAttachesCertificatesWhenAsked) {
  const Instance inst = uniform_instance(8, 9);
  analysis::SuiteOptions options;
  options.include_opt = false;
  options.include_nonuniform = false;
  options.certify = true;
  const analysis::SuiteResult suite = analysis::run_suite(inst, 2.0, options);

  std::size_t certified = 0;
  for (const analysis::AlgoOutcome& o : suite.outcomes) {
    if (!o.certified) continue;
    ++certified;
    EXPECT_GT(o.cert_records, 0u) << o.name;
    if (o.name == "NC (uniform)") {
      EXPECT_EQ(o.cert_violations, 0u);
      EXPECT_GE(o.cert_min_slack, 0.0);
      EXPECT_GE(o.cert_min_slack_int, 0.0);
    }
  }
  // Exactly the two streams the ledger understands: C and NC-uniform.
  EXPECT_EQ(certified, 2u);

  analysis::SuiteOptions off = options;
  off.certify = false;
  for (const analysis::AlgoOutcome& o : analysis::run_suite(inst, 2.0, off).outcomes) {
    EXPECT_FALSE(o.certified) << o.name;
  }
}

}  // namespace
}  // namespace speedscale
