// Tests for the observability subsystem (src/obs/): event tracing sinks,
// the metrics registry, the profiler, and their thread-safety under the
// analysis thread pool (all three pillars are hammered from concurrent
// workers and must produce exact totals); the build identity every snapshot
// carries; and the JsonlSink flush policy the segment recorder's spill uses.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <clocale>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/thread_pool.h"
#include "src/obs/build_info.h"
#include "src/obs/json_min.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/profiler.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"
#include "src/robust/atomic_io.h"

namespace speedscale {
namespace {

using obs::EventKind;
using obs::TraceEvent;

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// The tracer and registry are process-wide: every test starts and ends with
/// both quiet so suites cannot leak state into each other.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
  static void reset() {
    obs::Tracer::instance().set_enabled(false);
    obs::Tracer::instance().clear_sinks();
    obs::registry().reset_all();
    obs::profiler().reset();
    obs::set_metrics_enabled(false);
  }
};

TEST_F(ObsTest, EventKindNamesAreStable) {
  EXPECT_STREQ(obs::event_kind_name(EventKind::kJobRelease), "job_release");
  EXPECT_STREQ(obs::event_kind_name(EventKind::kJobComplete), "job_complete");
  EXPECT_STREQ(obs::event_kind_name(EventKind::kSpeedChange), "speed_change");
  EXPECT_STREQ(obs::event_kind_name(EventKind::kPreemption), "preemption");
  EXPECT_STREQ(obs::event_kind_name(EventKind::kDispatch), "dispatch");
  EXPECT_STREQ(obs::event_kind_name(EventKind::kPhaseBoundary), "phase_boundary");
}

TEST_F(ObsTest, RingBufferKeepsMostRecentAndCountsDrops) {
  obs::RingBufferSink ring(4);
  for (int i = 0; i < 10; ++i) {
    ring.on_event({.kind = EventKind::kSpeedChange, .t = static_cast<double>(i)});
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.dropped(), 6u);
  const std::vector<TraceEvent> evs = ring.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first snapshot of the last four events.
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(evs[static_cast<std::size_t>(i)].t, 6.0 + i);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST_F(ObsTest, JsonlSinkWritesOneValidObjectPerLine) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  sink.on_event({.kind = EventKind::kJobRelease, .t = 1.5, .job = 3, .value = 2.0, .aux = 1.0});
  sink.on_event({.kind = EventKind::kPhaseBoundary, .t = 0.0, .label = "suite \"x\""});
  sink.flush();
  EXPECT_EQ(sink.lines(), 2u);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"kind\":\"job_release\""), std::string::npos);
  EXPECT_NE(text.find("\"job\":3"), std::string::npos);
  // kNoJob/kNoMachine fields are omitted, labels are escaped.
  EXPECT_EQ(text.find("\"machine\""), std::string::npos);
  EXPECT_NE(text.find("\\\"x\\\""), std::string::npos);
  // Exactly two newline-terminated lines.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST_F(ObsTest, SummarySinkCountsPerKind) {
  obs::SummarySink s;
  s.on_event({.kind = EventKind::kJobRelease, .t = 0.0});
  s.on_event({.kind = EventKind::kJobRelease, .t = 2.0});
  s.on_event({.kind = EventKind::kJobComplete, .t = 5.0});
  EXPECT_EQ(s.count(EventKind::kJobRelease), 2u);
  EXPECT_EQ(s.count(EventKind::kJobComplete), 1u);
  EXPECT_EQ(s.total(), 3u);
  const std::string text = s.summary();
  EXPECT_NE(text.find("3 events"), std::string::npos);
  EXPECT_NE(text.find("t=[0, 5]"), std::string::npos);
}

TEST_F(ObsTest, TraceEventMacroIsGatedOnEnableAndSuppress) {
  auto ring = std::make_shared<obs::RingBufferSink>();
  obs::Tracer::instance().add_sink(ring);

  // Disabled: nothing recorded.
  TRACE_EVENT(.kind = EventKind::kSpeedChange, .t = 1.0);
  EXPECT_EQ(ring->size(), 0u);

  obs::Tracer::instance().set_enabled(true);
  TRACE_EVENT(.kind = EventKind::kSpeedChange, .t = 2.0);
  EXPECT_EQ(ring->size(), 1u);

  {
    obs::TraceSuppressGuard guard;
    EXPECT_FALSE(obs::tracing_enabled());
    TRACE_EVENT(.kind = EventKind::kSpeedChange, .t = 3.0);
  }
  EXPECT_TRUE(obs::tracing_enabled());
  EXPECT_EQ(ring->size(), 1u);  // the suppressed event never arrived
}

TEST_F(ObsTest, ScopedTracingRestoresPriorState) {
  EXPECT_FALSE(obs::Tracer::instance().enabled());
  {
    obs::ScopedTracing scope(std::make_shared<obs::RingBufferSink>());
    EXPECT_TRUE(obs::Tracer::instance().enabled());
    EXPECT_EQ(obs::Tracer::instance().sink_count(), 1u);
  }
  EXPECT_FALSE(obs::Tracer::instance().enabled());
  EXPECT_EQ(obs::Tracer::instance().sink_count(), 0u);
}

TEST_F(ObsTest, CounterGaugeHistogramSemantics) {
  obs::Counter& c = obs::registry().counter("test.counter");
  c.add(3);
  c.add();
  EXPECT_EQ(c.value(), 4);
  // Same name -> same object.
  EXPECT_EQ(&c, &obs::registry().counter("test.counter"));

  obs::Gauge& g = obs::registry().gauge("test.gauge");
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  obs::Histogram& h = obs::registry().histogram("test.hist", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0
  h.observe(5.0);    // bucket 1
  h.observe(5.5);    // bucket 1
  h.observe(1000.0); // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 1011.0);
  const std::vector<std::int64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 2);
  EXPECT_EQ(buckets[2], 0);
  EXPECT_EQ(buckets[3], 1);
}

TEST_F(ObsTest, SnapshotJsonContainsEveryMetric) {
  obs::registry().counter("snap.counter").add(7);
  obs::registry().gauge("snap.gauge").set(0.25);
  obs::registry().histogram("snap.hist", {2.0}).observe(1.0);
  const std::string json = obs::registry().snapshot_json();
  EXPECT_NE(json.find("\"snap.counter\":7"), std::string::npos);
  EXPECT_NE(json.find("\"snap.gauge\":0.25"), std::string::npos);
  EXPECT_NE(json.find("\"snap.hist\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\":[2]"), std::string::npos);

  // The combined report embeds the same snapshot next to the profiler.
  { OBS_TIMED_SCOPE("snap.scope"); }
  const std::string report = obs::observability_report_json();
  EXPECT_NE(report.find("\"metrics\""), std::string::npos);
  EXPECT_NE(report.find("\"snap.counter\":7"), std::string::npos);
  EXPECT_NE(report.find("\"snap.scope\""), std::string::npos);
}

TEST_F(ObsTest, ObsCountIsGatedOnMetricsEnabled) {
  OBS_COUNT("test.gated", 5);
  EXPECT_EQ(obs::registry().counter("test.gated").value(), 0);
  obs::set_metrics_enabled(true);
  OBS_COUNT("test.gated", 5);
  OBS_COUNT("test.gated", 2);
  EXPECT_EQ(obs::registry().counter("test.gated").value(), 7);
}

TEST_F(ObsTest, ProfilerAggregatesPerLabel) {
  obs::profiler().record("p.a", 100);
  obs::profiler().record("p.a", 300);
  obs::profiler().record("p.b", 50);
  const std::vector<obs::ProfileEntry> snap = obs::profiler().snapshot();
  ASSERT_EQ(snap.size(), 2u);
  // Sorted by total descending.
  EXPECT_EQ(snap[0].label, "p.a");
  EXPECT_EQ(snap[0].count, 2);
  EXPECT_EQ(snap[0].total_ns, 400);
  EXPECT_EQ(snap[0].min_ns, 100);
  EXPECT_EQ(snap[0].max_ns, 300);
  EXPECT_DOUBLE_EQ(snap[0].mean_ns(), 200.0);
  EXPECT_EQ(snap[1].label, "p.b");

  { OBS_TIMED_SCOPE("p.timed"); }
  EXPECT_EQ(obs::profiler().snapshot().size(), 3u);
  EXPECT_NE(obs::profiler().snapshot_json().find("\"p.timed\""), std::string::npos);
}

// --- Thread-safety: all three pillars hammered from pool workers ------------

TEST_F(ObsTest, MetricsAreExactUnderConcurrentWorkers) {
  constexpr int kTasks = 64;
  constexpr int kOpsPerTask = 2000;
  obs::set_metrics_enabled(true);
  obs::Counter& c = obs::registry().counter("hammer.counter");
  obs::Gauge& g = obs::registry().gauge("hammer.gauge");
  obs::Histogram& h = obs::registry().histogram("hammer.hist", {0.5, 1.5, 2.5});

  analysis::ThreadPool pool(4);
  analysis::parallel_for(pool, kTasks, [&](std::size_t i) {
    for (int k = 0; k < kOpsPerTask; ++k) {
      c.add(1);
      g.add(1.0);
      h.observe(static_cast<double>((i + static_cast<std::size_t>(k)) % 3));
    }
  });

  constexpr std::int64_t kTotal = static_cast<std::int64_t>(kTasks) * kOpsPerTask;
  EXPECT_EQ(c.value(), kTotal);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kTotal));
  EXPECT_EQ(h.count(), kTotal);
  std::int64_t bucket_sum = 0;
  for (const std::int64_t b : h.bucket_counts()) bucket_sum += b;
  EXPECT_EQ(bucket_sum, kTotal);

  // The pool's own built-in metrics also saw every task exactly once.
  EXPECT_EQ(obs::registry().counter("analysis.thread_pool.tasks").value(), kTasks);
  EXPECT_EQ(obs::registry().histogram("analysis.thread_pool.task_latency_us", {}).count(), kTasks);
}

TEST_F(ObsTest, TracerDeliversEveryEventUnderConcurrentEmitters) {
  constexpr int kTasks = 32;
  constexpr int kOpsPerTask = 500;
  // Capacity above the event count: nothing may drop, totals must be exact.
  auto ring = std::make_shared<obs::RingBufferSink>(kTasks * kOpsPerTask + 16);
  auto summary = std::make_shared<obs::SummarySink>();
  obs::ScopedTracing tracing(ring);
  obs::Tracer::instance().add_sink(summary);

  analysis::ThreadPool pool(4);
  analysis::parallel_for(pool, kTasks, [&](std::size_t i) {
    for (int k = 0; k < kOpsPerTask; ++k) {
      TRACE_EVENT(.kind = EventKind::kSpeedChange, .t = static_cast<double>(k),
                  .job = static_cast<JobId>(i));
    }
  });

  constexpr std::size_t kTotal = static_cast<std::size_t>(kTasks) * kOpsPerTask;
  EXPECT_EQ(ring->size(), kTotal);
  EXPECT_EQ(ring->dropped(), 0u);
  EXPECT_EQ(summary->count(EventKind::kSpeedChange), kTotal);

  // Per-emitter event counts are exact too (delivery is lossless, not
  // merely approximately fair).
  std::vector<int> per_job(kTasks, 0);
  for (const TraceEvent& ev : ring->events()) {
    ASSERT_GE(ev.job, 0);
    ASSERT_LT(ev.job, kTasks);
    ++per_job[static_cast<std::size_t>(ev.job)];
  }
  for (int i = 0; i < kTasks; ++i) EXPECT_EQ(per_job[static_cast<std::size_t>(i)], kOpsPerTask);
  obs::Tracer::instance().remove_sink(summary.get());
}

TEST_F(ObsTest, ReportJsonRoundTripsThroughOwnParser) {
  obs::registry().counter("sim.c_machine.steps").add(64);
  obs::registry().counter("numerics.roots.brent_iters").add(7);
  obs::registry().gauge("analysis.ratio").set(2.391);
  obs::registry().histogram("sim.latency_us", {1.0, 10.0}).observe(3.5);
  obs::profiler().record("sim.run", 1500);
  obs::profiler().record("sim.run", 500);

  const obs::JsonValue doc = obs::parse_json(obs::observability_report_json());
  const obs::JsonValue& metrics = doc.at("metrics");
  EXPECT_DOUBLE_EQ(metrics.at("counters").at("sim.c_machine.steps").number, 64.0);
  EXPECT_DOUBLE_EQ(metrics.at("counters").at("numerics.roots.brent_iters").number, 7.0);
  EXPECT_DOUBLE_EQ(metrics.at("gauges").at("analysis.ratio").number, 2.391);
  EXPECT_DOUBLE_EQ(metrics.at("histograms").at("sim.latency_us").at("count").number, 1.0);
  const obs::JsonValue& prof = doc.at("profile").at("sim.run");
  EXPECT_DOUBLE_EQ(prof.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(prof.at("total_ns").number, 2000.0);
}

TEST_F(ObsTest, SnapshotJsonEmitsKeysSorted) {
  // Registered deliberately out of order; serialization must not care.
  obs::registry().counter("z.last").add(1);
  obs::registry().counter("a.first").add(1);
  obs::registry().counter("m.middle").add(1);
  obs::profiler().record("z.scope", 10);
  obs::profiler().record("a.scope", 10);

  const std::string metrics = obs::registry().snapshot_json();
  EXPECT_LT(metrics.find("\"a.first\""), metrics.find("\"m.middle\""));
  EXPECT_LT(metrics.find("\"m.middle\""), metrics.find("\"z.last\""));
  const std::string profile = obs::profiler().snapshot_json();
  EXPECT_LT(profile.find("\"a.scope\""), profile.find("\"z.scope\""));
}

TEST_F(ObsTest, SnapshotJsonIsLocaleIndependent) {
  obs::registry().gauge("locale.check").set(3.14159265358979);
  obs::profiler().record("locale.scope", 1234);

  // A locale whose decimal separator is ',' would corrupt "%.17g" output if
  // the formatter trusted it; json_util.h normalizes the separator.
  const char* prev = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = prev ? prev : "C";
  if (std::setlocale(LC_NUMERIC, "de_DE.UTF-8") == nullptr &&
      std::setlocale(LC_NUMERIC, "de_DE.utf8") == nullptr) {
    GTEST_SKIP() << "no de_DE locale installed; cannot exercise the ',' separator";
  }
  const std::string metrics = obs::registry().snapshot_json();
  const std::string profile = obs::profiler().snapshot_json();
  std::setlocale(LC_NUMERIC, saved.c_str());

  EXPECT_NE(metrics.find("3.14159265358979"), std::string::npos) << metrics;
  EXPECT_EQ(metrics.find("3,14"), std::string::npos) << metrics;  // the de_DE spelling
  // Parse back (under the restored default locale) and compare the value.
  const obs::JsonValue doc = obs::parse_json(metrics);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("locale.check").number, 3.14159265358979);
  EXPECT_NE(profile.find("\"locale.scope\""), std::string::npos);
}

TEST_F(ObsTest, ProfilerIsExactUnderConcurrentWorkers) {
  constexpr int kTasks = 48;
  analysis::ThreadPool pool(4);
  analysis::parallel_for(pool, kTasks, [&](std::size_t) {
    OBS_TIMED_SCOPE("hammer.scope");
  });
  const std::vector<obs::ProfileEntry> snap = obs::profiler().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].count, kTasks);
  EXPECT_GE(snap[0].total_ns, 0);
  EXPECT_LE(snap[0].min_ns, snap[0].max_ns);
}

TEST(BuildInfo, SnapshotJsonIsSelfIdentifying) {
  const obs::JsonValue doc = obs::parse_json(obs::registry().snapshot_json());
  const obs::JsonValue& info = doc.at("build_info");
  EXPECT_EQ(info.at("git_hash").string, obs::build_info().git_hash);
  EXPECT_EQ(info.at("compiler").string, obs::build_info().compiler);
  EXPECT_EQ(info.at("alpha_config").string, "runtime");
  EXPECT_FALSE(info.at("cxx_standard").string.empty());
}

TEST(JsonlFlushPolicy, EveryNFlushesWithoutClose) {
  const std::string path = ::testing::TempDir() + "flush_every_n.jsonl";
  std::remove(path.c_str());
  obs::JsonlSink sink(path);
  obs::JsonlSink::FlushPolicy policy;
  policy.mode = obs::JsonlSink::FlushPolicy::Mode::kEveryN;
  policy.every_n = 2;
  sink.set_flush_policy(policy);

  sink.write_line("{\"n\":1}");
  sink.write_line("{\"n\":2}");
  sink.write_line("{\"n\":3}");
  // No close(): the crash-survival contract — flushed lines must already be
  // readable in the ".tmp" sibling.
  const std::string tmp = read_file(robust::tmp_sibling(path));
  std::size_t lines = 0;
  for (const char c : tmp) lines += (c == '\n');
  EXPECT_GE(lines, 2u) << "every-2 policy must have flushed the first two lines";
  sink.close();
  EXPECT_EQ(sink.lines(), 3u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace speedscale
