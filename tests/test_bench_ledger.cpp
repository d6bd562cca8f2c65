// Tests for the bench telemetry pipeline: the minimal JSON parser
// (src/obs/json_min.h), the canonical bench ledger and its round-trip
// (src/obs/perf/bench_ledger.h), and the Chrome trace exporter's golden
// output (src/obs/perf/chrome_trace.h) — the byte-level contracts that
// BENCH.json and scripts/bench_compare.py rely on.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/obs/json_min.h"
#include "src/obs/json_util.h"
#include "src/obs/perf/bench_ledger.h"
#include "src/obs/perf/chrome_trace.h"
#include "src/obs/profiler.h"
#include "src/obs/trace.h"

namespace speedscale {
namespace {

using obs::JsonValue;
using obs::parse_json;
using obs::perf::BenchEntry;
using obs::perf::BenchLedger;

// ---------------------------------------------------------------- json_min

TEST(JsonMin, ParsesScalarsArraysAndNestedObjects) {
  const JsonValue v = parse_json(
      R"({"a":[1,2.5,-3e2],"b":{"t":true,"f":false,"n":null},"s":"x\ny \u0041\\"})");
  ASSERT_TRUE(v.is_object());
  const JsonValue& a = v.at("a");
  ASSERT_TRUE(a.is_array());
  ASSERT_EQ(a.array.size(), 3u);
  EXPECT_DOUBLE_EQ(a.array[0].number, 1.0);
  EXPECT_DOUBLE_EQ(a.array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a.array[2].number, -300.0);
  EXPECT_TRUE(v.at("b").at("t").boolean);
  EXPECT_FALSE(v.at("b").at("f").boolean);
  EXPECT_TRUE(v.at("b").at("n").is_null());
  EXPECT_EQ(v.at("s").string, "x\ny A\\");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), ModelError);
}

TEST(JsonMin, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_json(""), ModelError);
  EXPECT_THROW((void)parse_json("{"), ModelError);
  EXPECT_THROW((void)parse_json("[1,]"), ModelError);
  EXPECT_THROW((void)parse_json("{\"a\":1,}"), ModelError);
  EXPECT_THROW((void)parse_json("{'a':1}"), ModelError);
  EXPECT_THROW((void)parse_json("nul"), ModelError);
  EXPECT_THROW((void)parse_json("1 2"), ModelError);  // trailing garbage
  EXPECT_THROW((void)parse_json("\"\\q\""), ModelError);
}

TEST(JsonMin, RoundTripsJsonUtilStringEscapes) {
  std::string encoded;
  obs::append_json_string(encoded, "quote\" slash\\ ctrl\x01 tab\t");
  const JsonValue v = parse_json(encoded);
  EXPECT_EQ(v.string, "quote\" slash\\ ctrl\x01 tab\t");
}

// ------------------------------------------------------------ bench ledger

BenchLedger sample_ledger() {
  BenchLedger ledger("unit-test");
  ledger.set_config("alpha", "2");
  ledger.set_config("mode", "full");
  BenchEntry& a = ledger.entry("sim.algorithm_c/64");
  a.repetitions = 3;
  a.wall_ns = {1500.0, 1200.0, 1300.0};
  a.counters = {{"sim.c_machine.segments", 127}, {"sim.c_machine.steps", 64}};
  BenchEntry& b = ledger.entry("gbench.perf/BM_X");
  b.source = "google_benchmark";
  b.repetitions = 1;
  b.wall_ns = {2500.5};
  return ledger;
}

TEST(BenchLedger, WallStatisticsAreNoiseRobust) {
  const BenchLedger ledger = sample_ledger();
  const BenchEntry& a = ledger.entries().at("sim.algorithm_c/64");
  EXPECT_DOUBLE_EQ(a.wall_min_ns(), 1200.0);
  EXPECT_DOUBLE_EQ(a.wall_median_ns(), 1300.0);
  const BenchEntry empty;
  EXPECT_DOUBLE_EQ(empty.wall_min_ns(), 0.0);
  EXPECT_DOUBLE_EQ(empty.wall_median_ns(), 0.0);
}

TEST(BenchLedger, SerializationIsCanonical) {
  const std::string json = sample_ledger().to_json();
  // Top-level and per-entry keys in sorted order; schema version present.
  const auto pos = [&json](const char* needle) { return json.find(needle); };
  EXPECT_LT(pos("\"config\""), pos("\"entries\""));
  EXPECT_LT(pos("\"entries\""), pos("\"schema\""));
  EXPECT_LT(pos("\"schema\""), pos("\"suite\""));
  EXPECT_LT(pos("\"counters\""), pos("\"repetitions\""));
  EXPECT_LT(pos("\"repetitions\""), pos("\"source\""));
  EXPECT_LT(pos("\"source\""), pos("\"wall_ns\""));
  EXPECT_LT(pos("sim.c_machine.segments"), pos("sim.c_machine.steps"));
  EXPECT_NE(pos("\"speedscale.bench_ledger/1\""), std::string::npos);
  EXPECT_NE(pos("\"gbench.perf/BM_X\""), std::string::npos);
}

TEST(BenchLedger, RoundTripsByteIdentically) {
  const std::string json = sample_ledger().to_json();
  const BenchLedger back = BenchLedger::from_json(json);
  EXPECT_EQ(back.suite(), "unit-test");
  EXPECT_EQ(back.config().at("alpha"), "2");
  EXPECT_EQ(back.entries().at("sim.algorithm_c/64").counters.at("sim.c_machine.segments"), 127);
  EXPECT_EQ(back.entries().at("gbench.perf/BM_X").source, "google_benchmark");
  // The serialize -> parse -> serialize fixed point: byte identity is what
  // makes committed ledgers diffable.
  EXPECT_EQ(back.to_json(), json);
}

TEST(BenchLedger, FromJsonRejectsWrongSchemaAndMalformedInput) {
  EXPECT_THROW((void)BenchLedger::from_json("{}"), ModelError);
  EXPECT_THROW((void)BenchLedger::from_json("not json"), ModelError);
  std::string wrong = sample_ledger().to_json();
  const std::string::size_type at = wrong.find("bench_ledger/1");
  ASSERT_NE(at, std::string::npos);
  wrong.replace(at, 14, "bench_ledger/9");
  EXPECT_THROW((void)BenchLedger::from_json(wrong), ModelError);
}

TEST(BenchLedger, WriteFileCommitsAtomically) {
  const std::string path = ::testing::TempDir() + "ledger_atomic.json";
  sample_ledger().write_file(path);
  std::ifstream f(path);
  ASSERT_TRUE(f.is_open());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(ss.str(), sample_ledger().to_json() + "\n");
  // No ".tmp" sibling is left behind.
  EXPECT_FALSE(std::ifstream(path + ".tmp").is_open());
  std::remove(path.c_str());
}

// ----------------------------------------------------------- chrome trace

/// A fixed event stream + profiler aggregate: two jobs, one preemption, a
/// speed staircase.  Everything below is model data, so the exporter's
/// output is a pure function of it — pinned by the golden file.
std::vector<obs::TraceEvent> golden_events() {
  using obs::EventKind;
  return {
      {.kind = EventKind::kPhaseBoundary, .t = 0.0, .value = 2.0, .aux = 2.0, .label = "golden"},
      {.kind = EventKind::kJobRelease, .t = 0.0, .job = 0, .value = 1.0, .aux = 1.0},
      {.kind = EventKind::kSpeedChange, .t = 0.0, .value = 1.0, .aux = 1.0},
      {.kind = EventKind::kJobRelease, .t = 0.25, .job = 1, .value = 0.5, .aux = 2.0},
      {.kind = EventKind::kPreemption, .t = 0.25, .job = 0, .value = 1.0, .aux = 0.75},
      {.kind = EventKind::kSpeedChange, .t = 0.25, .value = 1.5, .aux = 2.0},
      {.kind = EventKind::kJobComplete, .t = 0.5, .job = 1, .value = 0.8, .aux = 0.3},
      {.kind = EventKind::kSpeedChange, .t = 0.5, .value = 1.0, .aux = 1.0},
      {.kind = EventKind::kJobComplete, .t = 1.25, .job = 0, .value = 1.9, .aux = 1.4},
      {.kind = EventKind::kPhaseBoundary, .t = 1.25, .value = 2.0, .aux = 2.0,
       .label = "golden.end"},
  };
}

std::vector<obs::ProfileEntry> golden_profile() {
  return {
      {.label = "sim.run", .count = 2, .total_ns = 3000, .min_ns = 1000, .max_ns = 2000},
      {.label = "analysis.export", .count = 1, .total_ns = 500, .min_ns = 500, .max_ns = 500},
  };
}

TEST(ChromeTrace, MatchesGoldenFile) {
  const std::string actual =
      obs::perf::chrome_trace_json(golden_events(), golden_profile());

  const std::string golden_path =
      std::string(SPEEDSCALE_TEST_DATA_DIR) + "/golden/chrome_trace_golden.json";
  std::ifstream f(golden_path);
  ASSERT_TRUE(f.is_open()) << "missing golden file " << golden_path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string expected = ss.str();

  if (actual + "\n" != expected) {
    const std::string dump = ::testing::TempDir() + "chrome_trace_actual.json";
    std::ofstream(dump) << actual << "\n";
    FAIL() << "chrome trace drifted from " << golden_path << "\nactual written to " << dump
           << "\nif the change is intentional, update the golden file to match";
  }
}

// The same stream as the JSONL event trace `trace_tool --trace` records:
// the replay input of the certificate golden test (test_certificates) and
// of CI's `trace_tool --certify` step.
TEST(EventTrace, MatchesGoldenFile) {
  std::string actual;
  for (const obs::TraceEvent& ev : golden_events()) {
    obs::append_event_json(actual, ev);
    actual += '\n';
  }

  const std::string golden_path =
      std::string(SPEEDSCALE_TEST_DATA_DIR) + "/golden/events_golden.jsonl";
  std::ifstream f(golden_path);
  ASSERT_TRUE(f.is_open()) << "missing golden file " << golden_path;
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_EQ(actual, ss.str()) << "event trace drifted from " << golden_path;
}

TEST(ChromeTrace, OutputIsValidJsonWithExpectedStructure) {
  const JsonValue doc =
      parse_json(obs::perf::chrome_trace_json(golden_events(), golden_profile()));
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const JsonValue& evs = doc.at("traceEvents");
  ASSERT_TRUE(evs.is_array());

  int slices = 0, counters = 0, instants = 0, meta = 0;
  bool saw_profile_pid = false;
  for (const JsonValue& ev : evs.array) {
    const std::string& ph = ev.at("ph").string;
    if (ph == "X") ++slices;
    if (ph == "C") ++counters;
    if (ph == "i") ++instants;
    if (ph == "M") ++meta;
    if (ev.at("pid").number == 2.0) saw_profile_pid = true;
  }
  // 2 job slices + 2 profiler slices, 3 speed-counter samples, a preemption
  // + 2 completions + 2 phase boundaries as instants, 2 process names.
  EXPECT_EQ(slices, 4);
  EXPECT_EQ(counters, 3);
  EXPECT_EQ(instants, 5);
  EXPECT_EQ(meta, 2);
  EXPECT_TRUE(saw_profile_pid);
}

TEST(ChromeTrace, ModelTimeScaleIsConfigurable) {
  obs::perf::ChromeTraceOptions opts;
  opts.model_time_scale = 1e3;  // model seconds -> 1000 trace microseconds each
  const JsonValue doc = parse_json(obs::perf::chrome_trace_json(golden_events(), {}, opts));
  double max_ts = 0.0;
  for (const JsonValue& ev : doc.at("traceEvents").array) {
    if (const JsonValue* ts = ev.find("ts")) max_ts = std::max(max_ts, ts->number);
  }
  // The last model event is at t=1.25 -> 1250 under the 1e3 scale.
  EXPECT_DOUBLE_EQ(max_ts, 1250.0);
}

}  // namespace
}  // namespace speedscale
