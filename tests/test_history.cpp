// Perf-history observatory tests: speedscale.history/1 wire format (golden
// byte-pin + strict/lenient fuzz corpus in the test_fuzz tradition),
// sentinel verdict policy (counters hard, wall advisory, drift, changepoint
// determinism).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/history/history_store.h"
#include "src/obs/history/sentinel.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/perf/bench_ledger.h"
#include "src/robust/diagnostics.h"

namespace speedscale {
namespace {

namespace hist = obs::history;

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  EXPECT_TRUE(static_cast<bool>(f)) << "cannot open " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// A fixed synthetic ledger: `steps` lets tests inject a counter regression.
std::string make_ledger(std::int64_t steps, double wall_base = 1000.0) {
  obs::perf::BenchLedger ledger("history-test");
  ledger.set_config("git_hash", "deadbeefcafe");
  ledger.set_config("mode", "pinned");
  auto& a = ledger.entry("sim.alpha/16");
  a.repetitions = 3;
  a.wall_ns = {wall_base, wall_base + 25.0, wall_base - 10.0};
  a.counters["sim.steps"] = steps;
  a.counters["opt.iters"] = 77;
  auto& b = ledger.entry("sim.beta/32");
  b.repetitions = 3;
  b.wall_ns = {2.0 * wall_base, 2.0 * wall_base + 50.0, 2.0 * wall_base - 20.0};
  b.counters["sim.steps"] = 2 * steps;
  return ledger.to_json();
}

/// The golden trajectory: two clean bench runs.  The committed
/// tests/golden/history_golden.jsonl pins these exact bytes.
hist::HistoryStore make_golden_store() {
  hist::HistoryStore store;
  store.ingest_bench_ledger(make_ledger(500));
  store.ingest_bench_ledger(make_ledger(500, 1040.0));
  return store;
}

// --- Wire format ----------------------------------------------------------

TEST(HistoryStore, GoldenWireFormatBytePinned) {
  const std::string golden_path =
      std::string(SPEEDSCALE_TEST_DATA_DIR) + "/golden/history_golden.jsonl";
  const std::string expected = read_file(golden_path);
  const hist::HistoryStore store = make_golden_store();
  const std::string actual = store.to_jsonl();
  if (actual != expected) {
    const std::string dump = ::testing::TempDir() + "history_golden.jsonl.actual";
    std::ofstream(dump) << actual;
    FAIL() << "speedscale.history/1 drifted from " << golden_path << "\nactual written to "
           << dump;
  }
  // The committed bytes also reparse (strict) to the same bytes.
  const hist::HistoryStore back = hist::HistoryStore::parse(expected, hist::LoadMode::kStrict);
  EXPECT_EQ(back.to_jsonl(), expected);
}

TEST(HistoryStore, RecordRoundTripAndCanonicalOrder) {
  const hist::HistoryStore store = make_golden_store();
  ASSERT_FALSE(store.records().empty());
  EXPECT_EQ(store.runs(), 2u);
  EXPECT_EQ(store.bench_entries(), 2u);
  EXPECT_EQ(store.next_run(), 2);
  // Canonical (run, kind, entry) order, and every line reparses to itself.
  for (std::size_t i = 1; i < store.records().size(); ++i) {
    const auto& a = store.records()[i - 1];
    const auto& b = store.records()[i];
    EXPECT_LE(std::make_tuple(a.run, a.kind, a.entry),
              std::make_tuple(b.run, b.kind, b.entry));
  }
}

TEST(HistoryStore, OutOfOrderLinesCanonicalizeToSameBytes) {
  const hist::HistoryStore store = make_golden_store();
  const std::string doc = store.to_jsonl();
  // Reverse the record lines; both modes must restore canonical order.
  std::istringstream in(doc);
  std::string line, header;
  std::getline(in, header);
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  std::string shuffled = header + '\n';
  for (auto it = lines.rbegin(); it != lines.rend(); ++it) shuffled += *it + '\n';
  for (const auto mode : {hist::LoadMode::kStrict, hist::LoadMode::kLenient}) {
    const hist::HistoryStore back = hist::HistoryStore::parse(shuffled, mode);
    EXPECT_EQ(back.to_jsonl(), doc);
  }
}

TEST(HistoryStore, WriteFileLoadFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "history_roundtrip.jsonl";
  const hist::HistoryStore store = make_golden_store();
  store.write_file(path);
  const hist::HistoryStore back = hist::HistoryStore::load_file(path, hist::LoadMode::kStrict);
  EXPECT_EQ(back.to_jsonl(), store.to_jsonl());
  std::filesystem::remove(path);
  // Missing file: strict throws typed, lenient returns empty.
  EXPECT_THROW((void)hist::HistoryStore::load_file(path, hist::LoadMode::kStrict),
               robust::RobustError);
  hist::LoadStats stats;
  const hist::HistoryStore empty =
      hist::HistoryStore::load_file(path, hist::LoadMode::kLenient, &stats);
  EXPECT_TRUE(empty.records().empty());
  EXPECT_EQ(stats.skipped_lines, 0u);
}

// --- Fuzz corpus: torn / duplicated / out-of-order lines ------------------

struct HistoryCorpusCase {
  const char* name;
  const char* input;  ///< appended after a valid header + one valid record
  std::size_t lenient_records;
  std::size_t lenient_skipped;
  std::size_t lenient_duplicates;
  bool strict_throws;
};

// Print a case as its name so the parameter (and the ctest name derived from
// it) is stable; the default raw-byte dump includes string-literal addresses,
// which change with every run under ASLR.
void PrintTo(const HistoryCorpusCase& c, std::ostream* os) { *os << c.name; }

constexpr const char kValidRecord[] =
    "{\"config\":{},\"counters\":{\"c\":1},\"entry\":\"e/1\",\"kind\":\"bench\",\"run\":0,"
    "\"suite\":\"s\",\"wall_ns\":[1]}";

class HistoryCorpus : public ::testing::TestWithParam<HistoryCorpusCase> {};

TEST_P(HistoryCorpus, LenientSkipsAndCountsStrictThrowsTyped) {
  const HistoryCorpusCase& c = GetParam();
  std::string doc = "{\"schema\":\"speedscale.history/1\"}\n";
  doc += std::string(kValidRecord) + "\n";
  doc += c.input;

  hist::LoadStats stats;
  const hist::HistoryStore lenient =
      hist::HistoryStore::parse(doc, hist::LoadMode::kLenient, &stats);
  EXPECT_EQ(lenient.records().size(), c.lenient_records) << c.name;
  EXPECT_EQ(stats.skipped_lines, c.lenient_skipped) << c.name;
  EXPECT_EQ(stats.duplicates, c.lenient_duplicates) << c.name;

  if (c.strict_throws) {
    try {
      (void)hist::HistoryStore::parse(doc, hist::LoadMode::kStrict);
      FAIL() << c.name << ": strict load did not throw";
    } catch (const robust::RobustError& e) {
      EXPECT_EQ(e.code(), robust::ErrorCode::kIoMalformed) << c.name;
      // The typed context names the offending line.
      EXPECT_NE(e.diagnostic().context.find("line"), std::string::npos) << c.name;
    }
  } else {
    EXPECT_NO_THROW((void)hist::HistoryStore::parse(doc, hist::LoadMode::kStrict)) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, HistoryCorpus,
    ::testing::Values(
        HistoryCorpusCase{"clean", "", 1, 0, 0, false},
        HistoryCorpusCase{"torn_tail",
                          "{\"config\":{},\"counters\":{\"c\":2},\"entry\":\"e/2\",\"ki", 1, 1,
                          0, true},
        HistoryCorpusCase{"duplicate_key_last_wins",
                          "{\"config\":{},\"counters\":{\"c\":9},\"entry\":\"e/1\",\"kind\":"
                          "\"bench\",\"run\":0,\"suite\":\"s\",\"wall_ns\":[2]}\n",
                          1, 0, 1, true},
        HistoryCorpusCase{"out_of_order_runs_legal",
                          "{\"config\":{},\"counters\":{\"c\":1},\"entry\":\"e/1\",\"kind\":"
                          "\"bench\",\"run\":2,\"suite\":\"s\",\"wall_ns\":[1]}\n"
                          "{\"config\":{},\"counters\":{\"c\":1},\"entry\":\"e/1\",\"kind\":"
                          "\"bench\",\"run\":1,\"suite\":\"s\",\"wall_ns\":[1]}\n",
                          3, 0, 0, false},
        HistoryCorpusCase{"unknown_kind",
                          "{\"entry\":\"e/9\",\"kind\":\"mystery\",\"run\":0}\n", 1, 1, 0,
                          true},
        HistoryCorpusCase{"missing_required_key",
                          "{\"counters\":{},\"entry\":\"e/3\",\"kind\":\"bench\",\"run\":1,"
                          "\"suite\":\"s\",\"wall_ns\":[]}\n",
                          1, 1, 0, true},
        HistoryCorpusCase{"wrong_type_run",
                          "{\"config\":{},\"counters\":{},\"entry\":\"e/4\",\"kind\":"
                          "\"bench\",\"run\":\"zero\",\"suite\":\"s\",\"wall_ns\":[]}\n",
                          1, 1, 0, true},
        HistoryCorpusCase{"retired_cost_kind",
                          "{\"entry\":\"item/0\",\"kind\":\"cost\",\"run\":1,\"run_id\":"
                          "\"r\",\"shard\":0,\"wall_ms\":1.5,\"work_units\":12}\n",
                          1, 1, 0, true},
        HistoryCorpusCase{"blank_lines_ignored", "\n\n", 1, 0, 0, false}));

TEST(HistoryStore, MissingHeaderStrictThrowsLenientSkips) {
  const std::string doc = std::string(kValidRecord) + "\n";
  EXPECT_THROW((void)hist::HistoryStore::parse(doc, hist::LoadMode::kStrict),
               robust::RobustError);
  hist::LoadStats stats;
  const hist::HistoryStore lenient =
      hist::HistoryStore::parse(doc, hist::LoadMode::kLenient, &stats);
  // Without a header nothing is trusted: the record line is counted, not kept.
  EXPECT_TRUE(lenient.records().empty());
  EXPECT_EQ(stats.skipped_lines, 1u);
}

// --- Sentinel -------------------------------------------------------------

TEST(Sentinel, NoChangeRerunIsOk) {
  hist::HistoryStore store;
  for (int i = 0; i < 4; ++i) store.ingest_bench_ledger(make_ledger(500));
  const hist::SentinelReport report = hist::analyze(store);
  EXPECT_EQ(report.overall(), hist::Verdict::kOk);
  EXPECT_EQ(report.n_regression, 0u);
  EXPECT_EQ(report.n_advisory, 0u);
}

TEST(Sentinel, InjectedCounterRegressionFlaggedDeterministically) {
  hist::HistoryStore store;
  for (int i = 0; i < 4; ++i) store.ingest_bench_ledger(make_ledger(500));
  store.ingest_bench_ledger(make_ledger(525));  // the seeded regression
  // Deterministic: two analyses of the same trajectory agree exactly.
  for (int round = 0; round < 2; ++round) {
    const hist::SentinelReport report = hist::analyze(store);
    EXPECT_EQ(report.overall(), hist::Verdict::kRegression);
    // sim.steps moved in both entries (500->525 and 1000->1050).
    EXPECT_EQ(report.n_regression, 2u);
    for (const hist::SeriesVerdict& sv : report.series) {
      if (sv.verdict != hist::Verdict::kRegression) continue;
      EXPECT_EQ(sv.metric, "sim.steps");
      EXPECT_EQ(sv.changepoint_run, 4);
      EXPECT_NE(sv.reason.find("counter moved"), std::string::npos);
    }
    // opt.iters never moved: its series stays ok.
    bool opt_ok = false;
    for (const hist::SeriesVerdict& sv : report.series) {
      if (sv.metric == "opt.iters") opt_ok = sv.verdict == hist::Verdict::kOk;
    }
    EXPECT_TRUE(opt_ok);
  }
}

TEST(Sentinel, WallExcursionIsAdvisoryNotRegression) {
  hist::HistoryStore store;
  for (int i = 0; i < 6; ++i) {
    store.ingest_bench_ledger(make_ledger(500, 1000.0 + 5.0 * (i % 3)));
  }
  store.ingest_bench_ledger(make_ledger(500, 4000.0));  // 4x wall, same counters
  const hist::SentinelReport report = hist::analyze(store);
  EXPECT_EQ(report.overall(), hist::Verdict::kAdvisory);
  EXPECT_EQ(report.n_regression, 0u);
  bool wall_flagged = false;
  for (const hist::SeriesVerdict& sv : report.series) {
    if (sv.metric == "wall_min_ns" && sv.verdict == hist::Verdict::kAdvisory) {
      wall_flagged = true;
      EXPECT_EQ(sv.changepoint_run, 6);
    }
  }
  EXPECT_TRUE(wall_flagged);
}

TEST(Sentinel, MonotoneWallDriftIsAdvisory) {
  hist::HistoryStore store;
  // Flat for four runs, then a strictly-rising ramp: the cumulative rise
  // over the last drift_runs runs exceeds the (flat-history) band.
  for (int i = 0; i < 4; ++i) store.ingest_bench_ledger(make_ledger(500, 1000.0));
  for (int i = 0; i < 4; ++i) {
    store.ingest_bench_ledger(make_ledger(500, 1200.0 + 200.0 * i));
  }
  const hist::SentinelReport report = hist::analyze(store);
  bool drift_seen = false;
  for (const hist::SeriesVerdict& sv : report.series) {
    if (sv.metric == "wall_min_ns" && sv.drift) {
      drift_seen = true;
      EXPECT_EQ(sv.verdict, hist::Verdict::kAdvisory);
    }
  }
  EXPECT_TRUE(drift_seen);
  EXPECT_EQ(report.n_regression, 0u);
}

TEST(Sentinel, SingleRunHasNothingToJudge) {
  hist::HistoryStore store;
  store.ingest_bench_ledger(make_ledger(500));
  const hist::SentinelReport report = hist::analyze(store);
  EXPECT_EQ(report.overall(), hist::Verdict::kOk);
  for (const hist::SeriesVerdict& sv : report.series) {
    EXPECT_EQ(sv.n_points, 1u);
    EXPECT_EQ(sv.verdict, hist::Verdict::kOk);
  }
}

TEST(Sentinel, GaugesPublishVerdictTallies) {
  hist::HistoryStore store;
  for (int i = 0; i < 3; ++i) store.ingest_bench_ledger(make_ledger(500));
  store.ingest_bench_ledger(make_ledger(510));
  const hist::SentinelReport report = hist::analyze(store);
  hist::publish_sentinel_gauges(report);
  hist::LoadStats stats;
  stats.skipped_lines = 3;
  stats.duplicates = 1;
  store.publish_gauges(&stats);
  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(reg.gauge("history.sentinel_regression").value(),
            static_cast<double>(report.n_regression));
  EXPECT_EQ(reg.gauge("history.runs").value(), 4.0);
  EXPECT_EQ(reg.gauge("history.load_skipped_lines").value(), 3.0);
  EXPECT_EQ(reg.gauge("history.load_duplicates").value(), 1.0);
}

}  // namespace
}  // namespace speedscale
