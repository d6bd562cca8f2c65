// perf_report: the perf-history observatory's CLI — ingest, trend, gate.
//
//   perf_report --store H.jsonl --ingest BENCH_PR3.json [--ingest ...]
//   perf_report --store H.jsonl --report [--window K] [--entry SUBSTR]
//   perf_report --store H.jsonl --gate [--markdown report.md]
//   perf_report --self-test
//
// --ingest appends each speedscale.bench_ledger/1 document as one new run of
// the speedscale.history/1 trajectory (one bench record per ledger entry)
// and rewrites the store crash-safely.  Ingest order defines run order, so a
// fixed CI recipe (baselines first, current ledgers after) yields a
// deterministic trajectory.
//
// --report runs the regression sentinel (src/obs/history/sentinel.h) over
// every bench series: deterministic counters hard-verdict on any change,
// wall times advisory against a median/MAD noise band, monotone drift
// flagged.  Trend tables print via analysis::Table with an ascii sparkline
// per series; --markdown writes the same report as a CI-pasteable table.
//
// Exit codes (trace_tool --certify convention): 0 ok, 1 load/ingest error,
// 2 usage, 3 a regression verdict with --gate.  Advisory verdicts never
// gate — the counters-hard/wall-advisory contract of docs/observability.md.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/ascii_chart.h"
#include "src/analysis/table.h"
#include "src/obs/history/history_store.h"
#include "src/obs/history/sentinel.h"
#include "src/obs/json_min.h"
#include "src/obs/perf/bench_ledger.h"
#include "src/robust/atomic_io.h"

using namespace speedscale;
namespace hist = obs::history;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Ingests one document after checking its "schema" key.
std::int64_t ingest_document(hist::HistoryStore& store, const std::string& text,
                             const std::string& path) {
  const obs::JsonValue doc = obs::parse_json(text);
  const obs::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string()) {
    throw std::runtime_error(path + ": no schema key");
  }
  if (schema->string == "speedscale.bench_ledger/1") return store.ingest_bench_ledger(text);
  throw std::runtime_error(path + ": unsupported schema " + schema->string);
}

bool contains(const std::string& haystack, const std::string& needle) {
  return needle.empty() || haystack.find(needle) != std::string::npos;
}

void print_report(const hist::HistoryStore& store, const hist::SentinelReport& report,
                  const std::string& entry_filter, bool verbose_ok) {
  std::printf("perf history: %zu run(s), %zu bench entr%s\n", store.runs(),
              store.bench_entries(), store.bench_entries() == 1 ? "y" : "ies");
  analysis::Table table({"entry", "metric", "verdict", "runs", "latest", "center", "band",
                         "trend", "note"});
  std::size_t rows = 0;
  for (const hist::SeriesVerdict& sv : report.series) {
    if (!contains(sv.entry, entry_filter)) continue;
    if (!verbose_ok && sv.verdict == hist::Verdict::kOk && sv.changepoint_run < 0) continue;
    std::string note = sv.reason;
    if (sv.changepoint_run >= 0) {
      if (!note.empty()) note += "; ";
      note += "changepoint @ run " + std::to_string(sv.changepoint_run);
    }
    table.add_row({sv.entry, sv.metric, hist::verdict_name(sv.verdict),
                   analysis::Table::cell(static_cast<long>(sv.n_points)),
                   analysis::Table::cell(sv.latest), analysis::Table::cell(sv.median),
                   analysis::Table::cell(sv.band), analysis::sparkline(sv.values, 16), note});
    ++rows;
  }
  std::ostringstream os;
  if (rows > 0) {
    table.print(os);
  } else {
    os << "(no series to show — every series ok with no changepoint; use --all to list)\n";
  }
  std::fputs(os.str().c_str(), stdout);
  std::printf("sentinel: %zu ok, %zu advisory, %zu regression -> %s\n", report.n_ok,
              report.n_advisory, report.n_regression, hist::verdict_name(report.overall()));
}

void write_markdown(const std::string& path, const hist::HistoryStore& store,
                    const hist::SentinelReport& report, const std::string& entry_filter) {
  std::ostringstream md;
  md << "# Perf history report\n\n";
  md << "- runs: " << store.runs() << "\n- bench entries: " << store.bench_entries()
     << "\n- overall verdict: **" << hist::verdict_name(report.overall()) << "** ("
     << report.n_ok << " ok, " << report.n_advisory << " advisory, " << report.n_regression
     << " regression)\n\n";
  md << "| entry | metric | verdict | runs | latest | center | band | trend | note |\n";
  md << "|---|---|---|---:|---:|---:|---:|---|---|\n";
  for (const hist::SeriesVerdict& sv : report.series) {
    if (!contains(sv.entry, entry_filter)) continue;
    if (sv.verdict == hist::Verdict::kOk && sv.changepoint_run < 0) continue;
    std::string note = sv.reason;
    if (sv.changepoint_run >= 0) {
      if (!note.empty()) note += "; ";
      note += "changepoint @ run " + std::to_string(sv.changepoint_run);
    }
    md << "| " << sv.entry << " | " << sv.metric << " | " << hist::verdict_name(sv.verdict)
       << " | " << sv.n_points << " | " << analysis::Table::cell(sv.latest) << " | "
       << analysis::Table::cell(sv.median) << " | " << analysis::Table::cell(sv.band) << " | `"
       << analysis::sparkline(sv.values, 16) << "` | " << note << " |\n";
  }
  const std::string doc = md.str();
  robust::atomic_write_file(path, [&](std::ostream& os) { os << doc; });
}

/// Deterministic end-to-end self-check: a seeded injected counter regression
/// must flag, and a no-change rerun must stay ok.  Mirrors the acceptance
/// criterion so CI can assert it without fixture files.
int self_test() {
  auto make_ledger = [](std::int64_t steps) {
    obs::perf::BenchLedger ledger("selftest");
    ledger.set_config("mode", "selftest");
    auto& e = ledger.entry("sim.toy/8");
    e.repetitions = 3;
    e.wall_ns = {1000.0, 1010.0, 990.0};
    e.counters["sim.steps"] = steps;
    return ledger.to_json();
  };
  hist::HistoryStore store;
  for (int run = 0; run < 4; ++run) store.ingest_bench_ledger(make_ledger(500));

  // No-change rerun: every series ok.
  {
    const hist::SentinelReport report = hist::analyze(store);
    if (report.overall() != hist::Verdict::kOk || report.n_regression != 0) {
      std::fprintf(stderr, "self-test: clean trajectory not ok\n");
      return 1;
    }
  }
  // Injected counter regression: must flag, deterministically, twice.
  store.ingest_bench_ledger(make_ledger(525));
  for (int round = 0; round < 2; ++round) {
    const hist::SentinelReport report = hist::analyze(store);
    if (report.overall() != hist::Verdict::kRegression || report.n_regression != 1) {
      std::fprintf(stderr, "self-test: injected regression not flagged\n");
      return 1;
    }
    const hist::SeriesVerdict* flagged = nullptr;
    for (const hist::SeriesVerdict& sv : report.series) {
      if (sv.verdict == hist::Verdict::kRegression) flagged = &sv;
    }
    if (flagged == nullptr || flagged->metric != "sim.steps" ||
        flagged->changepoint_run != 4) {
      std::fprintf(stderr, "self-test: wrong series flagged\n");
      return 1;
    }
  }
  // Round-trip: the trajectory reparses byte-identically.
  const std::string doc = store.to_jsonl();
  const hist::HistoryStore reparsed = hist::HistoryStore::parse(doc, hist::LoadMode::kStrict);
  if (reparsed.to_jsonl() != doc) {
    std::fprintf(stderr, "self-test: round-trip not byte-stable\n");
    return 1;
  }
  std::printf("perf_report self-test ok\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_report --store FILE [--ingest FILE]... [--lenient]\n"
               "                   [--report] [--all] [--window K] [--entry SUBSTR]\n"
               "                   [--markdown FILE] [--gate] [--self-test]\n"
               "  exit codes: 0 ok, 1 error, 2 usage, 3 regression (with --gate)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_path, entry_filter, markdown_path;
  std::vector<std::string> ingest;
  long window = 8;
  bool lenient = false, report_flag = false, gate = false, all = false, do_self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--store" && i + 1 < argc) {
      store_path = argv[++i];
    } else if (arg == "--ingest" && i + 1 < argc) {
      ingest.push_back(argv[++i]);
    } else if (arg == "--entry" && i + 1 < argc) {
      entry_filter = argv[++i];
    } else if (arg == "--markdown" && i + 1 < argc) {
      markdown_path = argv[++i];
    } else if (arg == "--window" && i + 1 < argc) {
      window = std::atol(argv[++i]);
    } else if (arg == "--lenient") {
      lenient = true;
    } else if (arg == "--report") {
      report_flag = true;
    } else if (arg == "--all") {
      all = true;
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg == "--self-test") {
      do_self_test = true;
    } else {
      return usage();
    }
  }
  if (do_self_test) return self_test();
  if (store_path.empty() || window < 2) return usage();

  try {
    hist::LoadStats stats;
    const hist::LoadMode mode = lenient ? hist::LoadMode::kLenient : hist::LoadMode::kStrict;
    // A store that doesn't exist yet is a normal first --ingest; strict mode
    // only insists on files it can open being well-formed.
    hist::HistoryStore store;
    if (std::ifstream(store_path)) {
      store = hist::HistoryStore::load_file(store_path, mode, &stats);
    }

    for (const std::string& path : ingest) {
      const std::int64_t run = ingest_document(store, read_file(path), path);
      std::printf("ingested %s as run %lld\n", path.c_str(), static_cast<long long>(run));
    }
    if (!ingest.empty()) store.write_file(store_path);
    store.publish_gauges(&stats);

    hist::SentinelOptions opt;
    opt.window = static_cast<std::size_t>(window);
    const hist::SentinelReport report = hist::analyze(store, opt);
    hist::publish_sentinel_gauges(report);

    if (report_flag || gate || ingest.empty()) {
      print_report(store, report, entry_filter, all);
    }
    if (!markdown_path.empty()) write_markdown(markdown_path, store, report, entry_filter);
    if (gate && report.overall() == hist::Verdict::kRegression) return 3;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_report: %s\n", e.what());
    return 1;
  }
}
