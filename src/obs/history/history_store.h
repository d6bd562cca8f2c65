// Perf-history trajectory store: every bench ledger, longitudinally, in one
// byte-stable JSONL file.
//
// The repo's point-in-time perf artifacts (BENCH_PR*.json work-counter
// ledgers) each describe ONE run.  The HistoryStore ingests any number of
// them into a single `speedscale.history/1` trajectory, keyed by
// (run, kind, entry), so the regression sentinel (sentinel.h) can fit noise
// bands over the last K runs.
//
// Wire format (speedscale.history/1): a header line
//
//   {"schema":"speedscale.history/1"}
//
// followed by one sorted-key JSON record per line, records ordered by
// (run, kind, entry).  One record kind:
//
//   bench  {"config":{...},"counters":{...},"entry":"<bench>",
//           "kind":"bench","run":N,"suite":"<label>","wall_ns":[...]}
//
// `run` is a monotone ingest sequence number assigned by the store (one per
// ingested document); `config` carries the source ledger's config map —
// including the PR 6 build_info git_hash — so a trajectory is
// self-describing.  Numbers use the "%.17g" locale-independent encoding of
// src/obs/json_util.h; equal stores serialize byte-identically everywhere.
//
// Load modes mirror read_trace (docs/robustness.md): strict throws a typed
// RobustError (kIoMalformed, context "line N") on the first malformed or
// duplicate-key line; lenient skips-and-counts torn lines and resolves
// duplicate (run, kind, entry) keys last-line-wins.  Out-of-order lines are
// legal input in both modes — records are canonicalized on load, so
// load(to_jsonl()) round-trips byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace speedscale::obs::history {

inline constexpr const char* kHistorySchema = "speedscale.history/1";

/// One trajectory record: one bench entry of one ingested ledger.
struct HistoryRecord {
  std::string kind = "bench";  ///< the only kind; part of the record key
  std::int64_t run = 0;        ///< monotone ingest sequence number
  std::string entry;           ///< bench name

  std::string suite;
  std::map<std::string, std::string> config;
  std::map<std::string, std::int64_t> counters;
  std::vector<double> wall_ns;

  /// Canonical one-line serialization (sorted keys, "%.17g" numbers).
  [[nodiscard]] std::string to_json() const;

  /// Noise-robust wall summary (0 when no samples).
  [[nodiscard]] double wall_min_ns() const;
};

enum class LoadMode { kStrict, kLenient };

/// What a lenient load tolerated (both zero on a clean file).
struct LoadStats {
  std::size_t skipped_lines = 0;  ///< torn/malformed lines dropped
  std::size_t duplicates = 0;     ///< same-(run,kind,entry) lines superseded
};

class HistoryStore {
 public:
  [[nodiscard]] const std::vector<HistoryRecord>& records() const { return records_; }

  /// The run id the next ingested document will receive (max seen + 1).
  [[nodiscard]] std::int64_t next_run() const;
  /// Distinct run ids present.
  [[nodiscard]] std::size_t runs() const;
  /// Distinct bench entry names present.
  [[nodiscard]] std::size_t bench_entries() const;

  /// Inserts one record, replacing any existing (run, kind, entry) match,
  /// and keeps the store canonically ordered.
  void append(HistoryRecord record);

  /// Ingests one speedscale.bench_ledger/1 document as run next_run():
  /// one bench record per ledger entry, config copied through.  Returns the
  /// assigned run id.  Throws ModelError on a malformed ledger.
  std::int64_t ingest_bench_ledger(const std::string& ledger_json);

  /// Canonical serialization: header line + one record per line.
  [[nodiscard]] std::string to_jsonl() const;
  /// Crash-safe write (tmp + atomic rename) of to_jsonl().
  void write_file(const std::string& path) const;

  /// Parses a trajectory.  Strict throws RobustError (kIoMalformed, context
  /// "line N") on a bad header, malformed line, or duplicate key; lenient
  /// skips-and-counts into `stats` (may be nullptr).
  static HistoryStore parse(const std::string& text, LoadMode mode, LoadStats* stats = nullptr);
  /// parse() over a file.  A missing file throws in strict mode and returns
  /// an empty store in lenient mode.
  static HistoryStore load_file(const std::string& path, LoadMode mode,
                                LoadStats* stats = nullptr);

  /// Publishes history.* gauges (gauges only — the determinism contract):
  /// history.runs, history.bench_entries, history.records, plus
  /// history.load_{skipped_lines,duplicates} from `stats` when given.
  void publish_gauges(const LoadStats* stats = nullptr) const;

 private:
  void canonicalize();

  std::vector<HistoryRecord> records_;
};

/// One (run, value) sample of a series.
struct SeriesPoint {
  std::int64_t run = 0;
  double value = 0.0;
};

/// Extracts per-entry bench series: entry -> metric -> run-ordered points,
/// where metric is each counter name plus "wall_min_ns" (bench records with
/// wall samples only).  The sentinel's input.
[[nodiscard]] std::map<std::string, std::map<std::string, std::vector<SeriesPoint>>>
bench_series(const HistoryStore& store);

}  // namespace speedscale::obs::history
