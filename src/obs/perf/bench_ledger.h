// Bench ledger: the canonical, versioned record of what a bench suite cost.
//
// The simulators are exact for P = s^alpha, so the *work* an algorithm
// performs — quadrature intervals, root-solver iterations, bracket
// expansions, preemptions — is deterministic per seed.  That makes work
// counters a noise-free regression signal where wall-clock time is ±10%
// machine noise (EXPERIMENTS.md E19).  The ledger records both, per bench:
//
//   * work counters — a MetricsRegistry counter snapshot taken around each
//     repetition; byte-for-byte reproducible, hard-fail on any delta
//     (scripts/bench_compare.py);
//   * wall times — one sample per repetition; advisory-only downstream
//     (min-of-medians, warn above 25%).
//
// Schema (version speedscale.bench_ledger/1; all keys sorted, numbers
// locale-independent "%.17g" via src/obs/json_util.h):
//
//   {"config":{"<key>":"<value>",...},
//    "entries":{"<bench>":{"counters":{"<name>":N,...},
//                          "repetitions":R,
//                          "source":"runner"|"google_benchmark",
//                          "wall_ns":[...per-rep...]},...},
//    "schema":"speedscale.bench_ledger/1",
//    "suite":"<label>"}
//
// bench/bench_suite_runner.cpp produces ledgers for the pinned in-process
// suite; scripts/run_bench_suite.py merges google-benchmark JSON into the
// same schema and commits the combined artifact (BENCH.json).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace speedscale::obs {
struct JsonValue;
}  // namespace speedscale::obs

namespace speedscale::obs::perf {

/// One bench's record: deterministic counters plus per-repetition wall time.
struct BenchEntry {
  std::string source = "runner";
  int repetitions = 0;
  std::vector<double> wall_ns;                     ///< one sample per repetition
  std::map<std::string, std::int64_t> counters;    ///< registry snapshot deltas

  /// Noise-robust wall statistics (0 when no samples were recorded).
  [[nodiscard]] double wall_min_ns() const;
  [[nodiscard]] double wall_median_ns() const;
};

/// Name -> entry map with versioned JSON (de)serialization.
class BenchLedger {
 public:
  static constexpr const char* kSchemaVersion = "speedscale.bench_ledger/1";

  explicit BenchLedger(std::string suite = "default");

  [[nodiscard]] const std::string& suite() const { return suite_; }

  /// Free-form suite configuration (mode, alpha, ...), recorded so
  /// a ledger is self-describing; keys serialize sorted.
  void set_config(const std::string& key, std::string value);
  [[nodiscard]] const std::map<std::string, std::string>& config() const { return config_; }

  /// Get-or-create the entry for `name`.
  BenchEntry& entry(const std::string& name);
  [[nodiscard]] const std::map<std::string, BenchEntry>& entries() const { return entries_; }

  /// Canonical serialization (schema comment above).  Deterministic: equal
  /// ledgers serialize byte-identically on every platform and locale.
  [[nodiscard]] std::string to_json() const;

  /// Crash-safe write (tmp + atomic rename) of to_json() + trailing newline.
  void write_file(const std::string& path) const;

  /// Parses a ledger back from its JSON form; throws ModelError on a
  /// malformed document or a schema-version mismatch.
  static BenchLedger from_json(const std::string& text);

 private:
  std::string suite_;
  std::map<std::string, std::string> config_;
  std::map<std::string, BenchEntry> entries_;
};

}  // namespace speedscale::obs::perf
