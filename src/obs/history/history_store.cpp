#include "src/obs/history/history_store.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/obs/json_min.h"
#include "src/obs/json_util.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/perf/bench_ledger.h"
#include "src/robust/atomic_io.h"
#include "src/robust/diagnostics.h"

namespace speedscale::obs::history {

namespace {

[[noreturn]] void malformed(const std::string& what, const std::string& context = {}) {
  throw robust::RobustError(robust::ErrorCode::kIoMalformed, "history: " + what, context);
}

std::tuple<std::int64_t, const std::string&, const std::string&> record_key(
    const HistoryRecord& r) {
  return {r.run, r.kind, r.entry};
}

bool record_less(const HistoryRecord& a, const HistoryRecord& b) {
  return record_key(a) < record_key(b);
}

void append_string_map(std::string& out, const std::map<std::string, std::string>& m) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, k);
    out += ':';
    append_json_string(out, v);
  }
  out += '}';
}

void append_counter_map(std::string& out, const std::map<std::string, std::int64_t>& m) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, k);
    out += ':' + std::to_string(v);
  }
  out += '}';
}

std::int64_t require_int(const JsonValue& obj, const char* key, const std::string& ctx) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number() || !std::isfinite(v->number) ||
      v->number != std::floor(v->number)) {
    malformed(std::string("expected integer '") + key + "'", ctx);
  }
  return static_cast<std::int64_t>(v->number);
}

std::string require_string(const JsonValue& obj, const char* key, const std::string& ctx) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) {
    malformed(std::string("expected string '") + key + "'", ctx);
  }
  return v->string;
}

/// Parses one record line (already known to be valid JSON) into a
/// HistoryRecord; throws via malformed() with `ctx` on structural errors.
HistoryRecord parse_record(const JsonValue& v, const std::string& ctx) {
  if (!v.is_object()) malformed("record is not an object", ctx);
  HistoryRecord r;
  r.kind = require_string(v, "kind", ctx);
  r.run = require_int(v, "run", ctx);
  r.entry = require_string(v, "entry", ctx);
  if (r.kind == "bench") {
    r.suite = require_string(v, "suite", ctx);
    const JsonValue* config = v.find("config");
    if (config == nullptr || !config->is_object()) malformed("expected object 'config'", ctx);
    for (const auto& [k, val] : config->object) {
      if (!val.is_string()) malformed("config value is not a string", ctx);
      r.config[k] = val.string;
    }
    const JsonValue* counters = v.find("counters");
    if (counters == nullptr || !counters->is_object()) {
      malformed("expected object 'counters'", ctx);
    }
    for (const auto& [k, val] : counters->object) {
      if (!val.is_number()) malformed("counter value is not a number", ctx);
      r.counters[k] = static_cast<std::int64_t>(val.number);
    }
    const JsonValue* wall = v.find("wall_ns");
    if (wall == nullptr || !wall->is_array()) malformed("expected array 'wall_ns'", ctx);
    for (const JsonValue& w : wall->array) {
      if (!w.is_number() || !std::isfinite(w.number)) malformed("bad wall_ns sample", ctx);
      r.wall_ns.push_back(w.number);
    }
  } else {
    malformed("unknown record kind '" + r.kind + "'", ctx);
  }
  return r;
}

}  // namespace

std::string HistoryRecord::to_json() const {
  std::string out = "{\"config\":";
  append_string_map(out, config);
  out += ",\"counters\":";
  append_counter_map(out, counters);
  out += ",\"entry\":";
  append_json_string(out, entry);
  out += ",\"kind\":\"bench\",\"run\":" + std::to_string(run);
  out += ",\"suite\":";
  append_json_string(out, suite);
  out += ",\"wall_ns\":[";
  for (std::size_t i = 0; i < wall_ns.size(); ++i) {
    if (i > 0) out += ',';
    append_json_number(out, wall_ns[i]);
  }
  out += "]}";
  return out;
}

double HistoryRecord::wall_min_ns() const {
  if (wall_ns.empty()) return 0.0;
  return *std::min_element(wall_ns.begin(), wall_ns.end());
}

void HistoryStore::canonicalize() {
  std::stable_sort(records_.begin(), records_.end(), record_less);
}

std::int64_t HistoryStore::next_run() const {
  std::int64_t max_run = -1;
  for (const HistoryRecord& r : records_) max_run = std::max(max_run, r.run);
  return max_run + 1;
}

std::size_t HistoryStore::runs() const {
  std::int64_t last = -1;
  std::size_t n = 0;
  for (const HistoryRecord& r : records_) {  // records_ is sorted by run first
    if (r.run != last) {
      ++n;
      last = r.run;
    }
  }
  return n;
}

std::size_t HistoryStore::bench_entries() const {
  std::vector<const std::string*> names;
  for (const HistoryRecord& r : records_) {
    if (r.kind == "bench") names.push_back(&r.entry);
  }
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });
  names.erase(std::unique(names.begin(), names.end(),
                          [](const std::string* a, const std::string* b) { return *a == *b; }),
              names.end());
  return names.size();
}

void HistoryStore::append(HistoryRecord record) {
  for (HistoryRecord& r : records_) {
    if (record_key(r) == record_key(record)) {
      r = std::move(record);
      return;
    }
  }
  records_.push_back(std::move(record));
  canonicalize();
}

std::int64_t HistoryStore::ingest_bench_ledger(const std::string& ledger_json) {
  const perf::BenchLedger ledger = perf::BenchLedger::from_json(ledger_json);
  const std::int64_t run = next_run();
  for (const auto& [name, entry] : ledger.entries()) {
    HistoryRecord r;
    r.kind = "bench";
    r.run = run;
    r.entry = name;
    r.suite = ledger.suite();
    r.config = ledger.config();
    r.counters = entry.counters;
    r.wall_ns = entry.wall_ns;
    records_.push_back(std::move(r));
  }
  canonicalize();
  return run;
}

std::string HistoryStore::to_jsonl() const {
  std::string out = "{\"schema\":\"";
  out += kHistorySchema;
  out += "\"}\n";
  for (const HistoryRecord& r : records_) {
    out += r.to_json();
    out += '\n';
  }
  return out;
}

void HistoryStore::write_file(const std::string& path) const {
  const std::string doc = to_jsonl();
  robust::atomic_write_file(path, [&](std::ostream& os) { os << doc; });
}

HistoryStore HistoryStore::parse(const std::string& text, LoadMode mode, LoadStats* stats) {
  HistoryStore store;
  LoadStats local;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  // Last-line-wins duplicate resolution in lenient mode: remember where each
  // key landed.
  std::map<std::tuple<std::int64_t, std::string, std::string>, std::size_t> index;
  while (std::getline(in, line)) {
    ++line_no;
    const std::string ctx = "line " + std::to_string(line_no);
    if (line.empty()) continue;
    JsonValue v;
    try {
      v = parse_json(line);
    } catch (const std::exception& e) {
      if (mode == LoadMode::kStrict) {
        malformed(std::string("unparseable line: ") + e.what(), ctx);
      }
      ++local.skipped_lines;
      continue;
    }
    if (!header_seen) {
      // The first parseable line must be the schema header.
      const JsonValue* schema = v.is_object() ? v.find("schema") : nullptr;
      if (schema == nullptr || !schema->is_string() || schema->string != kHistorySchema) {
        if (mode == LoadMode::kStrict) malformed("missing or unknown schema header", ctx);
        ++local.skipped_lines;
        continue;
      }
      header_seen = true;
      continue;
    }
    HistoryRecord r;
    try {
      r = parse_record(v, ctx);
    } catch (const robust::RobustError&) {
      if (mode == LoadMode::kStrict) throw;
      ++local.skipped_lines;
      continue;
    }
    const auto key = std::make_tuple(r.run, r.kind, r.entry);
    const auto it = index.find(key);
    if (it != index.end()) {
      if (mode == LoadMode::kStrict) {
        malformed("duplicate record key (run=" + std::to_string(r.run) + " kind=" + r.kind +
                      " entry=" + r.entry + ")",
                  ctx);
      }
      ++local.duplicates;
      store.records_[it->second] = std::move(r);
      continue;
    }
    index[key] = store.records_.size();
    store.records_.push_back(std::move(r));
  }
  if (!header_seen && mode == LoadMode::kStrict && line_no > 0) {
    malformed("missing or unknown schema header", "line 1");
  }
  store.canonicalize();
  if (stats != nullptr) *stats = local;
  return store;
}

HistoryStore HistoryStore::load_file(const std::string& path, LoadMode mode, LoadStats* stats) {
  std::ifstream f(path);
  if (!f) {
    if (mode == LoadMode::kStrict) malformed("cannot open history file", path);
    if (stats != nullptr) *stats = LoadStats{};
    return HistoryStore{};
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse(ss.str(), mode, stats);
}

void HistoryStore::publish_gauges(const LoadStats* stats) const {
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.gauge("history.runs").set(static_cast<double>(runs()));
  reg.gauge("history.bench_entries").set(static_cast<double>(bench_entries()));
  reg.gauge("history.records").set(static_cast<double>(records_.size()));
  if (stats != nullptr) {
    reg.gauge("history.load_skipped_lines").set(static_cast<double>(stats->skipped_lines));
    reg.gauge("history.load_duplicates").set(static_cast<double>(stats->duplicates));
  }
}

std::map<std::string, std::map<std::string, std::vector<SeriesPoint>>> bench_series(
    const HistoryStore& store) {
  std::map<std::string, std::map<std::string, std::vector<SeriesPoint>>> out;
  for (const HistoryRecord& r : store.records()) {  // already (run, kind, entry)-ordered
    if (r.kind != "bench") continue;
    auto& metrics = out[r.entry];
    for (const auto& [name, value] : r.counters) {
      metrics[name].push_back({r.run, static_cast<double>(value)});
    }
    if (!r.wall_ns.empty()) {
      metrics["wall_min_ns"].push_back({r.run, r.wall_min_ns()});
    }
  }
  return out;
}

}  // namespace speedscale::obs::history
