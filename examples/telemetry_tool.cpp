// telemetry_tool: terminal client for the live telemetry plane.
//
//   telemetry_tool --connect ADDRESS                 # dump /metrics (Prometheus text)
//   telemetry_tool --connect ADDRESS --endpoint /snapshot.json
//   telemetry_tool --connect ADDRESS --list          # series names, last, rate
//   telemetry_tool --connect ADDRESS --watch [--metric NAME]...
//                  [--interval-ms N] [--frames N] [--no-clear]
//
// ADDRESS is "HOST:PORT" or "unix:PATH" — whatever a serving process
// printed (e.g. `datacenter_cluster --serve-metrics 0 --port-file F`).
// --watch polls /series.json and renders the selected series (default: the
// highest-rate counter) as an ASCII chart (src/analysis/ascii_chart.h) with
// a rate table, refreshing in place.  --frames bounds the refresh count so
// the watch view is scriptable (CI smoke uses --frames 2).
//
// A watch never dies mid-run because the plane under it hiccuped: a failed
// poll re-renders the previous frame marked STALE, and a series that was
// selected but disappeared between polls (hub pruning, publisher restart) is
// annotated "(gone)" instead of silently vanishing from the chart.  Only a
// failure on the *first* poll — nothing ever scraped — exits 1.
//
// Exit codes: 0 ok, 1 connection/scrape failure, 2 usage.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/analysis/ascii_chart.h"
#include "src/core/types.h"
#include "src/obs/json_min.h"
#include "src/obs/live/telemetry_server.h"

using namespace speedscale;

namespace {

struct SeriesInfo {
  std::string name;
  std::string kind;
  double last = 0.0;
  double rate = 0.0;
  std::vector<double> t, v;
};

std::vector<SeriesInfo> fetch_series(const std::string& address) {
  const obs::JsonValue doc = obs::parse_json(obs::live::scrape(address, "/series.json"));
  std::vector<SeriesInfo> out;
  const obs::JsonValue* series = doc.find("series");
  if (series == nullptr || !series->is_object()) return out;
  for (const auto& [name, val] : series->object) {
    SeriesInfo info;
    info.name = name;
    if (const obs::JsonValue* kind = val.find("kind")) info.kind = kind->string;
    if (const obs::JsonValue* last = val.find("last")) info.last = last->number;
    if (const obs::JsonValue* rate = val.find("rate")) info.rate = rate->number;
    if (const obs::JsonValue* points = val.find("points")) {
      for (const obs::JsonValue& p : points->array) {
        if (p.array.size() == 2) {
          info.t.push_back(p.array[0].number);
          info.v.push_back(p.array[1].number);
        }
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

int run_list(const std::string& address) {
  const std::vector<SeriesInfo> series = fetch_series(address);
  std::printf("%-52s %-9s %14s %12s\n", "series", "kind", "last", "rate/s");
  for (const SeriesInfo& s : series) {
    std::printf("%-52s %-9s %14.4g %12.4g\n", s.name.c_str(), s.kind.c_str(), s.last, s.rate);
  }
  std::printf("%zu series\n", series.size());
  return 0;
}

/// The default watch target: the counter moving fastest right now.
std::string pick_default_metric(const std::vector<SeriesInfo>& series) {
  std::string best;
  double best_rate = -1.0;
  for (const SeriesInfo& s : series) {
    if (s.kind != "counter") continue;
    if (s.rate > best_rate) {
      best_rate = s.rate;
      best = s.name;
    }
  }
  if (best.empty() && !series.empty()) best = series.front().name;
  return best;
}

const SeriesInfo* find_series(const std::vector<SeriesInfo>& series, const std::string& name) {
  for (const SeriesInfo& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

int run_watch(const std::string& address, std::vector<std::string> metrics, long interval_ms,
              long frames, bool clear) {
  const char glyphs[] = {'*', '+', 'o', 'x'};
  std::vector<SeriesInfo> series;   // last successful poll (kept across failures)
  bool ever_fetched = false;
  std::string stale_reason;
  for (long frame = 0; frames == 0 || frame < frames; ++frame) {
    // Degrade, don't die: a run being watched may briefly drop its
    // listener.  Any poll after the first that fails re-renders the
    // previous frame marked STALE.
    try {
      series = fetch_series(address);
      ever_fetched = true;
      stale_reason.clear();
    } catch (const std::exception& e) {
      if (!ever_fetched) throw;  // never connected: a real usage error
      stale_reason = e.what();
    }
    std::vector<std::string> selected = metrics;
    if (selected.empty()) {
      const std::string def = pick_default_metric(series);
      if (!def.empty()) selected.push_back(def);
    }

    std::ostringstream frame_out;
    std::vector<analysis::Series> chart;
    std::vector<std::string> gone;
    for (std::size_t i = 0; i < selected.size(); ++i) {
      const SeriesInfo* s = find_series(series, selected[i]);
      if (s == nullptr) {
        // Selected but absent this poll (pruned by the hub, or the
        // publisher restarted): say so rather than silently dropping it.
        gone.push_back(selected[i]);
        continue;
      }
      analysis::Series cs;
      cs.name = s->name;
      cs.x = s->t;
      cs.y = s->v;
      cs.glyph = glyphs[i % sizeof(glyphs)];
      chart.push_back(std::move(cs));
    }
    analysis::plot(frame_out, chart, 72, 16, "live telemetry — " + address);
    for (const std::string& name : gone) {
      frame_out << "  " << name << ": (gone — not in this poll)\n";
    }

    // Top movers: the busiest counters right now.
    std::vector<const SeriesInfo*> counters;
    for (const SeriesInfo& s : series) {
      if (s.kind == "counter" && s.rate > 0.0) counters.push_back(&s);
    }
    std::sort(counters.begin(), counters.end(),
              [](const SeriesInfo* a, const SeriesInfo* b) { return a->rate > b->rate; });
    frame_out << "\ntop counters by rate:\n";
    const std::size_t top = std::min<std::size_t>(counters.size(), 8);
    for (std::size_t i = 0; i < top; ++i) {
      char line[160];
      std::snprintf(line, sizeof(line), "  %-48s %14.0f %12.1f/s\n",
                    counters[i]->name.c_str(), counters[i]->last, counters[i]->rate);
      frame_out << line;
    }
    if (top == 0) frame_out << "  (no counters moving)\n";
    if (!stale_reason.empty()) {
      frame_out << "\nSTALE — last poll failed (" << stale_reason << "); showing previous data\n";
    }

    if (clear) std::fputs("\x1b[2J\x1b[H", stdout);
    std::fputs(frame_out.str().c_str(), stdout);
    std::fflush(stdout);
    if (frames == 0 || frame + 1 < frames) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: telemetry_tool --connect ADDRESS [--endpoint PATH] [--list]\n"
               "                      [--watch] [--metric NAME]... [--interval-ms N]\n"
               "                      [--frames N] [--no-clear]\n"
               "  ADDRESS: \"HOST:PORT\" or \"unix:PATH\"\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string address, endpoint = "/metrics";
  std::vector<std::string> metrics;
  long interval_ms = 500, frames = 0;
  bool watch = false, list = false, clear = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      address = argv[++i];
    } else if (arg == "--endpoint" && i + 1 < argc) {
      endpoint = argv[++i];
    } else if (arg == "--metric" && i + 1 < argc) {
      metrics.push_back(argv[++i]);
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      interval_ms = std::atol(argv[++i]);
    } else if (arg == "--frames" && i + 1 < argc) {
      frames = std::atol(argv[++i]);
    } else if (arg == "--watch") {
      watch = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--no-clear") {
      clear = false;
    } else {
      return usage();
    }
  }
  if (address.empty() || interval_ms < 1 || frames < 0) return usage();

  try {
    if (watch) return run_watch(address, metrics, interval_ms, frames, clear);
    if (list) return run_list(address);
    const std::string body = obs::live::scrape(address, endpoint);
    std::fputs(body.c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "telemetry_tool: %s\n", e.what());
    return 1;
  }
}
