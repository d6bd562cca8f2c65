// Structured event tracing: what the simulators did, event by event.
//
// The non-clairvoyant model is a story about information revealed over time
// (releases, completions, the speed the algorithm chose in between), so the
// natural observability primitive is the *event*: a timestamped record of one
// state change in a run.  This module provides
//
//   * TraceEvent   — a small POD covering every event the simulators emit
//                    (see docs/observability.md for the per-kind payloads);
//   * TraceSink    — a pluggable consumer interface with three stock
//                    implementations: RingBufferSink (bounded, for tests and
//                    invariant replay), JsonlSink (one JSON object per line,
//                    for scripts/plot_profiles.py), SummarySink (human-
//                    readable per-kind counts);
//   * Tracer       — the process-wide dispatcher, off by default.
//
// Cost discipline: TRACE_EVENT(...) compiles to a single relaxed atomic load
// when tracing is disabled — no event is constructed, no branch to a call.
// Virtual/internal simulations (the clairvoyant shadow runs inside Algorithm
// NC) suppress their own events with TraceSuppressGuard so an enabled trace
// contains only the run the caller asked for.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "src/core/types.h"

namespace speedscale::obs {

/// What happened.  Kinds mirror the model's own vocabulary.
enum class EventKind : std::uint8_t {
  kJobRelease,     ///< a job arrived (value = volume, aux = density)
  kJobComplete,    ///< a job finished (value/aux = cumulative energy/flow)
  kSpeedChange,    ///< the speed law changed (value = speed, aux = driving weight)
  kPreemption,     ///< the running job was displaced (value = new job id)
  kDispatch,       ///< a job was assigned to a machine (value = assignment key)
  kPhaseBoundary,  ///< a labelled phase started/ended (harness structure)
};

/// Stable lower-case name used in the JSONL schema ("job_release", ...).
[[nodiscard]] const char* event_kind_name(EventKind kind);

/// One timestamped record.  `value`/`aux` are kind-specific payloads (see the
/// kind comments above and docs/observability.md); `label` must point to
/// static storage (string literals) — sinks keep the pointer, not a copy.
struct TraceEvent {
  EventKind kind = EventKind::kPhaseBoundary;
  double t = 0.0;
  JobId job = kNoJob;
  MachineId machine = kNoMachine;
  double value = 0.0;
  double aux = 0.0;
  const char* label = nullptr;
};

/// Appends the single-line JSON encoding of `ev` (no trailing newline).
void append_event_json(std::string& out, const TraceEvent& ev);

/// A consumer of trace events.  on_event may be called concurrently from
/// several threads; implementations must synchronize themselves.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& ev) = 0;
  virtual void flush() {}
};

/// Bounded in-memory sink: keeps the most recent `capacity` events and
/// counts the rest as dropped.  The workhorse of tests and invariant replay.
class RingBufferSink : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 1 << 16);

  void on_event(const TraceEvent& ev) override;

  /// Snapshot in arrival order (oldest first).
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void clear();

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<TraceEvent> buf_;  // ring storage, write cursor = total_ % capacity_
  std::size_t total_ = 0;        // events ever received
};

/// Streams each event as one JSON object per line (JSONL).  Owns the file
/// stream when constructed from a path; borrows the ostream otherwise.
///
/// Path mode is crash-safe: events stream to "<path>.tmp" and the file is
/// atomically renamed to `path` at destruction (or an explicit close()), so
/// an interrupted run leaves the ".tmp" sibling behind — never a truncated
/// artifact at the path a consumer would read.
///
/// Flush policy: by default the sink flushes only when a caller asks
/// (flush() — e.g. the certificate tracker's checkpoint cadence) or at
/// close().  Long-running producers pick kEveryN instead, which flushes after
/// every N lines — so a killed process still leaves a near-current ".tmp"
/// stream behind (the crash-survival contract).
class JsonlSink : public TraceSink {
 public:
  struct FlushPolicy {
    enum class Mode : std::uint8_t {
      kManual,  ///< explicit flush()/close() only (the historical behavior)
      kEveryN,  ///< flush once every `every_n` appended lines
    };
    Mode mode = Mode::kManual;
    std::size_t every_n = 64;
  };

  explicit JsonlSink(std::ostream& os);
  explicit JsonlSink(const std::string& path);
  ~JsonlSink() override;

  void on_event(const TraceEvent& ev) override;
  /// Appends one pre-serialized line (a trailing '\n' is added).  The
  /// segment recorder's spill (src/engine/segment_recorder.h) streams its
  /// records through this, reusing the crash-safe tmp-then-rename machinery
  /// and the flush policy.
  void write_line(const std::string& json_line);
  void flush() override;
  void set_flush_policy(FlushPolicy policy);
  /// Path mode: flushes and commits the ".tmp" file to its final path.
  /// Idempotent; later events are dropped.  No-op for borrowed streams.
  void close();
  [[nodiscard]] std::size_t lines() const;

 private:
  void append_locked(const char* data, std::size_t n);

  mutable std::mutex mu_;
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
  std::size_t lines_ = 0;
  std::string scratch_;
  std::string final_path_;  // non-empty iff path mode and not yet committed
  FlushPolicy policy_;
  std::size_t lines_since_flush_ = 0;
};

/// Per-kind counts and the covered time range; for quick human inspection.
class SummarySink : public TraceSink {
 public:
  void on_event(const TraceEvent& ev) override;
  [[nodiscard]] std::string summary() const;
  [[nodiscard]] std::size_t count(EventKind kind) const;
  [[nodiscard]] std::size_t total() const;

 private:
  mutable std::mutex mu_;
  std::size_t counts_[6] = {};
  double t_min_ = kInf;
  double t_max_ = -kInf;
};

namespace detail {
/// Master switch.  Relaxed loads suffice: enabling tracing mid-run may miss
/// a few in-flight events, which is the intended best-effort semantics.
inline std::atomic<bool> g_trace_enabled{false};
/// Per-thread suppression depth (virtual runs trace nothing).
inline thread_local int g_suppress_depth = 0;
/// Per-thread exclusive capture sink (see ScopedThreadCapture).  While set,
/// this thread's events bypass the global enabled flag and sink set entirely
/// — no shared mutex, no cross-thread interleaving.
inline thread_local TraceSink* g_thread_sink = nullptr;
}  // namespace detail

/// True when TRACE_EVENT sites are live on this thread.
[[nodiscard]] inline bool tracing_enabled() noexcept {
  return (detail::g_trace_enabled.load(std::memory_order_relaxed) ||
          detail::g_thread_sink != nullptr) &&
         detail::g_suppress_depth == 0;
}

/// Routes events to registered sinks.  All methods are thread-safe.
class Tracer {
 public:
  static Tracer& instance();

  /// Registers a sink; events are delivered until remove_sink/clear_sinks.
  void add_sink(std::shared_ptr<TraceSink> sink);
  void remove_sink(const TraceSink* sink);
  void clear_sinks();
  [[nodiscard]] std::size_t sink_count() const;

  /// Turns TRACE_EVENT sites on/off globally.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const;

  /// Delivers to every sink.  Callers normally go through TRACE_EVENT.
  void emit(const TraceEvent& ev);
  void flush();

 private:
  Tracer() = default;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<TraceSink>> sinks_;
};

/// Suppresses TRACE_EVENT on the current thread for its scope.  Used around
/// virtual simulations (Algorithm NC's shadow clairvoyant runs) so traces
/// describe only the run the caller asked for.
class TraceSuppressGuard {
 public:
  TraceSuppressGuard() { ++detail::g_suppress_depth; }
  ~TraceSuppressGuard() { --detail::g_suppress_depth; }
  TraceSuppressGuard(const TraceSuppressGuard&) = delete;
  TraceSuppressGuard& operator=(const TraceSuppressGuard&) = delete;
};

/// RAII convenience for tools and tests: enables tracing with `sink`
/// attached, then detaches and restores the previous enabled state.
class ScopedTracing {
 public:
  explicit ScopedTracing(std::shared_ptr<TraceSink> sink);
  ~ScopedTracing();
  ScopedTracing(const ScopedTracing&) = delete;
  ScopedTracing& operator=(const ScopedTracing&) = delete;

 private:
  std::shared_ptr<TraceSink> sink_;
  bool was_enabled_;
};

/// Routes this thread's TRACE_EVENTs *exclusively* to `sink` for the scope:
/// the global enabled flag and registered sinks are bypassed, so concurrent
/// captures on different threads (sweep shards certifying their own runs in
/// parallel) never see each other's events and take no shared lock.
/// TraceSuppressGuard still applies.  Nests: the previous thread sink is
/// restored on destruction.  The caller owns `sink` and must keep it alive.
class ScopedThreadCapture {
 public:
  explicit ScopedThreadCapture(TraceSink* sink) : prev_(detail::g_thread_sink) {
    detail::g_thread_sink = sink;
  }
  ~ScopedThreadCapture() { detail::g_thread_sink = prev_; }
  ScopedThreadCapture(const ScopedThreadCapture&) = delete;
  ScopedThreadCapture& operator=(const ScopedThreadCapture&) = delete;

 private:
  TraceSink* prev_;
};

}  // namespace speedscale::obs

/// Emission macro: zero work beyond one relaxed atomic load when disabled.
/// Usage (designated initializers keep call sites self-describing):
///   TRACE_EVENT(.kind = obs::EventKind::kJobComplete, .t = now, .job = id,
///               .value = cum_energy, .aux = cum_flow);
#define TRACE_EVENT(...)                                                     \
  do {                                                                       \
    if ((::speedscale::obs::detail::g_trace_enabled.load(                    \
             std::memory_order_relaxed) ||                                   \
         ::speedscale::obs::detail::g_thread_sink != nullptr) &&             \
        ::speedscale::obs::detail::g_suppress_depth == 0) {                  \
      ::speedscale::obs::Tracer::instance().emit(                            \
          ::speedscale::obs::TraceEvent{__VA_ARGS__});                       \
    }                                                                        \
  } while (0)
