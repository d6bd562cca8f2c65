#include "src/obs/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/obs/json_util.h"
#include "src/robust/atomic_io.h"

namespace speedscale::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kJobRelease:
      return "job_release";
    case EventKind::kJobComplete:
      return "job_complete";
    case EventKind::kSpeedChange:
      return "speed_change";
    case EventKind::kPreemption:
      return "preemption";
    case EventKind::kDispatch:
      return "dispatch";
    case EventKind::kPhaseBoundary:
      return "phase_boundary";
  }
  return "?";
}

void append_event_json(std::string& out, const TraceEvent& ev) {
  out += "{\"kind\":\"";
  out += event_kind_name(ev.kind);
  out += "\",\"t\":";
  append_json_number(out, ev.t);
  if (ev.job != kNoJob) {
    out += ",\"job\":";
    out += std::to_string(ev.job);
  }
  if (ev.machine != kNoMachine) {
    out += ",\"machine\":";
    out += std::to_string(ev.machine);
  }
  out += ",\"value\":";
  append_json_number(out, ev.value);
  out += ",\"aux\":";
  append_json_number(out, ev.aux);
  if (ev.label != nullptr) {
    out += ",\"label\":";
    append_json_string(out, ev.label);
  }
  out += '}';
}

// --- RingBufferSink ---------------------------------------------------------

RingBufferSink::RingBufferSink(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  buf_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void RingBufferSink::on_event(const TraceEvent& ev) {
  std::lock_guard<std::mutex> lk(mu_);
  if (buf_.size() < capacity_) {
    buf_.push_back(ev);
  } else {
    buf_[total_ % capacity_] = ev;
  }
  ++total_;
}

std::vector<TraceEvent> RingBufferSink::events() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TraceEvent> out;
  out.reserve(buf_.size());
  if (total_ <= capacity_) {
    out = buf_;
  } else {
    const std::size_t head = total_ % capacity_;  // oldest surviving event
    out.insert(out.end(), buf_.begin() + static_cast<std::ptrdiff_t>(head), buf_.end());
    out.insert(out.end(), buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head));
  }
  return out;
}

std::size_t RingBufferSink::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return buf_.size();
}

std::size_t RingBufferSink::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_ > capacity_ ? total_ - capacity_ : 0;
}

void RingBufferSink::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  buf_.clear();
  total_ = 0;
}

// --- JsonlSink --------------------------------------------------------------

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) {}

JsonlSink::JsonlSink(const std::string& path) {
  const std::string tmp = robust::tmp_sibling(path);
  auto f = std::make_unique<std::ofstream>(tmp);
  if (!*f) throw ModelError("JsonlSink: cannot open " + tmp);
  os_ = f.get();
  owned_ = std::move(f);
  final_path_ = path;
}

JsonlSink::~JsonlSink() {
  try {
    close();
  } catch (...) {
    // A failed commit leaves the ".tmp" sibling for post-mortem; destructors
    // must not throw.
  }
}

// Shared append path (callers hold mu_): writes one line, then applies the
// automatic flush policy so long-running producers never sit on an
// arbitrarily stale stream.
void JsonlSink::append_locked(const char* data, std::size_t n) {
  os_->write(data, static_cast<std::streamsize>(n));
  ++lines_;
  ++lines_since_flush_;
  if (policy_.mode == FlushPolicy::Mode::kEveryN && policy_.every_n > 0 &&
      lines_since_flush_ >= policy_.every_n) {
    os_->flush();
    lines_since_flush_ = 0;
  }
}

void JsonlSink::on_event(const TraceEvent& ev) {
  std::lock_guard<std::mutex> lk(mu_);
  if (os_ == nullptr) return;  // closed path-mode sink
  scratch_.clear();
  append_event_json(scratch_, ev);
  scratch_ += '\n';
  append_locked(scratch_.data(), scratch_.size());
}

void JsonlSink::write_line(const std::string& json_line) {
  std::lock_guard<std::mutex> lk(mu_);
  if (os_ == nullptr) return;  // closed path-mode sink
  scratch_.clear();
  scratch_ = json_line;
  scratch_ += '\n';
  append_locked(scratch_.data(), scratch_.size());
}

void JsonlSink::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  if (os_ != nullptr) os_->flush();
  lines_since_flush_ = 0;
}

void JsonlSink::set_flush_policy(FlushPolicy policy) {
  std::lock_guard<std::mutex> lk(mu_);
  policy_ = policy;
  lines_since_flush_ = 0;
}

void JsonlSink::close() {
  std::lock_guard<std::mutex> lk(mu_);
  if (final_path_.empty()) return;  // borrowed stream or already committed
  os_->flush();
  owned_.reset();  // release the descriptor before the rename
  os_ = nullptr;
  const std::string path = std::move(final_path_);
  final_path_.clear();
  robust::commit_tmp_file(robust::tmp_sibling(path), path);
}

std::size_t JsonlSink::lines() const {
  std::lock_guard<std::mutex> lk(mu_);
  return lines_;
}

// --- SummarySink ------------------------------------------------------------

void SummarySink::on_event(const TraceEvent& ev) {
  std::lock_guard<std::mutex> lk(mu_);
  ++counts_[static_cast<std::size_t>(ev.kind)];
  t_min_ = std::min(t_min_, ev.t);
  t_max_ = std::max(t_max_, ev.t);
}

std::size_t SummarySink::count(EventKind kind) const {
  std::lock_guard<std::mutex> lk(mu_);
  return counts_[static_cast<std::size_t>(kind)];
}

std::size_t SummarySink::total() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const std::size_t c : counts_) n += c;
  return n;
}

std::string SummarySink::summary() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  std::size_t n = 0;
  for (const std::size_t c : counts_) n += c;
  os << "trace: " << n << " events";
  if (n > 0) os << " over t=[" << t_min_ << ", " << t_max_ << "]";
  for (std::size_t k = 0; k < 6; ++k) {
    if (counts_[k] == 0) continue;
    os << "\n  " << event_kind_name(static_cast<EventKind>(k)) << ": " << counts_[k];
  }
  os << '\n';
  return os.str();
}

// --- Tracer -----------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::add_sink(std::shared_ptr<TraceSink> sink) {
  if (!sink) throw ModelError("Tracer::add_sink: null sink");
  std::lock_guard<std::mutex> lk(mu_);
  sinks_.push_back(std::move(sink));
}

void Tracer::remove_sink(const TraceSink* sink) {
  std::lock_guard<std::mutex> lk(mu_);
  sinks_.erase(std::remove_if(sinks_.begin(), sinks_.end(),
                              [&](const std::shared_ptr<TraceSink>& s) { return s.get() == sink; }),
               sinks_.end());
}

void Tracer::clear_sinks() {
  std::lock_guard<std::mutex> lk(mu_);
  sinks_.clear();
}

std::size_t Tracer::sink_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return sinks_.size();
}

void Tracer::set_enabled(bool on) {
  detail::g_trace_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

void Tracer::emit(const TraceEvent& ev) {
  // An exclusive per-thread capture (ScopedThreadCapture) short-circuits the
  // global sink set: no shared lock, no cross-thread event mixing.
  if (TraceSink* local = detail::g_thread_sink) {
    local->on_event(ev);
    return;
  }
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sinks_) s->on_event(ev);
}

void Tracer::flush() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& s : sinks_) s->flush();
}

// --- ScopedTracing ----------------------------------------------------------

ScopedTracing::ScopedTracing(std::shared_ptr<TraceSink> sink)
    : sink_(std::move(sink)), was_enabled_(Tracer::instance().enabled()) {
  Tracer::instance().add_sink(sink_);
  Tracer::instance().set_enabled(true);
}

ScopedTracing::~ScopedTracing() {
  Tracer::instance().flush();
  Tracer::instance().remove_sink(sink_.get());
  Tracer::instance().set_enabled(was_enabled_);
}

}  // namespace speedscale::obs
