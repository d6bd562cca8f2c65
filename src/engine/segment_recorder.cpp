#include "src/engine/segment_recorder.h"

#include <algorithm>
#include <fstream>

#include "src/obs/json_min.h"
#include "src/obs/json_util.h"
#include "src/obs/trace.h"

namespace speedscale::engine {

namespace {

constexpr const char* kSchema = "speedscale.segments/1";

const char* law_name(SpeedLaw law) {
  switch (law) {
    case SpeedLaw::kIdle: return "idle";
    case SpeedLaw::kConstant: return "constant";
    case SpeedLaw::kPowerDecay: return "power_decay";
    case SpeedLaw::kPowerGrow: return "power_grow";
  }
  throw ModelError("segment_recorder: unknown speed law");
}

SpeedLaw law_from_name(const std::string& name) {
  if (name == "idle") return SpeedLaw::kIdle;
  if (name == "constant") return SpeedLaw::kConstant;
  if (name == "power_decay") return SpeedLaw::kPowerDecay;
  if (name == "power_grow") return SpeedLaw::kPowerGrow;
  throw ModelError("segment_recorder: unknown speed-law name '" + name + "'");
}

}  // namespace

std::string segment_json_line(const RecordedSegment& rec) {
  std::string out = "{\"t0\":";
  obs::append_json_number(out, rec.seg.t0);
  out += ",\"t1\":";
  obs::append_json_number(out, rec.seg.t1);
  out += ",\"job\":" + std::to_string(rec.seg.job);
  out += ",\"law\":\"";
  out += law_name(rec.seg.law);
  out += "\",\"param\":";
  obs::append_json_number(out, rec.seg.param);
  out += ",\"rho\":";
  obs::append_json_number(out, rec.seg.rho);
  out += ",\"machine\":" + std::to_string(rec.machine);
  out += rec.completes ? ",\"complete\":true}" : ",\"complete\":false}";
  return out;
}

SegmentRecorder::SegmentRecorder(double alpha, RecorderOptions options)
    : alpha_(alpha), options_(std::move(options)) {
  if (options_.mode == RecordMode::kRing || options_.mode == RecordMode::kRingSpill) {
    if (options_.ring_capacity == 0) {
      throw ModelError("SegmentRecorder: ring_capacity must be positive");
    }
    ring_.reserve(std::min<std::size_t>(options_.ring_capacity, 1 << 20));
  }
  if (options_.mode == RecordMode::kRingSpill) {
    if (options_.spill_path.empty()) {
      throw ModelError("SegmentRecorder: kRingSpill needs a spill_path");
    }
    spill_ = std::make_unique<obs::JsonlSink>(options_.spill_path);
    obs::JsonlSink::FlushPolicy policy;
    policy.mode = obs::JsonlSink::FlushPolicy::Mode::kEveryN;
    policy.every_n = std::max<std::size_t>(options_.flush_every, 1);
    spill_->set_flush_policy(policy);
    std::string header = "{\"schema\":\"";
    header += kSchema;
    header += "\",\"alpha\":";
    obs::append_json_number(header, alpha_);
    header += '}';
    spill_->write_line(header);
    ++spilled_lines_;
  }
}

SegmentRecorder::~SegmentRecorder() { close(); }

void SegmentRecorder::close() {
  if (spill_) {
    spill_->close();
  }
}

void SegmentRecorder::push(const Segment& seg, int machine, bool completes) {
  if (options_.mode == RecordMode::kOff) return;
  ++recorded_;
  if (spill_) {
    line_scratch_ = segment_json_line({seg, machine, completes});
    spill_->write_line(line_scratch_);
    ++spilled_lines_;
  }
  if (ring_.size() < options_.ring_capacity) {
    ring_.push_back({seg, machine, completes});
  } else {
    ring_[ring_head_] = {seg, machine, completes};
    ring_head_ = (ring_head_ + 1) % options_.ring_capacity;
    ++dropped_;
  }
}

std::vector<RecordedSegment> SegmentRecorder::ring_snapshot() const {
  std::vector<RecordedSegment> out;
  if (ring_.empty()) return out;
  out.reserve(ring_.size());
  // ring_head_ is the oldest entry once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_head_ + i) % ring_.size()]);
  }
  return out;
}

const std::vector<RecordedSegment>& SegmentRecorder::segments() const {
  if (options_.mode == RecordMode::kOff) {
    throw ModelError("SegmentRecorder: recording is off");
  }
  if (dropped_ > 0) {
    throw ModelError("SegmentRecorder: " + std::to_string(dropped_) +
                     " segments were dropped by the ring; use the spill file");
  }
  return ring_;
}

Schedule SegmentRecorder::to_schedule() const {
  const std::vector<RecordedSegment>& recs = segments();
  Schedule sched(alpha_);
  sched.reserve(recs.size());
  for (const RecordedSegment& rec : recs) {
    if (rec.machine != 0) {
      throw ModelError("SegmentRecorder::to_schedule: multi-machine recording; "
                       "rebuild per machine from the spill instead");
    }
    sched.append(rec.seg);
    if (rec.completes) sched.set_completion(rec.seg.job, rec.seg.t1);
  }
  return sched;
}

Schedule read_spilled_schedule(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw ModelError("read_spilled_schedule: cannot open '" + path + "'");
  std::string line;
  if (!std::getline(f, line)) throw ModelError("read_spilled_schedule: empty spill");
  const obs::JsonValue header = obs::parse_json(line);
  if (header.at("schema").string != kSchema) {
    throw ModelError("read_spilled_schedule: schema mismatch in '" + path + "'");
  }
  Schedule sched(header.at("alpha").number);
  std::size_t line_no = 1;
  while (std::getline(f, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (f.eof()) {
      throw ModelError("read_spilled_schedule: unterminated final line (torn tail) at line " +
                       std::to_string(line_no));
    }
    const obs::JsonValue v = obs::parse_json(line);
    if (v.at("machine").number != 0.0) {
      throw ModelError("read_spilled_schedule: multi-machine spill (line " +
                       std::to_string(line_no) + "); filter by machine first");
    }
    Segment seg;
    seg.t0 = v.at("t0").number;
    seg.t1 = v.at("t1").number;
    seg.job = static_cast<JobId>(v.at("job").number);
    seg.law = law_from_name(v.at("law").string);
    seg.param = v.at("param").number;
    seg.rho = v.at("rho").number;
    sched.append(seg);
    if (v.at("complete").boolean) sched.set_completion(seg.job, seg.t1);
  }
  return sched;
}

}  // namespace speedscale::engine
