#include "src/engine/stream_engine.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "src/core/kinematics.h"
#include "src/engine/job_arena.h"
#include "src/engine/online_metrics.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"

namespace speedscale::engine {

namespace {

/// A job waiting in (or at the head of) a machine's FIFO queue.  Its
/// segment sweeps U from u0 to u1 = u0 + w; both ends' b-powers are fixed at
/// admit, so the segment's time and energy need no further pow.  `start` is
/// set once the job reaches the head (the frontier is final by then).
struct Pending {
  JobArena::Slot slot = JobArena::kNoSlot;
  double offset = 0.0;  ///< u0 = W^C(r^-) + tied-cohort weights, fixed at admit
  double u0b = 0.0;     ///< u0^b
  double u1b = 0.0;     ///< (u0 + w)^b
  double start = 0.0;
  double dt = -1.0;     ///< < 0 until computed at the queue head
};

struct Machine {
  double frontier = 0.0;    ///< end of the last scheduled segment
  double c_weight_b = 0.0;  ///< W^b of the virtual clairvoyant remaining weight
  double c_time = 0.0;      ///< time c_weight_b refers to
  std::deque<Pending> queue;
  std::uint64_t assigned = 0;
};

}  // namespace

StreamEngine::StreamEngine(const StreamOptions& options) : options_(options) {
  if (!(options_.alpha > 1.0)) throw ModelError("StreamEngine: alpha must exceed 1");
  if (options_.machines < 1) throw ModelError("StreamEngine: need at least one machine");
  if (options_.machines > 1 && options_.dispatch == DispatchPolicy::kFirstFit) {
    throw ModelError("StreamEngine: first-fit dispatch needs the job count up front; "
                     "a stream has no count — use round robin or least count");
  }
}

const SegmentRecorder& StreamEngine::recorder() const {
  if (!recorder_) throw ModelError("StreamEngine::recorder: no completed run");
  return *recorder_;
}

StreamResult StreamEngine::run(JobSource& source) {
  if (ran_) throw ModelError("StreamEngine::run: one run per engine instance");
  ran_ = true;
  recorder_ = std::make_unique<SegmentRecorder>(options_.alpha, options_.recorder);

  const PowerLawKinematics kin(options_.alpha);
  JobArena arena;
  OnlineMetrics om;
  StreamResult result;
  std::vector<Machine> machines(static_cast<std::size_t>(options_.machines));
  double rho = 0.0;  // uniform density, learned from the first job
  std::uint64_t pow_calls = 0;  // kinematics pows; the traced speed_at_weight is left out
  obs::MetricsRegistry& reg = obs::registry();

  // Completes every finished job at the head of machine m's queue whose
  // completion time is at or before `now` — the lazy evaluation that keeps
  // the arena at O(backlog): a job's segment depends only on the machine
  // frontier and its own admit-time offset, never on later arrivals.
  const auto drain = [&](std::size_t mi, double now) {
    Machine& m = machines[mi];
    while (!m.queue.empty()) {
      Pending& p = m.queue.front();
      if (p.dt < 0.0) {
        p.start = std::max(m.frontier, arena.release(p.slot));
        p.dt = kin.grow_time_to_weight_pow(p.u0b, p.u1b, rho);
      }
      const double t_end = p.start + p.dt;
      if (t_end > now) break;

      const JobId jid = arena.id(p.slot);
      const double release = arena.release(p.slot);
      const double w = arena.weight(p.slot);
      const double u0 = p.offset;
      const double u1 = p.offset + w;
      // Per-job closed forms (Lemmas 3/4): segment energy is the C energy of
      // the swept weight band, and the job's whole-lifetime fractional flow
      // folds its waiting time in at completion.
      const double e_j = kin.grow_integral_pow(u0, p.u0b, u1, p.u1b, rho);
      om.add_energy(e_j);
      om.add_fractional_flow(w * (p.start - release) + u1 * p.dt - e_j);
      om.add_integral_flow(w * (t_end - release));

      // A segment carries u0, not u0^b, and below the smallest normal double
      // u0 loses u0^b (at alpha = 1.01, u0 = (W^b)^101 is 0 or subnormal
      // while u0^b is up to ~1e-3), so a replay would grow the job short of
      // w.  U^{1/alpha} is zero in double there: the recorded segment starts
      // where U^b reaches DBL_MIN^b, and its u0 and duration agree.
      double seg_t0 = p.start;
      double seg_u0 = u0;
      if (u0 < std::numeric_limits<double>::min() && p.u0b > 0.0) {
        const double lo_b = std::min(kin.pow_b(std::numeric_limits<double>::min()), p.u1b);
        seg_t0 = p.start + kin.grow_time_to_weight_pow(p.u0b, lo_b, rho);  // <= t_end
        seg_u0 = kin.weight_from_pow(lo_b);
        pow_calls += 2;
      }
      recorder_->push({seg_t0, t_end, jid, SpeedLaw::kPowerGrow, seg_u0, rho},
                      static_cast<int>(mi), /*completes=*/true);
      TRACE_EVENT(.kind = obs::EventKind::kSpeedChange, .t = p.start, .job = jid,
                  .machine = static_cast<int>(mi),
                  .value = kin.speed_at_weight(std::max(u0, 0.0)), .aux = u0);
      TRACE_EVENT(.kind = obs::EventKind::kJobComplete, .t = t_end, .job = jid,
                  .machine = static_cast<int>(mi), .value = om.energy(),
                  .aux = om.fractional_flow());

      m.frontier = t_end;
      result.makespan = std::max(result.makespan, t_end);
      arena.retire(p.slot);
      m.queue.pop_front();
      ++result.jobs;
      if (options_.gauge_every > 0 && result.jobs % options_.gauge_every == 0) {
        reg.gauge("engine.stream.jobs_done").set(static_cast<double>(result.jobs));
        reg.gauge("engine.stream.arena_live").set(static_cast<double>(arena.live()));
        reg.gauge("engine.stream.arena_high_water")
            .set(static_cast<double>(arena.high_water()));
        reg.gauge("engine.stream.makespan").set(result.makespan);
      }
    }
  };
  const auto drain_all = [&](double now) {
    for (std::size_t mi = 0; mi < machines.size(); ++mi) drain(mi, now);
  };

  const auto dispatch_next = [&]() -> std::size_t {
    if (machines.size() == 1) return 0;
    switch (options_.dispatch) {
      case DispatchPolicy::kRoundRobin:
        return static_cast<std::size_t>(arena.admitted() % machines.size());
      case DispatchPolicy::kLeastCount: {
        std::size_t best = 0;
        for (std::size_t mi = 1; mi < machines.size(); ++mi) {
          if (machines[mi].assigned < machines[best].assigned) best = mi;
        }
        return best;
      }
      case DispatchPolicy::kFirstFit: break;  // rejected in the constructor
    }
    throw ModelError("StreamEngine: unsupported dispatch policy");
  };

  Job job;
  double last_release = -kInf;
  while (source.next(&job)) {
    if (result.jobs == 0 && arena.live() == 0 && arena.admitted() == 0) {
      rho = job.density;
      if (!(rho > 0.0)) throw ModelError("StreamEngine: density must be positive");
    } else if (std::abs(job.density - rho) > 1e-9 * std::max(1.0, std::abs(rho))) {
      throw ModelError("StreamEngine: the uniform-density NC rule needs one density; job " +
                       std::to_string(job.id) + " breaks it");
    }
    if (job.release < last_release) {
      throw ModelError("StreamEngine: job source must yield non-decreasing releases");
    }
    last_release = job.release;

    // Complete everything that finishes before this arrival, then admit.
    drain_all(job.release);
    TRACE_EVENT(.kind = obs::EventKind::kJobRelease, .t = job.release, .job = job.id,
                .value = job.volume, .aux = job.density);

    const std::size_t mi = dispatch_next();
    Machine& m = machines[mi];
    // Virtual C tracker, kept as W^b where the decay is linear: decay to the
    // release, read the left limit u0 (a pow unless C is idle), add w and
    // take (u0 + w)^b, the new state and the segment's top end.
    const double u0b = kin.decay_pow_after(m.c_weight_b, rho, job.release - m.c_time);
    const double u0 = kin.weight_from_pow(u0b);
    pow_calls += u0b > 0.0 ? 2 : 1;
    // When w is below u0's rounding, (u0 + w)^b can land an ulp under u0b;
    // the max keeps the segment's time and energy non-negative.
    m.c_weight_b = std::max(kin.pow_b(u0 + job.density * job.volume), u0b);
    m.c_time = job.release;

    const JobArena::Slot slot = arena.admit(job.id, job.release, job.volume, job.density);
    m.queue.push_back({slot, u0, u0b, m.c_weight_b, 0.0, -1.0});
    ++m.assigned;
  }
  drain_all(kInf);

  recorder_->close();
  result.online = om.metrics();
  result.arena_high_water = arena.high_water();
  result.arena_capacity = arena.capacity();
  result.segments_recorded = recorder_->recorded();
  result.segments_dropped = recorder_->dropped();
  result.spill_lines = recorder_->spilled_lines();
  result.pow_calls = pow_calls;

  // One batched counter emission per run: per-event OBS_COUNTs would cost a
  // registry touch per job at 10M jobs, and the end-of-run totals are the
  // same deterministic work signals.
  OBS_COUNT("engine.stream.jobs", static_cast<std::int64_t>(result.jobs));
  OBS_COUNT("engine.stream.arena_high_water",
            static_cast<std::int64_t>(result.arena_high_water));
  OBS_COUNT("engine.stream.arena_slots", static_cast<std::int64_t>(result.arena_capacity));
  OBS_COUNT("engine.stream.pow_calls", static_cast<std::int64_t>(result.pow_calls));
  if (options_.recorder.mode != RecordMode::kOff) {
    OBS_COUNT("engine.stream.segments_recorded",
              static_cast<std::int64_t>(result.segments_recorded));
    OBS_COUNT("engine.stream.segments_dropped",
              static_cast<std::int64_t>(result.segments_dropped));
  }
  if (options_.recorder.mode == RecordMode::kRingSpill) {
    OBS_COUNT("engine.stream.spill_lines", static_cast<std::int64_t>(result.spill_lines));
  }
  return result;
}

}  // namespace speedscale::engine
