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

/// A job admitted to a machine and not yet completed.  Its segment sweeps U
/// from u0 to u1 = u0 + w over [start, start + dt]; all of it is fixed at
/// admit (the machine's earlier jobs fix its frontier), so completing the
/// job needs no further pow.
struct Pending {
  JobArena::Slot slot = JobArena::kNoSlot;
  double offset = 0.0;  ///< u0 = W^C(r^-) + tied-cohort weights
  double u0b = 0.0;     ///< u0^b
  double u1b = 0.0;     ///< (u0 + w)^b
  double start = 0.0;   ///< max(machine frontier, release)
  double dt = 0.0;
};

struct Machine {
  double frontier = 0.0;    ///< end of the last admitted job's segment
  bool zero_tail = false;   ///< that segment took no time (start == end)
  double c_weight_b = 0.0;  ///< W^b of the virtual clairvoyant remaining weight
  double c_time = 0.0;      ///< time c_weight_b refers to
  std::deque<Pending> queue;
};

}  // namespace

StreamEngine::StreamEngine(const StreamOptions& options) : options_(options) {
  if (!(options_.alpha > 1.0)) throw ModelError("StreamEngine: alpha must exceed 1");
  if (options_.machines < 1) throw ModelError("StreamEngine: need at least one machine");
  if (options_.machines > 1 && options_.dispatch == DispatchPolicy::kFirstFit) {
    throw ModelError("StreamEngine: first-fit dispatch needs the job count up front; "
                     "a stream has no count — use round robin, least count or NC-PAR");
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
  const bool ncpar = options_.dispatch == DispatchPolicy::kNcPar;
  double rho = 0.0;  // uniform density, learned from the first job
  std::uint64_t pow_calls = 0;  // kinematics pows; the traced speed_at_weight is left out

  // Completes every finished job at the head of machine m's queue whose
  // completion time is at or before `now` — the lazy evaluation that keeps
  // the arena at O(backlog).
  const auto drain = [&](std::size_t mi, double now) {
    Machine& m = machines[mi];
    while (!m.queue.empty()) {
      const Pending& p = m.queue.front();
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
      const double e_j = kin.band_integral_pow(u0, p.u0b, u1, p.u1b, rho);
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
        seg_t0 = p.start + kin.band_time_pow(p.u0b, lo_b, rho);  // <= t_end
        seg_u0 = kin.weight_from_pow(lo_b);
        pow_calls += 2;
      }
      recorder_->push({seg_t0, t_end, jid, SpeedLaw::kPowerGrow, seg_u0, rho},
                      static_cast<int>(mi), /*completes=*/true);
      if (ncpar) {
        TRACE_EVENT(.kind = obs::EventKind::kDispatch, .t = p.start, .job = jid,
                    .machine = static_cast<int>(mi), .value = u0, .label = "nc_par.fifo_pull");
      }
      TRACE_EVENT(.kind = obs::EventKind::kSpeedChange, .t = p.start, .job = jid,
                  .machine = static_cast<int>(mi),
                  .value = kin.speed_at_weight(std::max(u0, 0.0)), .aux = u0);
      TRACE_EVENT(.kind = obs::EventKind::kJobComplete, .t = t_end, .job = jid,
                  .machine = static_cast<int>(mi), .value = om.energy(),
                  .aux = om.fractional_flow());

      result.makespan = std::max(result.makespan, t_end);
      arena.retire(p.slot);
      m.queue.pop_front();
      ++result.jobs;
    }
  };
  const auto drain_all = [&](double now) {
    for (std::size_t mi = 0; mi < machines.size(); ++mi) drain(mi, now);
  };

  // Round robin and least count pick machine i mod k for the i-th job (on a
  // stream no count ever falls, so the least count cycles).  NC-PAR's global
  // FIFO queue needs no storage: the head goes to the machine that drains
  // first, and when each earlier job ends is fixed at its admission, so job
  // j goes to the machine with the least max(frontier, r_j), lowest index on
  // ties: FIFO list scheduling.  A machine whose last job took no time is
  // still busy at that instant (its virtual C holds the job's weight), so it
  // ranks after the machines idle then, as C-PAR's least-weight rule has it.
  const auto dispatch_next = [&](double release) -> std::size_t {
    if (machines.size() == 1) return 0;
    if (!ncpar) return static_cast<std::size_t>(arena.admitted() % machines.size());
    std::size_t best = 0;
    double best_start = kInf;
    bool best_late = true;
    for (std::size_t mi = 0; mi < machines.size(); ++mi) {
      const Machine& m = machines[mi];
      const double start = std::max(m.frontier, release);
      const bool late = m.zero_tail && m.frontier >= release;
      if (start < best_start || (start == best_start && best_late && !late)) {
        best = mi;
        best_start = start;
        best_late = late;
      }
    }
    return best;
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

    const std::size_t mi = dispatch_next(job.release);
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

    const double start = std::max(m.frontier, job.release);
    const double dt = kin.band_time_pow(u0b, m.c_weight_b, rho);
    m.frontier = start + dt;
    m.zero_tail = m.frontier == start;

    const JobArena::Slot slot = arena.admit(job.id, job.release, job.volume, job.density);
    m.queue.push_back({slot, u0, u0b, m.c_weight_b, start, dt});
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
