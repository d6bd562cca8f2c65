#include "src/algo/algorithm_nc_uniform.h"

#include <algorithm>

#include "src/core/power.h"
#include "src/engine/job_source.h"
#include "src/engine/stream_engine.h"
#include "src/obs/metrics_registry.h"

namespace speedscale {

NCUniformRun run_nc_uniform_detailed(const Instance& instance, double alpha) {
  if (!instance.uniform_density(1e-9)) {
    throw ModelError("run_nc_uniform: instance must have uniform density");
  }
  OBS_COUNT("algo.nc_uniform.runs", 1);

  // The streaming engine on one machine is Algorithm NC: its virtual-C
  // tracker gives the offsets W^C(r_j^-) (tied cohorts included), and its
  // closed forms give the segments, the online metrics and the trace events.
  // A ring of n segments holds the whole run, so nothing is dropped.
  engine::StreamOptions options;
  options.alpha = alpha;
  options.recorder.ring_capacity = std::max<std::size_t>(1, instance.size());
  engine::StreamEngine eng(options);
  engine::InstanceJobSource source(instance);
  const engine::StreamResult streamed = eng.run(source);

  NCUniformRun out(alpha);
  out.result.schedule = eng.recorder().to_schedule();
  out.offsets.assign(instance.size(), 0.0);
  out.starts.assign(instance.size(), 0.0);
  // Each job is one growth segment from U = offset (zero-length ones too,
  // which the Schedule drops), recorded in FIFO order.  A job starts at its
  // release or its predecessor's end, as in the engine; its segment starts
  // later only while U is below the smallest normal double.
  double frontier = 0.0;
  for (const engine::RecordedSegment& rec : eng.recorder().segments()) {
    const auto j = static_cast<std::size_t>(rec.seg.job);
    out.offsets[j] = rec.seg.param;
    out.starts[j] = std::max(frontier, instance.job(rec.seg.job).release);
    frontier = rec.seg.t1;
  }

  // The replay is the independent oracle the Lemma 3/4 checks compare the
  // online accumulators against.
  out.result.metrics = compute_metrics(instance, out.result.schedule, PowerLaw(alpha));
  out.result.online = streamed.online;
  return out;
}

RunResult run_nc_uniform(const Instance& instance, double alpha) {
  NCUniformRun run = run_nc_uniform_detailed(instance, alpha);
  return std::move(run.result);
}

}  // namespace speedscale
