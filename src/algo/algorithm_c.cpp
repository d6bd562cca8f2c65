#include "src/algo/algorithm_c.h"

#include <utility>

#include "src/core/power.h"
#include "src/sim/c_machine.h"

namespace speedscale {

RunResult run_c(const Instance& instance, double alpha) {
  CMachine m(alpha);
  m.set_online_metrics(true);
  m.reserve(instance.size());
  for (const JobId id : instance.fifo_order()) m.add_job(instance.job(id));
  m.run_to_completion();
  const Metrics metrics = compute_metrics(instance, m.schedule(), PowerLaw(alpha));
  const Metrics online = m.online_metrics();
  RunResult out(std::move(m).take_schedule(), metrics);
  out.online = online;
  return out;
}

}  // namespace speedscale
