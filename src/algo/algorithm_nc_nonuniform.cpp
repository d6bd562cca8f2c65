#include "src/algo/algorithm_nc_nonuniform.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/core/kinematics.h"
#include "src/obs/metrics_registry.h"
#include "src/obs/trace.h"
#include "src/sim/c_machine.h"

namespace speedscale {

Instance make_current_instance(const Instance& rounded, const std::vector<double>& processed,
                               double t, std::vector<JobId>* kept) {
  std::vector<Job> jobs;
  if (kept) kept->clear();
  for (const Job& j : rounded.jobs()) {
    const double p = processed[static_cast<std::size_t>(j.id)];
    if (j.release <= t && p > 0.0) {
      Job cur = j;
      cur.volume = p;  // the weight NC has processed so far, at rounded density
      jobs.push_back(cur);
      if (kept) kept->push_back(j.id);
    }
  }
  return Instance(std::move(jobs));
}

double c_speed_on_current_instance(const Instance& rounded, const std::vector<double>& processed,
                                   double t, double alpha) {
  // A probe simulation, not part of any real run: keep it out of traces.
  obs::TraceSuppressGuard suppress_probe;
  const Instance current = make_current_instance(rounded, processed, t);
  if (current.empty()) return 0.0;
  CMachine m(alpha);
  for (const Job& j : current.jobs()) m.add_job(j);
  m.advance_to(t);
  const PowerLawKinematics kin(alpha);
  return kin.speed_at_weight(m.remaining_weight());
}

namespace {

/// Jobs in NC's processing order on the rounded instance, which is also the
/// order C's replay picks in: highest density first, then release, then id.
std::vector<JobId> priority_order(const Instance& rounded) {
  std::vector<JobId> order(rounded.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<JobId>(i);
  std::sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    const Job& ja = rounded.job(a);
    const Job& jb = rounded.job(b);
    if (ja.density != jb.density) return ja.density > jb.density;
    if (ja.release != jb.release) return ja.release < jb.release;
    return a < b;
  });
  return order;
}

std::vector<int> ranks_of(const std::vector<JobId>& by_rank) {
  std::vector<int> rank(by_rank.size());
  for (std::size_t r = 0; r < by_rank.size(); ++r) {
    rank[static_cast<std::size_t>(by_rank[r])] = static_cast<int>(r);
  }
  return rank;
}

// A set of priority ranks, one bit per rank: its lowest member is the job
// the priority rule runs, found without scanning the jobs.
std::vector<std::uint64_t> empty_rank_set(std::size_t n) {
  return std::vector<std::uint64_t>((n + 63) / 64, 0);
}
void insert_rank(std::vector<std::uint64_t>& set, int r) {
  set[static_cast<std::size_t>(r) / 64] |= std::uint64_t{1} << (r % 64);
}
void erase_rank(std::vector<std::uint64_t>& set, int r) {
  set[static_cast<std::size_t>(r) / 64] &= ~(std::uint64_t{1} << (r % 64));
}
/// The lowest rank in the set, or -1 when it is empty.
int first_rank(const std::vector<std::uint64_t>& set) {
  for (std::size_t w = 0; w < set.size(); ++w) {
    if (set[w] != 0) return static_cast<int>(w * 64) + std::countr_zero(set[w]);
  }
  return -1;
}
template <typename F>
void for_each_rank(const std::vector<std::uint64_t>& set, F&& f) {
  for (std::size_t w = 0; w < set.size(); ++w) {
    for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
      f(static_cast<int>(w * 64) + std::countr_zero(bits));
    }
  }
}

}  // namespace

CurrentInstanceOracle::CurrentInstanceOracle(const Instance& rounded, double alpha)
    : rounded_(rounded),
      kin_(alpha),
      by_release_(rounded.fifo_order()),
      by_rank_(priority_order(rounded)),
      rank_(ranks_of(by_rank_)),
      rem_(rounded.size(), 0.0),
      live_(empty_rank_set(rounded.size())),
      ckpt_rem_(rounded.size(), 0.0),
      ckpt_live_(live_) {}

template <typename VolumeAt>
double CurrentInstanceOracle::replay(double t, JobId anchor, double anchor_processed,
                                     const VolumeAt& volume_at) {
  // Replay Algorithm C on I(t): jobs released at or before t whose processed
  // weight is positive, with volume = processed volume at rounded density.
  const std::size_t n = rounded_.size();
  if (anchor != kNoJob && anchor != ckpt_anchor_) {
    ckpt_anchor_ = anchor;
    ckpt_valid_ = false;
  }
  // Only while the anchor is part of I(t) does the replay stop at its release.
  const bool anchored =
      anchor != kNoJob && anchor_processed > 0.0 && rounded_.job(anchor).release <= t;
  const double r_anchor = anchored ? rounded_.job(anchor).release : kInf;
  bool capture = anchored && !ckpt_valid_;

  CState c;
  if (anchored && ckpt_valid_) {
    c = ckpt_;
    live_ = ckpt_live_;
    for_each_rank(live_, [&](int r) {
      const auto idx = static_cast<std::size_t>(by_rank_[static_cast<std::size_t>(r)]);
      rem_[idx] = ckpt_rem_[idx];
    });
  } else {
    std::fill(live_.begin(), live_.end(), 0);
  }

  const auto next_relevant = [&]() -> std::size_t {
    while (c.ptr < n) {
      const Job& j = rounded_.job(by_release_[c.ptr]);
      if (j.release > t) return n;  // later jobs are not part of I(t)
      if (volume_at(c.ptr) > 0.0) return c.ptr;
      ++c.ptr;
    }
    return n;
  };
  // Called each time c.now moves: checkpoints the state the first time the
  // replay reaches the anchor's release, then adds the jobs released by now.
  const auto arrive = [&]() {
    if (capture && c.now >= r_anchor) {
      capture = false;
      ckpt_valid_ = true;
      ckpt_ = c;
      ckpt_live_ = live_;
      for_each_rank(live_, [&](int r) {
        const auto idx = static_cast<std::size_t>(by_rank_[static_cast<std::size_t>(r)]);
        ckpt_rem_[idx] = rem_[idx];
      });
    }
    for (std::size_t p = next_relevant(); p < n; p = next_relevant()) {
      const Job& j = rounded_.job(by_release_[p]);
      if (j.release > c.now) break;
      const auto idx = static_cast<std::size_t>(j.id);
      rem_[idx] = volume_at(p);
      c.weight.add(j.density * rem_[idx]);
      ++c.live;
      insert_rank(live_, rank_[idx]);
      ++c.ptr;
    }
  };

  arrive();
  while (c.now < t) {
    ++events_;
    const std::size_t p = next_relevant();
    const double next_release = (p < n) ? rounded_.job(by_release_[p]).release : kInf;
    const int r = first_rank(live_);
    if (r < 0) {
      if (next_release > t) return 0.0;  // drained before t
      c.now = next_release;
    } else {
      const JobId cur = by_rank_[static_cast<std::size_t>(r)];
      const auto idx = static_cast<std::size_t>(cur);
      const double rho = rounded_.job(cur).density;
      const double w0 = c.weight.w;
      const CStretch s = c_stretch(kin_, c.weight, c.now, std::min(t, next_release), rho,
                                   rho * rem_[idx], c.live == 1);
      pow_calls_ += s.pow_calls;
      if (s.completes) {
        erase_rank(live_, r);
        --c.live;
      } else {
        rem_[idx] = std::max(0.0, rem_[idx] - (w0 - c.weight.w) / rho);
      }
      c.now = s.t_end;
    }
    arrive();
  }
  if (c.weight.w > 0.0) ++pow_calls_;
  return kin_.speed_at_weight(c.weight.w);
}

double CurrentInstanceOracle::c_speed(const std::vector<double>& processed, double t,
                                      JobId anchor, double anchor_processed) {
  return replay(t, anchor, anchor_processed, [&](std::size_t p) {
    const JobId id = by_release_[p];
    return id == anchor ? anchor_processed : processed[static_cast<std::size_t>(id)];
  });
}

double CurrentInstanceOracle::c_speed(const ObservableState& st, std::size_t running) {
  const ObservableState::VisibleJob& anchor = st.jobs[running];
  return replay(st.time, anchor.id, anchor.processed, [&](std::size_t p) {
    return p < st.jobs.size() ? st.jobs[p].processed : 0.0;
  });
}

double nc_eta_min(double alpha) {
  if (!(alpha > 1.0)) throw ModelError("nc_eta_min: alpha must exceed 1");
  return alpha / (alpha - 1.0) * std::pow(alpha, 1.0 / (alpha - 1.0));
}

NCNonUniformRun run_nc_nonuniform(const Instance& instance, double alpha,
                                  const NCNonUniformParams& params, const NCObserver& observer) {
  detail::check_step_params(params.step_growth, params.min_step, params.max_steps);
  if (!(params.eta >= 0.0) || !std::isfinite(params.eta)) {
    throw ModelError("run_nc_nonuniform: eta must be finite and non-negative (0 = automatic)");
  }
  if (!(params.epsilon_speed > 0.0) || !std::isfinite(params.epsilon_speed)) {
    throw ModelError("run_nc_nonuniform: epsilon_speed must be finite and positive");
  }
  NCNonUniformRun out(alpha);
  out.rounded =
      params.round_densities ? instance.rounded_densities(params.beta) : instance;
  if (instance.empty()) {
    out.result.metrics = Metrics{};
    out.result.online = Metrics{};
    return out;
  }

  const Instance& rounded = out.rounded;
  const PowerLawKinematics kin(alpha);
  const std::size_t n = instance.size();

  // Reference scales (used for numerics only, never for decisions):
  // T_ref is the time a single-density clairvoyant run over the whole
  // rounded weight would take; s_ref anchors the epsilon excess speed.
  const double w_total = std::max(rounded.total_weight(), 1e-300);
  const double rho_min = rounded.min_density();
  const double t_ref = kin.decay_time_to_zero(w_total, rho_min) + rounded.max_release();
  const double s_ref = kin.speed_at_weight(w_total);
  const double eps_speed = params.epsilon_speed * s_ref;
  // The epsilon bootstrap has a boundary layer: starting a job from zero
  // processed weight at crawl speed eps, the current-instance clairvoyant
  // run stays busy at time t after the start only while
  //   (rho * eps * t)^b > b * rho * t,  b = 1 - 1/alpha,
  // i.e. t < t_layer = ((rho*eps)^b / (b*rho))^{1/(1-b)}.  The integrator
  // must take steps well inside that window or it never observes the
  // positive feedback and the run crawls forever (the continuous dynamics
  // escape the layer immediately; see nc_eta_min).
  const double b = kin.b();
  const double t_layer =
      std::pow(std::pow(rho_min * eps_speed, b) / (b * rho_min), 1.0 / (1.0 - b));
  const double min_dt =
      std::min(params.min_step * std::max(t_ref, 1e-12), std::max(0.05 * t_layer, 1e-15));

  const double eta = params.eta > 0.0 ? params.eta : 1.5 * nc_eta_min(alpha);
  CurrentInstanceOracle oracle(rounded, alpha);

  // Highest rounded density first, FIFO within a density level: the lowest
  // priority rank among released, unfinished jobs.  The state's jobs only
  // grow, in release order, so each job is admitted once; `position` maps a
  // job to its index there.
  const std::vector<JobId> by_rank = priority_order(rounded);
  const std::vector<int> rank = ranks_of(by_rank);
  const std::vector<int> position = ranks_of(rounded.fifo_order());
  std::vector<std::uint64_t> waiting = empty_rank_set(n);
  std::size_t admitted = 0;
  // The running job is the oracle's anchor: between two steps only its
  // processed volume changes, and the midpoint probe overrides just that one.
  const SpeedPolicy policy = [&](const ObservableState& st) -> PolicyDecision {
    for (; admitted < st.jobs.size(); ++admitted) {
      insert_rank(waiting, rank[static_cast<std::size_t>(st.jobs[admitted].id)]);
    }
    for (int r = first_rank(waiting); r >= 0; r = first_rank(waiting)) {
      const auto p = static_cast<std::size_t>(position[by_rank[static_cast<std::size_t>(r)]]);
      if (!st.jobs[p].completed) {
        ++out.c_evaluations;
        return {st.jobs[p].id, eta * oracle.c_speed(st, p) + eps_speed};
      }
      erase_rank(waiting, r);
    }
    return {};
  };

  OBS_COUNT("algo.nc_nonuniform.runs", 1);
  std::vector<double> processed;  // per job id, for the observer
  detail::PolicyEngineSetup setup{.step_growth = params.step_growth,
                                  .min_dt = min_dt,
                                  .max_steps = params.max_steps,
                                  .label = nullptr,
                                  .on_event = {}};
  if (observer) {
    setup.on_event = [&](const ObservableState& st) {
      processed.assign(n, 0.0);
      for (const auto& j : st.jobs) processed[static_cast<std::size_t>(j.id)] = j.processed;
      observer(st.time, processed);
    };
  }
  out.steps = detail::run_policy_engine(instance, rounded, alpha, policy, setup, out.result);
  OBS_COUNT("algo.nc_nonuniform.steps", out.steps);
  OBS_COUNT("algo.nc_nonuniform.c_evaluations", out.c_evaluations);
  out.oracle_events = oracle.events();
  OBS_COUNT("algo.nc_nonuniform.oracle_events", out.oracle_events);
  OBS_COUNT("algo.nc_nonuniform.pow_calls", oracle.pow_calls());
  return out;
}

}  // namespace speedscale
