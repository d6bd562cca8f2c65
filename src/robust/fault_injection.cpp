#include "src/robust/fault_injection.h"

#include "src/obs/metrics_registry.h"

namespace speedscale::robust {

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kRootBracket:
      return "root_bracket";
    case FaultSite::kTraceLine:
      return "trace_line";
    case FaultSite::kPoolTask:
      return "pool_task";
    case FaultSite::kSiteCount:
      break;
  }
  return "unknown";
}

FaultPlan seed_faults(std::uint64_t seed, FaultSite site, int count, std::uint64_t range) {
  FaultPlan plan;
  if (range == 0) return plan;
  auto& s = plan.fire_at[static_cast<std::size_t>(site)];
  std::uint64_t x = seed;
  while (s.size() < static_cast<std::size_t>(count)) {
    // splitmix64: tiny, seed-stable, platform-independent.
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z = z ^ (z >> 31);
    s.insert(z % range);
  }
  return plan;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::install(FaultPlan plan) {
  std::lock_guard<std::mutex> lk(mu_);
  plan_ = std::move(plan);
  for (auto& c : calls_) c.store(0, std::memory_order_relaxed);
  for (auto& c : fired_) c.store(0, std::memory_order_relaxed);
  detail::g_faults_enabled.store(!plan_.empty(), std::memory_order_relaxed);
}

void FaultInjector::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  detail::g_faults_enabled.store(false, std::memory_order_relaxed);
  plan_ = FaultPlan{};
}

bool FaultInjector::should_fire(FaultSite site) {
  const auto i = static_cast<std::size_t>(site);
  const std::uint64_t index = calls_[i].fetch_add(1, std::memory_order_relaxed);
  bool fire = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fire = plan_.fire_at[i].count(index) > 0;
  }
  if (fire) {
    fired_[i].fetch_add(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) {
      obs::registry()
          .counter(std::string("robust.faults.fired.") + fault_site_name(site))
          .add(1);
    }
  }
  return fire;
}

std::uint64_t FaultInjector::calls(FaultSite site) const {
  return calls_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
}

std::uint64_t FaultInjector::fired(FaultSite site) const {
  return fired_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
}

}  // namespace speedscale::robust
