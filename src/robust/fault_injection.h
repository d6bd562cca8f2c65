// Deterministic fault injection for the numeric stack.
//
// Every guard in this library (bracket recovery in the root finders,
// exception capture in the thread pool, the strict/lenient trace reader) is
// exercised by *injected* faults, so the degradation paths are tested code,
// not dead code.  Faults are planned, not
// random-at-runtime: a FaultPlan names, per site, the exact call indices at
// which the fault fires (optionally derived from a seed), so a failing test
// reproduces bit-for-bit.
//
// Production cost: each site is one inlined relaxed atomic load when no plan
// is installed — the same discipline as TRACE_EVENT / OBS_COUNT.
//
// Thread-safety: installation/removal is exclusive with concurrently running
// sites (mutex + per-site atomic call counters); tests install a plan,
// run the workload, then let the ScopedFaultPlan uninstall.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <vector>

namespace speedscale::robust {

/// Where a fault can be injected.  Keep in sync with fault_site_name().
enum class FaultSite : std::uint8_t {
  kRootBracket,     ///< root finders: pretend the bracket has equal signs
  kTraceLine,       ///< trace writer: truncate/corrupt one CSV line
  kPoolTask,        ///< thread pool: throw from one task body
  kSiteCount,       // sentinel
};

[[nodiscard]] const char* fault_site_name(FaultSite site);

inline constexpr std::size_t kFaultSiteCount =
    static_cast<std::size_t>(FaultSite::kSiteCount);

/// Which call indices (0-based, per site) fire.  Built explicitly or derived
/// from a seed (seed_faults), never from ambient randomness.
struct FaultPlan {
  std::set<std::uint64_t> fire_at[kFaultSiteCount];

  FaultPlan& fire(FaultSite site, std::initializer_list<std::uint64_t> indices) {
    auto& s = fire_at[static_cast<std::size_t>(site)];
    s.insert(indices.begin(), indices.end());
    return *this;
  }
  [[nodiscard]] bool empty() const {
    for (const auto& s : fire_at) {
      if (!s.empty()) return false;
    }
    return true;
  }
};

/// Derives a plan firing `count` pseudo-random indices in [0, range) at
/// `site` from `seed` (splitmix64).  Deterministic across platforms.
[[nodiscard]] FaultPlan seed_faults(std::uint64_t seed, FaultSite site, int count,
                                    std::uint64_t range);

namespace detail {
inline std::atomic<bool> g_faults_enabled{false};
}  // namespace detail

/// One relaxed load; true only while a plan is installed.
[[nodiscard]] inline bool faults_enabled() noexcept {
  return detail::g_faults_enabled.load(std::memory_order_relaxed);
}

/// Process-wide injector.  All methods are thread-safe.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Installs `plan` and resets all call/fire counters.
  void install(FaultPlan plan);
  /// Uninstalls any plan (sites return to the single-load fast path).
  void clear();

  /// Records one arrival at `site` and reports whether the fault fires
  /// there.  Called through fault_fire(); O(log plan size) when installed.
  [[nodiscard]] bool should_fire(FaultSite site);

  /// Counters since the last install() — how many times the site was
  /// reached / actually fired.  For asserting coverage in tests.
  [[nodiscard]] std::uint64_t calls(FaultSite site) const;
  [[nodiscard]] std::uint64_t fired(FaultSite site) const;

 private:
  FaultInjector() = default;
  mutable std::mutex mu_;
  FaultPlan plan_;
  std::atomic<std::uint64_t> calls_[kFaultSiteCount] = {};
  std::atomic<std::uint64_t> fired_[kFaultSiteCount] = {};
};

/// Site check: false (one relaxed load) unless a plan is installed.
[[nodiscard]] inline bool fault_fire(FaultSite site) {
  if (!faults_enabled()) return false;
  return FaultInjector::instance().should_fire(site);
}

/// RAII plan installation for tests: installs on construction, clears on
/// destruction (also restoring the metrics the injector bumps).
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(FaultPlan plan) { FaultInjector::instance().install(std::move(plan)); }
  ~ScopedFaultPlan() { FaultInjector::instance().clear(); }
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;
};

}  // namespace speedscale::robust
