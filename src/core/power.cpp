#include "src/core/power.h"

#include <algorithm>
#include <cmath>

namespace speedscale {

double PowerFunction::derivative(double speed) const {
  const double h = std::max(1e-7, 1e-7 * std::abs(speed));
  const double lo = std::max(0.0, speed - h);
  return (power(speed + h) - power(lo)) / (speed + h - lo);
}

PowerLaw::PowerLaw(double alpha) : alpha_(alpha) {
  if (!(alpha > 1.0)) throw ModelError("PowerLaw: alpha must exceed 1");
}

double PowerLaw::power(double speed) const { return std::pow(speed, alpha_); }

double PowerLaw::speed_for_power(double p) const {
  if (p <= 0.0) return 0.0;
  return std::pow(p, 1.0 / alpha_);
}

double PowerLaw::derivative(double speed) const {
  return alpha_ * std::pow(speed, alpha_ - 1.0);
}

std::string PowerLaw::name() const { return "s^" + std::to_string(alpha_); }

LeakyPowerLaw::LeakyPowerLaw(double alpha, double leak) : alpha_(alpha), leak_(leak) {
  if (!(alpha > 1.0)) throw ModelError("LeakyPowerLaw: alpha must exceed 1");
  if (!(leak >= 0.0)) throw ModelError("LeakyPowerLaw: leak must be non-negative");
}

double LeakyPowerLaw::power(double speed) const {
  return std::pow(speed, alpha_) + leak_ * speed;
}

double LeakyPowerLaw::speed_for_power(double p) const {
  if (p <= 0.0) return 0.0;
  // Newton from above: s^alpha <= P(s) and leak * s <= P(s) make both
  // p^{1/alpha} and p / leak upper bounds, and on a convex increasing P
  // Newton iterates from above decrease monotonically to the root.  Stop
  // when they stop decreasing: the root to a few ulp, at any scale of p.
  double s = std::pow(p, 1.0 / alpha_);
  if (leak_ > 0.0) s = std::min(s, p / leak_);
  for (int i = 0; i < 200; ++i) {
    const double excess = power(s) - p;
    if (!(excess > 0.0)) break;
    const double next = s - excess / derivative(s);
    if (!(next < s)) break;
    s = next;
  }
  return s;
}

double LeakyPowerLaw::derivative(double speed) const {
  return alpha_ * std::pow(speed, alpha_ - 1.0) + leak_;
}

std::string LeakyPowerLaw::name() const {
  return "s^" + std::to_string(alpha_) + "+" + std::to_string(leak_) + "*s";
}

double ExpPower::power(double speed) const { return std::expm1(speed); }

double ExpPower::speed_for_power(double p) const {
  if (p <= 0.0) return 0.0;
  return std::log1p(p);
}

double ExpPower::derivative(double speed) const { return std::exp(speed); }

std::string ExpPower::name() const { return "e^s-1"; }

}  // namespace speedscale
