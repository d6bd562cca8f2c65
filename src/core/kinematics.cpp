#include "src/core/kinematics.h"

#include <algorithm>
#include <cmath>

namespace speedscale {

PowerLawKinematics::PowerLawKinematics(double alpha) : alpha_(alpha), b_(1.0 - 1.0 / alpha) {
  if (!(alpha > 1.0)) throw ModelError("PowerLawKinematics: alpha must exceed 1");
}

double PowerLawKinematics::speed_at_weight(double w) const {
  if (w <= 0.0) return 0.0;
  return std::pow(w, 1.0 / alpha_);
}

double PowerLawKinematics::decay_weight_after(double w0, double rho, double dt) const {
  if (w0 <= 0.0) return 0.0;
  return weight_from_pow(decay_pow_after(pow_b(w0), rho, dt));
}

double PowerLawKinematics::decay_time_to_weight(double w0, double w1, double rho) const {
  if (w1 > w0) throw ModelError("decay_time_to_weight: w1 must not exceed w0");
  if (w0 <= 0.0) return 0.0;
  return band_time_pow(pow_b(std::max(w1, 0.0)), pow_b(w0), rho);
}

double PowerLawKinematics::decay_time_to_zero(double w0, double rho) const {
  return decay_time_to_weight(w0, 0.0, rho);
}

double PowerLawKinematics::decay_integral(double w0, double w1, double rho) const {
  if (w1 > w0) throw ModelError("decay_integral: w1 must not exceed w0");
  const double p = 1.0 + b_;
  const double w1c = std::max(w1, 0.0);
  return (std::pow(w0, p) - std::pow(w1c, p)) / (rho * p);
}

double PowerLawKinematics::decay_volume(double w0, double w1, double rho) {
  return (w0 - w1) / rho;
}

double PowerLawKinematics::grow_weight_after(double u0, double rho, double dt) const {
  return weight_from_pow(grow_pow_after(pow_b(std::max(u0, 0.0)), rho, dt));
}

double PowerLawKinematics::grow_time_to_weight(double u0, double u1, double rho) const {
  if (u1 < u0) throw ModelError("grow_time_to_weight: u1 must be at least u0");
  return band_time_pow(pow_b(std::max(u0, 0.0)), pow_b(u1), rho);
}

double PowerLawKinematics::grow_integral(double u0, double u1, double rho) const {
  if (u1 < u0) throw ModelError("grow_integral: u1 must be at least u0");
  const double p = 1.0 + b_;
  const double u0c = std::max(u0, 0.0);
  return (std::pow(u1, p) - std::pow(u0c, p)) / (rho * p);
}

double PowerLawKinematics::pow_b(double w) const { return std::pow(w, b_); }

double PowerLawKinematics::weight_from_pow(double wb) const {
  if (wb <= 0.0) return 0.0;
  return std::pow(wb, 1.0 / b_);
}

double PowerLawKinematics::decay_pow_after(double w0b, double rho, double dt) const {
  if (w0b <= 0.0) return 0.0;
  return std::max(w0b - rho * b_ * dt, 0.0);
}

double PowerLawKinematics::grow_pow_after(double u0b, double rho, double dt) const {
  return u0b + rho * b_ * dt;
}

double PowerLawKinematics::band_time_pow(double lo_b, double hi_b, double rho) const {
  return (hi_b - lo_b) / (rho * b_);
}

double PowerLawKinematics::band_integral_pow(double lo, double lo_b, double hi, double hi_b,
                                             double rho) const {
  return (hi * hi_b - lo * lo_b) / (rho * (1.0 + b_));
}

double PowerLawKinematics::grow_volume(double u0, double u1, double rho) {
  return (u1 - u0) / rho;
}

}  // namespace speedscale
