// Power functions P: speed -> instantaneous power.
//
// The paper's headline results assume P(s) = s^alpha for alpha > 1, for which
// every trajectory of the P = W rule has a closed form (see kinematics.h).
// Lemmas 3 and 6, however, hold for *every* monotone convex power function
// with P(0) = 0; the generic engine (src/sim/numeric_engine.h) exercises that
// generality with the non-polynomial functions below.
#pragma once

#include <memory>
#include <string>

#include "src/core/types.h"

namespace speedscale {

/// Abstract monotone convex power function with P(0) = 0.
class PowerFunction {
 public:
  virtual ~PowerFunction() = default;

  /// P(s).  Requires s >= 0.
  [[nodiscard]] virtual double power(double speed) const = 0;

  /// P^{-1}(p): the speed whose power draw is p.  Requires p >= 0.
  [[nodiscard]] virtual double speed_for_power(double p) const = 0;

  /// dP/ds.  The default implementation uses a central difference.
  [[nodiscard]] virtual double derivative(double speed) const;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// P(s) = s^alpha, alpha > 1.  The paper's canonical power function.
class PowerLaw final : public PowerFunction {
 public:
  explicit PowerLaw(double alpha);

  [[nodiscard]] double power(double speed) const override;
  [[nodiscard]] double speed_for_power(double p) const override;
  [[nodiscard]] double derivative(double speed) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double alpha() const { return alpha_; }

 private:
  double alpha_;
};

/// P(s) = s^alpha + leak * s: a power law with a linear "leakage" term, a
/// standard model of static power.  Convex and monotone; the inverse is
/// Newton's method from an upper bound, to a few ulp relative.
class LeakyPowerLaw final : public PowerFunction {
 public:
  LeakyPowerLaw(double alpha, double leak);

  [[nodiscard]] double power(double speed) const override;
  [[nodiscard]] double speed_for_power(double p) const override;
  [[nodiscard]] double derivative(double speed) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double alpha_;
  double leak_;
};

/// P(s) = e^s - 1: super-polynomial growth; stress-tests the generic engine.
class ExpPower final : public PowerFunction {
 public:
  [[nodiscard]] double power(double speed) const override;
  [[nodiscard]] double speed_for_power(double p) const override;
  [[nodiscard]] double derivative(double speed) const override;
  [[nodiscard]] std::string name() const override;
};

}  // namespace speedscale
