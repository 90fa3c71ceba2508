// Ridge regression ("linear model with L2 normalization" in the paper).
//
// AutoPower uses ridge models for structural quantities — register count and
// gating rate per component, which are near-affine in the hardware
// parameters — because they must extrapolate from as few as two known
// configurations.  Features are standardised internally so the L2 penalty is
// scale-free; the intercept is never penalised.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"
#include "util/archive.hpp"

namespace autopower::ml {

/// Hyper-parameters for RidgeRegression.
struct RidgeOptions {
  /// L2 penalty on standardised coefficients.
  double lambda = 1e-3;
  /// If true, predictions are clamped to be non-negative (counts, rates).
  bool nonnegative_prediction = false;
};

/// Closed-form ridge regression with internal feature standardisation.
class RidgeRegression {
 public:
  RidgeRegression() = default;
  explicit RidgeRegression(RidgeOptions options) : options_(options) {}

  /// Fits on the dataset.  Works for any n >= 1 (the ridge penalty makes the
  /// normal equations well-posed even when underdetermined).
  void fit(const Dataset& data);

  /// Predicts one sample; throws util::NotFitted before fit().
  [[nodiscard]] double predict(std::span<const double> features) const;

  /// Predicts every sample in a dataset.
  [[nodiscard]] std::vector<double> predict_all(const Dataset& data) const;

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }

  /// Coefficients in the original (unstandardised) feature space.
  [[nodiscard]] const std::vector<double>& coefficients() const noexcept {
    return coef_;
  }
  [[nodiscard]] double intercept() const noexcept { return intercept_; }

  /// Serialization (see util/archive.hpp).
  void save(util::ArchiveWriter& out) const;
  void load(util::ArchiveReader& in);

 private:
  RidgeOptions options_;
  std::vector<double> coef_;
  double intercept_ = 0.0;
  bool fitted_ = false;
};

}  // namespace autopower::ml
