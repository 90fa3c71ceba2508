#include "ml/linear.hpp"

#include <algorithm>
#include <cmath>

#include "ml/matrix.hpp"
#include "util/error.hpp"

namespace autopower::ml {

void RidgeRegression::fit(const Dataset& data) {
  AP_REQUIRE(!data.empty(), "cannot fit ridge regression on empty dataset");
  const std::size_t n = data.size();
  const std::size_t p = data.num_features();

  // Standardise features; centre the target.  Centring makes the intercept
  // exact and unpenalised.
  std::vector<double> mean(p, 0.0);
  std::vector<double> scale(p, 1.0);
  for (std::size_t j = 0; j < p; ++j) {
    const auto col = data.column(j);
    double m = 0.0;
    for (double v : col) m += v;
    m /= static_cast<double>(n);
    double var = 0.0;
    for (double v : col) var += (v - m) * (v - m);
    var /= static_cast<double>(n);
    mean[j] = m;
    scale[j] = var > 1e-24 ? std::sqrt(var) : 1.0;
  }
  double ymean = 0.0;
  for (std::size_t i = 0; i < n; ++i) ymean += data.target(i);
  ymean /= static_cast<double>(n);

  Matrix x(n, p);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto f = data.features(i);
    for (std::size_t j = 0; j < p; ++j) x(i, j) = (f[j] - mean[j]) / scale[j];
    y[i] = data.target(i) - ymean;
  }

  // Normal equations (X^T X + lambda I) w = X^T y.
  Matrix gram = x.transpose_times(x);
  for (std::size_t j = 0; j < p; ++j) {
    gram(j, j) += std::max(options_.lambda, 1e-10);
  }
  const std::vector<double> rhs = x.transpose_times(y);
  const std::vector<double> w = cholesky_solve(std::move(gram), rhs);

  // Back-transform to original feature space.
  coef_.assign(p, 0.0);
  intercept_ = ymean;
  for (std::size_t j = 0; j < p; ++j) {
    coef_[j] = w[j] / scale[j];
    intercept_ -= coef_[j] * mean[j];
  }
  fitted_ = true;
}

double RidgeRegression::predict(std::span<const double> features) const {
  if (!fitted_) throw util::NotFitted("RidgeRegression::predict before fit");
  AP_REQUIRE(features.size() == coef_.size(),
             "feature arity mismatch in RidgeRegression::predict");
  double acc = intercept_;
  for (std::size_t j = 0; j < coef_.size(); ++j) {
    acc += coef_[j] * features[j];
  }
  if (options_.nonnegative_prediction) acc = std::max(acc, 0.0);
  return acc;
}

void RidgeRegression::save(util::ArchiveWriter& out) const {
  out.write("ridge.lambda", options_.lambda);
  out.write("ridge.nonneg", options_.nonnegative_prediction);
  out.write("ridge.fitted", fitted_);
  out.write("ridge.intercept", intercept_);
  out.write("ridge.coef", coef_);
}

void RidgeRegression::load(util::ArchiveReader& in) {
  options_.lambda = in.read_double("ridge.lambda");
  options_.nonnegative_prediction = in.read_bool("ridge.nonneg");
  fitted_ = in.read_bool("ridge.fitted");
  intercept_ = in.read_double("ridge.intercept");
  coef_ = in.read_doubles("ridge.coef");
}

std::vector<double> RidgeRegression::predict_all(const Dataset& data) const {
  std::vector<double> out;
  out.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out.push_back(predict(data.features(i)));
  }
  return out;
}

}  // namespace autopower::ml
