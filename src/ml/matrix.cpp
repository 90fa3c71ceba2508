#include "ml/matrix.hpp"

#include <cmath>

#include "util/error.hpp"

namespace autopower::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    AP_REQUIRE(row.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::transpose_times(const Matrix& other) const {
  AP_REQUIRE(rows_ == other.rows_, "dimension mismatch in transpose_times");
  Matrix out(cols_, other.cols_);
  // k-outer order keeps each out(i, j)'s accumulation over k in
  // ascending order; the inner row update runs over independent j.
  for (std::size_t k = 0; k < rows_; ++k) {
    const double* row = &other.data_[k * other.cols_];
    for (std::size_t i = 0; i < cols_; ++i) {
      const double aki = at(k, i);
      if (aki == 0.0) continue;
      double* acc = &out.data_[i * out.cols_];
      for (std::size_t j = 0; j < other.cols_; ++j) acc[j] += aki * row[j];
    }
  }
  return out;
}

std::vector<double> Matrix::times(const std::vector<double>& vec) const {
  AP_REQUIRE(vec.size() == cols_, "dimension mismatch in times");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += at(r, c) * vec[c];
    out[r] = acc;
  }
  return out;
}

std::vector<double> Matrix::transpose_times(
    const std::vector<double>& vec) const {
  AP_REQUIRE(vec.size() == rows_, "dimension mismatch in transpose_times");
  std::vector<double> out(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double v = vec[r];
    if (v == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) out[c] += v * at(r, c);
  }
  return out;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

std::vector<double> cholesky_solve(Matrix a, std::vector<double> b) {
  AP_REQUIRE(a.rows() == a.cols(), "cholesky_solve requires a square matrix");
  AP_REQUIRE(a.rows() == b.size(), "dimension mismatch in cholesky_solve");
  const std::size_t n = a.rows();

  // In-place lower Cholesky factorisation A = L L^T.
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= a(j, k) * a(j, k);
    AP_ASSERT_MSG(diag > 1e-12, "matrix not positive definite");
    const double ljj = std::sqrt(diag);
    a(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= a(i, k) * a(j, k);
      a(i, j) = v / ljj;
    }
  }

  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= a(i, k) * b[k];
    b[i] = v / a(i, i);
  }
  // Back substitution L^T x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double v = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= a(k, ii) * b[k];
    b[ii] = v / a(ii, ii);
  }
  return b;
}

}  // namespace autopower::ml
