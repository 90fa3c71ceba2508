#include "util/rng.hpp"

#include <cmath>

namespace autopower::util {

double lognormal_factor(Rng& rng, double sigma) {
  return std::exp(sigma * rng.next_gauss());
}

}  // namespace autopower::util
