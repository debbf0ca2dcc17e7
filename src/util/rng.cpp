#include "util/rng.hpp"

#include <cmath>
#include <string_view>

namespace appstore::util {

double Rng::normal() noexcept {
  // Marsaglia polar method.
  for (;;) {
    const double u = 2.0 * uniform() - 1.0;
    const double v = 2.0 * uniform() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Rng::exponential(double lambda) noexcept {
  // Inverse CDF; guard against log(0).
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double product = uniform();
    while (product > limit) {
      ++k;
      product *= uniform();
    }
    return k;
  }
  // Normal approximation with continuity correction for large means.
  const double sample = normal(mean, std::sqrt(mean));
  return sample <= 0.0 ? 0 : static_cast<std::uint64_t>(sample + 0.5);
}

std::uint64_t Rng::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return static_cast<std::uint64_t>(std::log(u) / std::log1p(-p));
}

std::uint64_t hash64(std::string_view text) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace appstore::util
