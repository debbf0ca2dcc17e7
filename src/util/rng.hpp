// Deterministic pseudo-random number generation for reproducible experiments.
//
// All randomness in the library flows through util::Rng (xoshiro256**,
// seeded via splitmix64) so that every experiment is bit-reproducible from a
// single --seed value. The generator satisfies the C++ UniformRandomBitGenerator
// concept and can therefore be used with <random> distributions, but the
// member helpers below are preferred: they are faster and keep behaviour
// identical across standard-library implementations.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>

namespace appstore::util {

/// SplitMix64 step: used to expand a single 64-bit seed into a full
/// xoshiro256** state. Public because tests and hashing utilities reuse it.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 by Blackman & Vigna — fast, high-quality, 256-bit state.
/// Deterministic across platforms; not cryptographically secure (not needed).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full state from a single 64-bit value via splitmix64.
  explicit constexpr Rng(std::uint64_t seed = 0x9d0f00dULL) noexcept { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1). Uses the top 53 bits for full double precision.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). Lemire's nearly-divisionless method.
  /// Inline: the Monte Carlo models call it several times per download.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    // Multiply-shift with rejection to remove modulo bias.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Standard normal via Marsaglia polar method (no cached spare: keeps the
  /// generator's consumption pattern simple and reproducible).
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Exponential with the given rate lambda (> 0).
  [[nodiscard]] double exponential(double lambda) noexcept;

  /// Log-normal: exp(normal(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Poisson with the given mean (Knuth for small mean, normal approx above 64).
  [[nodiscard]] std::uint64_t poisson(double mean) noexcept;

  /// Geometric number of failures before first success, p in (0, 1].
  [[nodiscard]] std::uint64_t geometric(double p) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Uniformly pick one element of a non-empty span.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> values) noexcept {
    return values[static_cast<std::size_t>(below(values.size()))];
  }

  /// Derive an independent child generator (for per-entity streams).
  [[nodiscard]] Rng fork() noexcept { return Rng{(*this)()}; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

namespace rng {

/// Derives an independent child seed for shard/entity `shard_id` from a base
/// seed, via two decorrelated splitmix64 mixes. Pure function: the same
/// (seed, shard_id) always yields the same child seed, so parallel code can
/// hand every shard its own reproducible stream regardless of how shards are
/// scheduled across threads.
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t seed,
                                                  std::uint64_t shard_id) noexcept {
  std::uint64_t state = seed;
  const std::uint64_t mixed_seed = splitmix64(state);
  state ^= (shard_id + 1) * 0xbf58476d1ce4e5b9ULL;
  return mixed_seed ^ splitmix64(state);
}

/// Ready-to-use generator for shard `shard_id` (see derive_seed).
[[nodiscard]] constexpr Rng derive(std::uint64_t seed, std::uint64_t shard_id) noexcept {
  return Rng{derive_seed(seed, shard_id)};
}

}  // namespace rng

/// Stable 64-bit hash of a string (FNV-1a); used to derive per-entity seeds.
[[nodiscard]] std::uint64_t hash64(std::string_view text) noexcept;

/// Combine two 64-bit values into one seed (boost::hash_combine style).
[[nodiscard]] constexpr std::uint64_t combine_seed(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a;
  s ^= b + 0x9e3779b97f4a7c15ULL + (s << 12) + (s >> 4);
  return s;
}

}  // namespace appstore::util
