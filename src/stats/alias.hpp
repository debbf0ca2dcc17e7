// Walker/Vose alias method: O(n) construction, O(1) sampling from an
// arbitrary finite discrete distribution.
//
// Every download drawn in the Monte Carlo simulators (§5.2) is a draw from a
// finite Zipf distribution over up to ~156k apps; alias tables make a
// multi-million-download simulation run in seconds on one core.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace appstore::stats {

class AliasTable {
 public:
  AliasTable() = default;

  /// Builds from non-negative weights (need not be normalized).
  /// Throws std::invalid_argument on empty input, negative weights, or an
  /// all-zero weight vector.
  explicit AliasTable(std::span<const double> weights);

  [[nodiscard]] std::size_t size() const noexcept { return probability_.size(); }
  [[nodiscard]] bool empty() const noexcept { return probability_.empty(); }

  /// Draws one index with probability proportional to its weight. Inline:
  /// every simulated download is one or more alias draws.
  [[nodiscard]] std::size_t sample(util::Rng& rng) const noexcept {
    const auto column = static_cast<std::size_t>(rng.below(probability_.size()));
    return rng.uniform() < probability_[column] ? column : alias_[column];
  }

  /// Normalized probability of index i (for tests / analytic checks).
  [[nodiscard]] double probability_of(std::size_t i) const noexcept {
    return normalized_[i];
  }

 private:
  std::vector<double> probability_;   ///< acceptance threshold per column
  std::vector<std::uint32_t> alias_;  ///< fallback index per column
  std::vector<double> normalized_;    ///< original weights / total
};

}  // namespace appstore::stats
