#include "stats/alias.hpp"

#include <limits>
#include <stdexcept>

namespace appstore::stats {

AliasTable::AliasTable(std::span<const double> weights) {
  const std::size_t n = weights.size();
  if (n == 0) throw std::invalid_argument("AliasTable: empty weights");
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("AliasTable: too many weights");
  }

  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument("AliasTable: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("AliasTable: all weights zero");

  normalized_.resize(n);
  for (std::size_t i = 0; i < n; ++i) normalized_[i] = weights[i] / total;

  probability_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Scaled probabilities; columns with mass < 1 are "small", >= 1 "large".
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = normalized_[i] * static_cast<double>(n);

  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    probability_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Residuals are exactly 1 up to floating error.
  for (const std::uint32_t i : large) probability_[i] = 1.0;
  for (const std::uint32_t i : small) probability_[i] = 1.0;
}

}  // namespace appstore::stats
