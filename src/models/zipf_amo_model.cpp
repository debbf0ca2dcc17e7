#include "models/zipf_amo_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace appstore::models {

std::uint32_t FetchedSet::nth_unfetched(std::uint32_t target) const {
  // Every fetched id at or below the candidate pushes it one app further.
  std::vector<std::uint32_t> sorted = fetched_;
  std::sort(sorted.begin(), sorted.end());
  std::uint32_t app = target;
  for (const std::uint32_t fetched : sorted) {
    if (fetched > app) break;
    ++app;
  }
  return app;
}

namespace {

class AmoSession final : public Session {
 public:
  AmoSession(std::shared_ptr<const stats::ZipfSampler> global, std::uint32_t app_count)
      : global_(std::move(global)), fetched_(app_count) {}

  [[nodiscard]] std::uint32_t next(util::Rng& rng) override {
    const std::uint32_t app = draw_unfetched(rng, fetched_, [this](util::Rng& r) {
      return static_cast<std::uint32_t>(global_->sample_index(r));
    });
    fetched_.insert(app);
    return app;
  }

  [[nodiscard]] bool exhausted() const noexcept override {
    return fetched_.size() >= fetched_.universe();
  }

  void reset() noexcept override { fetched_.reset(); }

 private:
  std::shared_ptr<const stats::ZipfSampler> global_;
  FetchedSet fetched_;
};

}  // namespace

ZipfAtMostOnceModel::ZipfAtMostOnceModel(ModelParams params) : params_(params) {
  if (params_.app_count == 0) throw std::invalid_argument("ZipfAtMostOnceModel: no apps");
  global_ = std::make_shared<const stats::ZipfSampler>(params_.app_count, params_.zr);
}

std::unique_ptr<Session> ZipfAtMostOnceModel::new_session() const {
  return std::make_unique<AmoSession>(global_, params_.app_count);
}

std::vector<double> ZipfAtMostOnceModel::expected_downloads() const {
  const stats::FiniteZipf zipf(params_.app_count, params_.zr);
  std::vector<double> expected(params_.app_count);
  const double users = static_cast<double>(params_.user_count);
  for (std::uint64_t rank = 1; rank <= params_.app_count; ++rank) {
    const double probability = zipf.pmf(rank);
    expected[rank - 1] =
        users * (1.0 - std::pow(1.0 - probability, params_.downloads_per_user));
  }
  return expected;
}

}  // namespace appstore::models
