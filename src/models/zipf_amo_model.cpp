#include "models/zipf_amo_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace appstore::models {

void FetchedSet::insert(std::uint32_t app) {
  fetched_.push_back(app);
  if (fetched_.size() * 2 > slots_.size()) {
    // Double (16 slots at first) and rehash from the fetch order.
    bits_ = std::max(bits_ + 1, 4u);
    slots_.assign(std::size_t{1} << bits_, 0);
    for (std::size_t position = 0; position < fetched_.size(); ++position) {
      place(static_cast<std::uint32_t>(position));
    }
  } else {
    place(static_cast<std::uint32_t>(fetched_.size() - 1));
  }
}

void FetchedSet::place(std::uint32_t position) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = home(fetched_[position]);
  while (slots_[slot] != 0) slot = (slot + 1) & mask;
  slots_[slot] = position + 1;
}

namespace {

class AmoSession final : public Session {
 public:
  AmoSession(std::shared_ptr<const stats::ZipfSampler> global, std::uint32_t app_count)
      : global_(std::move(global)), app_count_(app_count) {}

  [[nodiscard]] std::uint32_t next(util::Rng& rng) override {
    const std::uint32_t app = draw_unfetched(
        rng, fetched_, app_count_, static_cast<std::uint32_t>(fetched_.size()),
        [this](util::Rng& r) { return static_cast<std::uint32_t>(global_->sample_index(r)); },
        [](std::uint32_t index) { return index; });
    fetched_.insert(app);
    return app;
  }

  [[nodiscard]] bool exhausted() const noexcept override {
    return fetched_.size() >= app_count_;
  }

 private:
  std::shared_ptr<const stats::ZipfSampler> global_;
  std::uint32_t app_count_;
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
