#include "models/zipf_model.hpp"

#include <stdexcept>

namespace appstore::models {

namespace {

class ZipfSession final : public Session {
 public:
  explicit ZipfSession(std::shared_ptr<const stats::ZipfSampler> global)
      : global_(std::move(global)) {}

  [[nodiscard]] std::uint32_t next(util::Rng& rng) override {
    return static_cast<std::uint32_t>(global_->sample_index(rng));
  }

  [[nodiscard]] bool exhausted() const noexcept override { return false; }

  void reset() noexcept override {}

 private:
  std::shared_ptr<const stats::ZipfSampler> global_;
};

}  // namespace

ZipfModel::ZipfModel(ModelParams params) : params_(params) {
  if (params_.app_count == 0) throw std::invalid_argument("ZipfModel: no apps");
  global_ = std::make_shared<const stats::ZipfSampler>(params_.app_count, params_.zr);
}

std::unique_ptr<Session> ZipfModel::new_session() const {
  return std::make_unique<ZipfSession>(global_);
}

std::vector<double> ZipfModel::expected_downloads() const {
  const stats::FiniteZipf zipf(params_.app_count, params_.zr);
  return zipf.expected_counts(params_.total_downloads());
}

Workload ZipfModel::generate(util::Rng& rng, bool record_sequences) const {
  if (record_sequences) return DownloadModel::generate(rng, true);
  Workload workload;
  workload.downloads.assign(params_.app_count, 0);
  // Sum of per-user realized counts == realizing each user separately.
  std::uint64_t total = 0;
  for (std::uint64_t user = 0; user < params_.user_count; ++user) {
    total += realized_downloads(params_.downloads_per_user, params_.app_count, rng);
  }
  for (std::uint64_t k = 0; k < total; ++k) {
    ++workload.downloads[global_->sample_index(rng)];
  }
  return workload;
}

}  // namespace appstore::models
