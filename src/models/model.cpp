#include "models/model.hpp"

#include <cmath>
#include <stdexcept>

#include "models/app_clustering_model.hpp"
#include "models/zipf_amo_model.hpp"
#include "models/zipf_model.hpp"

namespace appstore::models {

Workload DownloadModel::generate(util::Rng& rng, bool record_sequences) const {
  const ModelParams& p = params();
  Workload workload;
  workload.downloads.assign(p.app_count, 0);

  const auto session = new_session();
  for (std::uint64_t user = 0; user < p.user_count; ++user) {
    session->reset();
    const std::uint64_t count = realized_downloads(p.downloads_per_user, p.app_count, rng);
    for (std::uint64_t k = 0; k < count && !session->exhausted(); ++k) {
      const std::uint32_t app = session->next(rng);
      ++workload.downloads[app];
      if (record_sequences) {
        workload.sequences.append(static_cast<std::uint32_t>(user), app);
      }
    }
  }
  if (record_sequences) {
    workload.sequences.build_index(static_cast<std::uint32_t>(p.user_count));
  }
  return workload;
}

std::uint64_t DownloadModel::realized_downloads(double d, std::uint64_t cap,
                                                util::Rng& rng) noexcept {
  if (d <= 0.0) return 0;
  const double whole = std::floor(d);
  auto count = static_cast<std::uint64_t>(whole);
  if (rng.uniform() < d - whole) ++count;
  return std::min(count, cap);
}

std::span<const ModelKind> all_model_kinds() noexcept {
  static constexpr ModelKind kKinds[] = {ModelKind::kZipf, ModelKind::kZipfAtMostOnce,
                                         ModelKind::kAppClustering};
  return kKinds;
}

std::string_view to_string(ModelKind kind) noexcept {
  switch (kind) {
    case ModelKind::kZipf: return "ZIPF";
    case ModelKind::kZipfAtMostOnce: return "ZIPF-at-most-once";
    case ModelKind::kAppClustering: return "APP-CLUSTERING";
  }
  return "?";
}

std::unique_ptr<DownloadModel> make_model(ModelKind kind, const ModelParams& params) {
  switch (kind) {
    case ModelKind::kZipf:
      return std::make_unique<ZipfModel>(params);
    case ModelKind::kZipfAtMostOnce:
      return std::make_unique<ZipfAtMostOnceModel>(params);
    case ModelKind::kAppClustering:
      return std::make_unique<AppClusteringModel>(
          params, ClusterLayout::round_robin(params.app_count, params.cluster_count));
  }
  throw std::invalid_argument("make_model: unknown kind");
}

}  // namespace appstore::models
