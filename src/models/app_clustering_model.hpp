// APP-CLUSTERING: the paper's model of appstore downloads (§5.1).
//
// Per-user behaviour (Table 2 / algorithm of §5.1):
//   1. The first download is drawn from the global Zipf ZG (exponent zr).
//   2. Each subsequent download:
//      2.1 with probability p comes from the cluster of a previously
//          downloaded app — the anchor download is picked uniformly among
//          the user's previous downloads, and the app within that cluster
//          is drawn from the per-cluster Zipf Zc (exponent zc), rejecting
//          already-fetched apps;
//      2.2 with probability 1-p comes from ZG, again fetch-at-most-once.
//
// Combined with fetch-at-most-once this reproduces both truncations of
// Fig. 3: the head flattens at ~U downloads, and the tail collapses because
// most draws recirculate inside already-visited clusters.
#pragma once

#include <memory>
#include <vector>

#include "models/model.hpp"
#include "models/params.hpp"
#include "stats/zipf.hpp"

namespace appstore::models {

/// Thread-safe for shared use: every per-size Zc sampler is built eagerly in
/// the constructor (a layout has few distinct sizes — round-robin has at most
/// two), so the model is immutable after construction and concurrent sessions
/// of the SAME instance need no synchronization. Sessions themselves stay
/// single-threaded.
class AppClusteringModel final : public DownloadModel {
 public:
  /// `layout.app_count()` must equal `params.app_count`. `params.cluster_count`
  /// is overwritten by the layout's cluster count.
  AppClusteringModel(ModelParams params, ClusterLayout layout);

  [[nodiscard]] std::string_view name() const noexcept override { return "APP-CLUSTERING"; }
  [[nodiscard]] ModelKind kind() const noexcept override { return ModelKind::kAppClustering; }
  [[nodiscard]] const ModelParams& params() const noexcept override { return params_; }
  [[nodiscard]] const ClusterLayout& layout() const noexcept { return layout_; }

  [[nodiscard]] std::unique_ptr<Session> new_session() const override;

  /// Eq. 5: D(i,j) = U * [1 - (1-PG(i))^{(1-p)d} * (1-Pc(j))^{p*d}], where
  /// PG is the ZG pmf at global rank i and Pc the Zc pmf at within-cluster
  /// rank j over the app's actual cluster size.
  [[nodiscard]] std::vector<double> expected_downloads() const override;

  /// Global ZG sampler (shared by sessions).
  [[nodiscard]] const stats::ZipfSampler& global_sampler() const noexcept { return *global_; }

  /// The Zc sampler over a cluster's members (shared by clusters of equal
  /// size; built eagerly at construction): one pointer load per draw.
  /// Precondition: the cluster is not empty.
  [[nodiscard]] const stats::ZipfSampler& sampler_for_cluster(
      std::uint32_t cluster) const noexcept {
    return *by_cluster_[cluster];
  }

 private:
  ModelParams params_;
  ClusterLayout layout_;
  std::shared_ptr<const stats::ZipfSampler> global_;
  /// One Zc sampler per distinct cluster size.
  std::vector<std::unique_ptr<const stats::ZipfSampler>> cluster_samplers_;
  /// The sampler of each cluster (null for an empty cluster).
  std::vector<const stats::ZipfSampler*> by_cluster_;
};

}  // namespace appstore::models
