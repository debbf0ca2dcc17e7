// Synthetic APK artifacts and the ad-library scanner (§6.3).
//
// The paper downloaded every app version's APK once and ran Androguard over
// it to detect libraries from the 20 most popular advertising networks,
// finding ads in 67.7% of free apps. We substitute a deterministic synthetic
// APK: a pseudo-binary blob with a parseable header and an embedded string
// table that contains the app's library names. scan_apk() recovers the ad
// networks by signature search — the same analysis contract Androguard
// provided, exercised end-to-end through the HTTP crawl (the service's
// /api/v1/app/<id>/apk endpoint serves these blobs; the crawler fetches each
// version once, as the paper's pipeline did).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace appstore::crawlersim {

/// The simulated top-20 ad-network library signatures (synthetic names; the
/// real list is irrelevant to the analysis, only its size matters).
[[nodiscard]] const std::vector<std::string>& ad_network_signatures();

struct ApkHeader {
  std::uint32_t app_id = 0;
  std::uint32_t version = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t library_count = 0;
};

/// Builds app `app_id`'s APK for `version`. The blob layout is
///   "APK1" | header fields (ASCII, '\n'-separated) | library table |
///   pseudo-random payload (deterministic in app_id+version)
/// `ad_libraries` are embedded verbatim into the library table alongside a
/// few benign library names. `payload_bytes` models the APK body (the paper
/// reports a 3.5 MB average; tests use a few KB).
[[nodiscard]] std::string build_apk(std::uint32_t app_id, std::uint32_t version,
                                    std::span<const std::string> ad_libraries,
                                    std::size_t payload_bytes = 3500);

/// Parses the header; nullopt if the blob is not a synthetic APK.
[[nodiscard]] std::optional<ApkHeader> parse_apk_header(std::string_view blob);

struct ApkScan {
  ApkHeader header;
  /// Ad-network signatures found in the library table.
  std::vector<std::string> ad_libraries;
  [[nodiscard]] bool has_ads() const noexcept { return !ad_libraries.empty(); }
};

/// Scans a blob for the known ad-network signatures (the Androguard
/// substitute). nullopt on malformed blobs.
[[nodiscard]] std::optional<ApkScan> scan_apk(std::string_view blob);

/// Deterministically selects the ad libraries embedded in an app's APK:
/// empty when `has_ads` is false, otherwise 1-3 networks chosen by hash of
/// the app id (stable across versions, as repackaged ad SDKs typically are).
[[nodiscard]] std::vector<std::string> select_ad_libraries(std::uint32_t app_id,
                                                           bool has_ads);

}  // namespace appstore::crawlersim
