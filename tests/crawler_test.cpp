// Tests for the crawler substrate: JSON, the appstore REST service, the
// crawl database, and the end-to-end crawler with proxy rotation.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "crawler/apk.hpp"
#include "crawler/crawler.hpp"
#include "crawler/database.hpp"
#include "crawler/db_io.hpp"
#include "crawler/json.hpp"
#include "crawler/query_json.hpp"
#include "crawler/service.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "synth/generator.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace appstore::crawlersim {
namespace {

// ---- JSON ------------------------------------------------------------------------

TEST(Json, DumpPrimitives) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, DumpEscapes) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, DumpNested) {
  const Json value = json_object(
      {{"ids", Json(JsonArray{Json(1), Json(2)})}, {"meta", json_object({{"ok", Json(true)}})}});
  EXPECT_EQ(value.dump(), R"({"ids":[1,2],"meta":{"ok":true}})");
}

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_TRUE(parse_json("true")->as_bool());
  EXPECT_DOUBLE_EQ(parse_json("-2.5e2")->as_number(), -250.0);
  EXPECT_EQ(parse_json("\"x\\ny\"")->as_string(), "x\ny");
}

TEST(Json, ParseUnicodeEscape) {
  EXPECT_EQ(parse_json("\"\\u0041\"")->as_string(), "A");
  EXPECT_EQ(parse_json("\"\\u00e9\"")->as_string(), "\xc3\xa9");  // é in UTF-8
}

TEST(Json, RoundTripComplex) {
  const std::string text =
      R"({"a":[1,2,{"b":null}],"c":"x","d":false,"e":{"f":[[]]},"g":1e3})";
  const auto parsed = parse_json(text);
  ASSERT_TRUE(parsed.has_value());
  const auto reparsed = parse_json(parsed->dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*parsed, *reparsed);
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("[1,]").has_value());
  EXPECT_FALSE(parse_json("{\"a\":}").has_value());
  EXPECT_FALSE(parse_json("{\"a\":1,}").has_value());
  EXPECT_FALSE(parse_json("\"unterminated").has_value());
  EXPECT_FALSE(parse_json("1 2").has_value());        // trailing garbage
  EXPECT_FALSE(parse_json("nully").has_value());
  EXPECT_FALSE(parse_json("{'a':1}").has_value());    // single quotes
}

TEST(Json, ParseWhitespaceTolerant) {
  const auto parsed = parse_json("  { \"a\" :\n[ 1 , 2 ]\t}  ");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->at("a").as_array().size(), 2u);
}

TEST(Json, FindAndAt) {
  const Json value = json_object({{"x", Json(1)}});
  EXPECT_NE(value.find("x"), nullptr);
  EXPECT_EQ(value.find("y"), nullptr);
  EXPECT_THROW((void)value.at("y"), std::out_of_range);
  EXPECT_EQ(Json(1).find("x"), nullptr);  // non-object
}

TEST(Json, DeepNestingGuard) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(parse_json(deep).has_value());  // beyond depth limit
}

/// The number text the writer is specified to produce, spelled with printf:
/// "%.0f" for integers below 2^53 in magnitude, "%.17g" for every other
/// finite value, null for NaN and infinities.
std::string printf_number(double value) {
  if (std::isnan(value) || std::isinf(value)) return "null";
  char buffer[32];
  if (value == std::floor(value) && std::fabs(value) < 9.007199254740992e15) {
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
  } else {
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
  }
  return buffer;
}

TEST(Json, NumberTextMatchesPrintf) {
  const double two53 = 9007199254740992.0;
  std::vector<double> values = {
      0.0, -0.0, two53 - 1, -(two53 - 1), two53, -two53, two53 + 2, 1e21, -1e21, 1e22,
      std::numeric_limits<double>::denorm_min(), -std::numeric_limits<double>::denorm_min(),
      DBL_MIN / 2, DBL_MIN - std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX,
      -DBL_MAX, 0.1, -0.1, 1.0 / 3.0, 2.0 / 3.0, 0.5, -2.5, 4503599627370495.5, 1e-7,
      123456789.125, 9.2233720368547758e18, 1e300, std::nan(""),
      std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity()};
  util::Rng rng(20130);
  for (int i = 0; i < (1 << 20); ++i) {
    switch (i % 4) {
      case 0:
      case 1: values.push_back(std::bit_cast<double>(rng())); break;
      case 2:  // integers on both sides of 2^53
        values.push_back(static_cast<double>(static_cast<std::int64_t>(rng.below(1ULL << 55)) -
                                             (std::int64_t{1} << 54)));
        break;
      default:  // short decimals, the service's ratings and prices
        values.push_back(static_cast<double>(rng.below(2'000'000)) / 1000.0 - 1000.0);
        break;
    }
  }
  std::size_t mismatches = 0;
  for (const double value : values) {
    const std::string expected = printf_number(value);
    const std::string written = Json(value).dump();
    if (written != expected && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(value) << ": wrote " << written
                    << ", printf gives " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " numbers";
}

// ---- database --------------------------------------------------------------------

AppRecord meta(std::uint32_t id, bool paid = false) {
  AppRecord record;
  record.id = id;
  record.name = "app";
  record.category = "games";
  record.developer = "dev";
  record.paid = paid;
  return record;
}

TEST(Database, RecordAndUpsert) {
  CrawlDatabase database;
  database.record(meta(1), 0, AppObservation{100, 1, 0.0});
  database.record(meta(1), 1, AppObservation{150, 2, 0.0});
  EXPECT_EQ(database.app_count(), 1u);
  const AppRecord* record = database.find(1);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->by_day.size(), 2u);
  EXPECT_EQ(record->by_day.at(1).downloads, 150u);
  EXPECT_EQ(record->first_seen, 0);
}

TEST(Database, SnapshotSeriesAccumulates) {
  CrawlDatabase database;
  database.record(meta(1), 0, AppObservation{100, 1, 0.0});
  database.record(meta(1), 1, AppObservation{150, 1, 0.0});
  database.record(meta(2), 1, AppObservation{30, 1, 0.0});
  const auto series = database.snapshot_series();
  ASSERT_EQ(series.snapshots().size(), 2u);
  EXPECT_EQ(series.snapshots()[0].total_apps, 1u);
  EXPECT_EQ(series.snapshots()[0].total_downloads, 100u);
  EXPECT_EQ(series.snapshots()[1].total_apps, 2u);
  EXPECT_EQ(series.snapshots()[1].total_downloads, 180u);
}

TEST(Database, RanksAndPricingFilter) {
  CrawlDatabase database;
  database.record(meta(1), 0, AppObservation{100, 1, 0.0});
  database.record(meta(2, true), 0, AppObservation{5, 1, 1.99});
  database.record(meta(3), 0, AppObservation{40, 1, 0.0});
  const auto all = database.downloads_by_rank(0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_DOUBLE_EQ(all[0], 100.0);
  EXPECT_DOUBLE_EQ(all[2], 5.0);
  const auto paid = database.downloads_by_rank(0, true);
  ASSERT_EQ(paid.size(), 1u);
  EXPECT_DOUBLE_EQ(paid[0], 5.0);
}

TEST(Database, UpdatesFromVersionDelta) {
  CrawlDatabase database;
  database.record(meta(1), 0, AppObservation{1, 1, 0.0});
  database.record(meta(1), 5, AppObservation{2, 3, 0.0});
  database.record(meta(2), 0, AppObservation{1, 1, 0.0});
  const auto updates = database.updates_per_app();
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_DOUBLE_EQ(updates[0], 2.0);  // version 1 -> 3
  EXPECT_DOUBLE_EQ(updates[1], 0.0);
}


// ---- APK artifacts (the Androguard substitute, §6.3) -------------------------

TEST(Apk, BuildScanRoundTrip) {
  const std::vector<std::string> ads = {ad_network_signatures()[3],
                                        ad_network_signatures()[7]};
  const std::string blob = build_apk(42, 2, ads, 1000);
  const auto header = parse_apk_header(blob);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->app_id, 42u);
  EXPECT_EQ(header->version, 2u);
  const auto scan = scan_apk(blob);
  ASSERT_TRUE(scan.has_value());
  EXPECT_TRUE(scan->has_ads());
  EXPECT_EQ(scan->ad_libraries.size(), 2u);
}

TEST(Apk, CleanApkScansClean) {
  const std::string blob = build_apk(7, 1, {}, 500);
  const auto scan = scan_apk(blob);
  ASSERT_TRUE(scan.has_value());
  EXPECT_FALSE(scan->has_ads());
}

TEST(Apk, DeterministicPerAppAndVersion) {
  const auto ads = select_ad_libraries(5, true);
  EXPECT_EQ(build_apk(5, 1, ads), build_apk(5, 1, ads));
  EXPECT_NE(build_apk(5, 1, ads), build_apk(5, 2, ads));
}

TEST(Apk, SelectAdLibrariesStableAndBounded) {
  EXPECT_TRUE(select_ad_libraries(9, false).empty());
  const auto first = select_ad_libraries(9, true);
  const auto second = select_ad_libraries(9, true);
  EXPECT_EQ(first, second);
  EXPECT_GE(first.size(), 1u);
  EXPECT_LE(first.size(), 3u);
}

TEST(Apk, RejectsGarbage) {
  EXPECT_FALSE(parse_apk_header("not an apk").has_value());
  EXPECT_FALSE(scan_apk("APK1\n1\n").has_value());
}

// ---- service + crawler integration ------------------------------------------------

class ServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::GeneratorConfig config;
    config.app_scale = 0.002;       // ~120 apps
    config.download_scale = 2e-6;   // ~5.6k downloads
    config.comments = true;
    config.seed = 11;
    generated_ = std::make_unique<synth::GeneratedStore>(synth::generate(synth::anzhi(), config));
  }

  std::unique_ptr<synth::GeneratedStore> generated_;
};

/// ServiceFixture's shape with d = 10 downloads per user instead of ~125.
/// There, ~45 users each fetch nearly all ~120 apps, so popularity is flat
/// (pareto_share returns share == fraction) and no test on it can see a
/// rank-order bug. Here the Zipf head dominates. ServiceFixture stays as it
/// is: the JSON fuzz corpus is built from it.
class SkewedServiceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    synth::StoreProfile profile = synth::anzhi();
    profile.free_segment.top_app_share = 0.1;  // U = total / 10
    synth::GeneratorConfig config;
    config.app_scale = 0.002;
    config.download_scale = 2e-6;
    config.seed = 11;
    generated_ = std::make_unique<synth::GeneratedStore>(synth::generate(profile, config));
    service_ = std::make_unique<AppstoreService>(*generated_->store, ServicePolicy{});
    service_->set_day(60);
  }

  [[nodiscard]] Json query(std::string method, std::string target, std::string body = {}) {
    net::HttpRequest request;
    request.method = std::move(method);
    request.target = std::move(target);
    request.body = std::move(body);
    request.headers["X-Client-Id"] = "proxy-eu-1";
    const net::HttpResponse response = service_->respond(request);
    EXPECT_EQ(response.status, 200) << request.target << " " << request.body;
    return parse_json(response.body).value_or(Json(nullptr));
  }

  std::unique_ptr<synth::GeneratedStore> generated_;
  std::unique_ptr<AppstoreService> service_;
};

TEST_F(SkewedServiceFixture, ParetoShareAndTopKSeeTheSkew) {
  const Json pareto = query("GET", "/api/v1/query?kind=pareto_share&fractions=0.05");
  const auto& points = pareto.at("pareto").as_array();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].at("fraction").as_number(), 0.05);
  EXPECT_GT(points[0].at("share").as_number(), 0.05);

  const Json top = query("GET", "/api/v1/query?kind=top_k_downloads&k=10");
  const auto& entries = top.at("top").as_array();
  ASSERT_EQ(entries.size(), 10u);
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GT(entries[i - 1].at("downloads").as_u64(), entries[i].at("downloads").as_u64())
        << "rank " << i;
  }
  EXPECT_EQ(entries[0].at("downloads").as_u64(),
            generated_->store->downloads_of(market::AppId{
                static_cast<std::uint32_t>(entries[0].at("app").as_u64())}));
}

TEST_F(SkewedServiceFixture, PostPartialFlagSelectsTheAnswerForm) {
  const std::string spec = R"("kind": "top_k_downloads", "k": 5)";
  const Json partial = query("POST", "/api/v1/query", "{" + spec + R"(, "partial": true})");
  EXPECT_TRUE(partial.at("partial").as_bool());
  EXPECT_NE(partial.find("counts"), nullptr);
  EXPECT_EQ(partial.find("top"), nullptr);
  EXPECT_EQ(partial, query("GET", "/api/v1/query?kind=top_k_downloads&k=5&partial=1"));

  const Json finalized = query("POST", "/api/v1/query", "{" + spec + R"(, "partial": false})");
  EXPECT_EQ(finalized.find("partial"), nullptr);
  ASSERT_NE(finalized.find("top"), nullptr);
  EXPECT_EQ(finalized.at("top").as_array().size(), 5u);
  EXPECT_EQ(finalized, query("POST", "/api/v1/query", "{" + spec + "}"));
  EXPECT_EQ(finalized, query("GET", "/api/v1/query?kind=top_k_downloads&k=5"));
}

TEST_F(ServiceFixture, MetaAndAppEndpoints) {
  ServicePolicy policy;
  AppstoreService service(*generated_->store, policy);
  service.set_day(generated_->store->apps().size() > 0 ? 60 : 0);

  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";

  const auto meta_response = client.get("/api/v1/meta", headers);
  ASSERT_EQ(meta_response.status, 200);
  const auto meta_json = parse_json(meta_response.body);
  ASSERT_TRUE(meta_json.has_value());
  EXPECT_EQ(meta_json->at("store").as_string(), "Anzhi");
  EXPECT_EQ(meta_json->at("total_apps").as_u64(), generated_->store->apps().size());

  const auto app_response = client.get("/api/v1/app/0", headers);
  ASSERT_EQ(app_response.status, 200);
  const auto app_json = parse_json(app_response.body);
  EXPECT_EQ(app_json->at("downloads").as_u64(),
            generated_->store->downloads_of(market::AppId{0}));
  EXPECT_FALSE(app_json->at("paid").as_bool());
}

TEST_F(ServiceFixture, PaginationCoversDirectory) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";

  std::size_t seen = 0;
  for (std::uint64_t page = 0;; ++page) {
    const auto response =
        client.get(util::format("/api/v1/apps?page={}&per_page=50", page), headers);
    ASSERT_EQ(response.status, 200);
    const auto parsed = parse_json(response.body);
    const auto& ids = parsed->at("ids").as_array();
    seen += ids.size();
    if (ids.size() < 50) break;
  }
  EXPECT_EQ(seen, generated_->store->apps().size());
}

TEST_F(ServiceFixture, UnknownRoutesAnd404) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";
  EXPECT_EQ(client.get("/nope", headers).status, 404);
  EXPECT_EQ(client.get("/api/v1/app/999999", headers).status, 404);
  EXPECT_EQ(client.get("/api/v1/app/abc", headers).status, 404);
  EXPECT_EQ(client.get("/api/v1/apps?page=xyz", headers).status, 400);
}

TEST_F(ServiceFixture, RateLimiting429) {
  ServicePolicy policy;
  policy.rate_per_second = 0.001;  // effectively no refill during the test
  policy.burst = 3.0;
  AppstoreService service(*generated_->store, policy);
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-9";
  EXPECT_EQ(client.get("/api/v1/meta", headers).status, 200);
  EXPECT_EQ(client.get("/api/v1/meta", headers).status, 200);
  EXPECT_EQ(client.get("/api/v1/meta", headers).status, 200);
  EXPECT_EQ(client.get("/api/v1/meta", headers).status, 429);
  // A different client identity (proxy) is unaffected.
  net::Headers other;
  other["X-Client-Id"] = "proxy-eu-10";
  EXPECT_EQ(client.get("/api/v1/meta", other).status, 200);
}

TEST_F(ServiceFixture, RegionGating403) {
  ServicePolicy policy;
  policy.china_only = true;
  AppstoreService service(*generated_->store, policy);
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers european;
  european["X-Client-Id"] = "proxy-eu-1";
  EXPECT_EQ(client.get("/api/v1/meta", european).status, 403);
  net::Headers chinese;
  chinese["X-Client-Id"] = "proxy-cn-1";
  EXPECT_EQ(client.get("/api/v1/meta", chinese).status, 200);
}

TEST_F(ServiceFixture, DayGatesVisibility) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";

  service.set_day(0);
  const auto total_apps = [&] {
    return parse_json(client.get("/api/v1/meta", headers).body)->at("total_apps").as_u64();
  };
  const auto early = total_apps();
  service.set_day(60);
  const auto late = total_apps();
  EXPECT_LT(early, late);  // new apps appeared during the crawl window

  // Downloads are cumulative in the day.
  service.set_day(0);
  const auto d0 = parse_json(client.get("/api/v1/app/0", headers).body)->at("downloads").as_u64();
  service.set_day(60);
  const auto d60 = parse_json(client.get("/api/v1/app/0", headers).body)->at("downloads").as_u64();
  EXPECT_LE(d0, d60);
  EXPECT_EQ(d60, generated_->store->downloads_of(market::AppId{0}));
}

TEST_F(ServiceFixture, CommentsEndpointPaginates) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";
  const auto response = client.get("/api/v1/app/0/comments?page=0", headers);
  ASSERT_EQ(response.status, 200);
  const auto parsed = parse_json(response.body);
  EXPECT_TRUE(parsed->at("comments").is_array());
}

TEST_F(ServiceFixture, CrawlerEndToEndMatchesGroundTruth) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  CrawlDatabase database;
  CrawlerOptions config;
  config.port = service.port();
  config.proxy_count = 6;
  Crawler crawler(config, database);

  for (market::Day day : {0, 30, 60}) {
    service.set_day(day);
    const CrawlStats stats = crawler.crawl_day(day);
    EXPECT_GT(stats.apps_observed, 0u);
  }

  // Every app visible on day 60 was observed, with exact download counts.
  EXPECT_EQ(database.app_count(), generated_->store->apps().size());
  for (const auto& app : generated_->store->apps()) {
    const AppRecord* record = database.find(app.id.value);
    ASSERT_NE(record, nullptr);
    EXPECT_EQ(record->by_day.rbegin()->second.downloads,
              generated_->store->downloads_of(app.id))
        << "app " << app.id.value;
  }

  // The snapshot series should show growth across the three crawl days.
  const auto series = database.snapshot_series();
  ASSERT_EQ(series.snapshots().size(), 3u);
  EXPECT_LT(series.snapshots()[0].total_downloads, series.snapshots()[2].total_downloads);
}

TEST_F(ServiceFixture, WindowedCrawlMatchesTheSerialCrawl) {
  // A clean two-day crawl with comments and APKs (token buckets lifted, so
  // no 429s) at 1 and 3 threads over 4 proxies. Its totals and its saved
  // database are pinned to what the crawler produced when it sent one
  // request at a time and waited for each reply.
  ServicePolicy policy;
  policy.rate_per_second = 1e9;
  policy.burst = 1e9;
  AppstoreService service(*generated_->store, policy);
  const CrawlStats serial{.requests = 615,
                          .apps_observed = 239,
                          .comments_observed = 826,
                          .apks_fetched = 135};
  constexpr std::uint64_t kSerialDatabaseHash = 0x3b8ee5a189c5c7df;  // FNV-1a of the four files
  const auto dir = std::filesystem::path(::testing::TempDir()) / "windowed_crawl";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(threads);
    obs::Registry registry;
    CrawlDatabase database;
    CrawlerOptions options;
    options.port = service.port();
    options.proxy_count = 4;
    options.threads = threads;
    options.fetch_comments = true;
    options.fetch_apks = true;
    options.metrics = &registry;
    Crawler crawler(options, database);
    for (const market::Day day : {market::Day{30}, market::Day{60}}) {
      service.set_day(day);
      (void)crawler.crawl_day(day);
    }
    const CrawlStats& stats = crawler.totals();
    const auto snapshot = registry.snapshot();
    const std::uint64_t directory_pages = snapshot.find_counter("crawler_pages_total")->value;
    // On this store every app has one statistics page and one comments page.
    EXPECT_EQ(stats.requests, 2 * stats.apps_observed + stats.apks_fetched + directory_pages);
    EXPECT_TRUE(stats == serial);  // no 429, 403 or transient failure either
    EXPECT_EQ(stats.requests, serial.requests);
    EXPECT_EQ(stats.apps_observed, serial.apps_observed);
    EXPECT_EQ(stats.comments_observed, serial.comments_observed);
    EXPECT_EQ(stats.apks_fetched, serial.apks_fetched);

    save_database(database, dir);
    std::string bytes;
    for (const char* name : {"observations.bin", "apps.csv", "observations.csv", "apk_scans.csv"}) {
      std::ifstream in(dir / name, std::ios::binary);
      bytes.append(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    EXPECT_EQ(util::hash64(bytes), kSerialDatabaseHash);
  }
}

TEST_F(ServiceFixture, CrawlerUsesOnlyVersionedApi) {
  // A recording front server relays every crawl request to the service and
  // keeps its target and status: the crawler must stay on /api/v1, the only
  // URL space the service routes (anything else answers 404).
  AppstoreService service(*generated_->store, ServicePolicy{});
  service.set_day(60);
  std::mutex mutex;
  std::vector<std::pair<std::string, int>> relayed;
  net::HttpServer front(net::ServerOptions{}, [&](const net::HttpRequest& request) {
    net::HttpResponse response = service.respond(request);
    const std::lock_guard lock(mutex);
    relayed.emplace_back(request.target, response.status);
    return response;
  });

  CrawlDatabase database;
  CrawlerOptions config;
  config.port = front.port();
  config.fetch_comments = true;
  config.fetch_apks = true;
  Crawler crawler(config, database);
  (void)crawler.crawl_day(60);
  front.stop();

  std::size_t directory = 0;
  std::size_t apps = 0;
  std::size_t comments = 0;
  std::size_t apks = 0;
  for (const auto& [target, status] : relayed) {
    EXPECT_TRUE(target.starts_with("/api/v1/")) << target;
    EXPECT_NE(status, 404) << target;
    if (target.starts_with("/api/v1/apps?")) ++directory;
    if (target.find("/comments?") != std::string::npos) ++comments;
    if (target.ends_with("/apk")) ++apks;
    if (target.find('?') == std::string::npos && !target.ends_with("/apk")) ++apps;
  }
  EXPECT_GT(directory, 0u);
  EXPECT_GT(apps, 0u);
  EXPECT_GT(comments, 0u);
  EXPECT_GT(apks, 0u);
}

TEST_F(ServiceFixture, CrawlerSurvivesInjectedFailures) {
  ServicePolicy policy;
  policy.failure_rate = 0.15;
  AppstoreService service(*generated_->store, policy);
  service.set_day(60);

  CrawlDatabase database;
  CrawlerOptions config;
  config.port = service.port();
  config.proxy_count = 12;
  config.max_attempts = 8;
  Crawler crawler(config, database);
  const CrawlStats stats = crawler.crawl_day(60);
  EXPECT_GT(stats.transient_failures, 0u);  // failures actually happened
  // Retries should still recover nearly all apps.
  EXPECT_GT(database.app_count(), generated_->store->apps().size() * 9 / 10);
}

TEST_F(ServiceFixture, MetricsEndpointMatchesCrawlerTallies) {
  ServicePolicy policy;
  policy.failure_rate = 0.1;  // exercise the injected-failure counter
  AppstoreService service(*generated_->store, policy);
  service.set_day(60);

  CrawlDatabase database;
  obs::Registry crawler_metrics;
  CrawlerOptions options;
  options.port = service.port();
  options.proxy_count = 12;
  options.max_attempts = 8;
  options.metrics = &crawler_metrics;
  Crawler crawler(options, database);
  const CrawlStats stats = crawler.crawl_day(60);
  ASSERT_GT(stats.requests, 0u);
  EXPECT_GT(stats.transient_failures, 0u);

  // The crawler's own registry mirrors its CrawlStats tallies exactly.
  const auto crawler_snapshot = crawler_metrics.snapshot();
  EXPECT_EQ(crawler_snapshot.find_counter("crawler_requests_total")->value, stats.requests);
  EXPECT_EQ(crawler_snapshot.find_counter("crawler_responses_total", "429")->value,
            stats.rate_limited);
  EXPECT_EQ(crawler_snapshot.find_counter("crawler_responses_total", "5xx")->value,
            stats.transient_failures);

  // Scrape the service's own registry. /api/v1/metrics bypasses region gating,
  // rate limiting and failure injection, so the scrape always succeeds.
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";
  const auto response = client.get("/api/v1/metrics", headers);
  ASSERT_EQ(response.status, 200);
  const auto parsed = parse_json(response.body);
  ASSERT_TRUE(parsed.has_value());

  const auto find_counter = [&](std::string_view name,
                                std::string_view label) -> std::uint64_t {
    for (const auto& counter : parsed->at("counters").as_array()) {
      if (counter.at("name").as_string() == name && counter.at("label").as_string() == label) {
        return counter.at("value").as_u64();
      }
    }
    return 0;
  };

  // Per-endpoint request counters increment before every policy gate, so
  // their sum (excluding this scrape itself) equals the crawler's attempt
  // count — on loopback no request is lost in transport.
  std::uint64_t service_requests = 0;
  for (const auto& counter : parsed->at("counters").as_array()) {
    if (counter.at("name").as_string() == "service_requests_total" &&
        counter.at("label").as_string() != "metrics") {
      service_requests += counter.at("value").as_u64();
    }
  }
  EXPECT_EQ(service_requests, stats.requests);
  EXPECT_EQ(find_counter("rate_limiter_throttled_total", ""), stats.rate_limited);
  EXPECT_EQ(find_counter("service_injected_failures_total", ""), stats.transient_failures);
  EXPECT_EQ(find_counter("service_region_blocked_total", ""), stats.region_blocked);

  // Latency histograms expose p50/p99 per endpoint.
  bool found_latency = false;
  for (const auto& histogram : parsed->at("histograms").as_array()) {
    if (histogram.at("name").as_string() == "service_request_seconds" &&
        histogram.at("label").as_string() == "app") {
      found_latency = true;
      EXPECT_GT(histogram.at("count").as_u64(), 0u);
      EXPECT_GT(histogram.at("p50").as_number(), 0.0);
      EXPECT_GE(histogram.at("p99").as_number(), histogram.at("p50").as_number());
    }
  }
  EXPECT_TRUE(found_latency);

  // The text exporter is reachable with ?fmt=text.
  const auto text_response = client.get("/api/v1/metrics?fmt=text", headers);
  ASSERT_EQ(text_response.status, 200);
  EXPECT_NE(text_response.body.find("# TYPE service_requests_total counter"),
            std::string::npos);
}

TEST_F(ServiceFixture, CrawlerConvergesOnChineseProxies) {
  ServicePolicy policy;
  policy.china_only = true;
  AppstoreService service(*generated_->store, policy);
  service.set_day(60);

  CrawlDatabase database;
  CrawlerOptions config;
  config.port = service.port();
  config.proxy_count = 9;  // 3 regions round-robin -> 3 Chinese proxies
  Crawler crawler(config, database);
  const CrawlStats stats = crawler.crawl_day(60);
  EXPECT_GT(stats.region_blocked, 0u);
  EXPECT_EQ(database.app_count(), generated_->store->apps().size());
  // Non-Chinese proxies end up quarantined; Chinese ones stay healthy.
  EXPECT_EQ(crawler.proxies().healthy_count(net::Region::kChina), 3u);
}

TEST_F(ServiceFixture, ApkEndpointServesScannableBlobs) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  service.set_day(60);
  net::HttpClient client("127.0.0.1", service.port());
  net::Headers headers;
  headers["X-Client-Id"] = "proxy-eu-1";

  const auto response = client.get("/api/v1/app/0/apk", headers);
  ASSERT_EQ(response.status, 200);
  const auto scan = scan_apk(response.body);
  ASSERT_TRUE(scan.has_value());
  EXPECT_EQ(scan->header.app_id, 0u);
  EXPECT_EQ(scan->has_ads(), generated_->store->app(market::AppId{0}).has_ads);
}

TEST_F(ServiceFixture, CrawlerFetchesEachApkVersionOnce) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  CrawlDatabase database;
  CrawlerOptions config;
  config.port = service.port();
  config.fetch_apks = true;
  Crawler crawler(config, database);

  service.set_day(0);
  const auto first = crawler.crawl_day(0);
  EXPECT_GT(first.apks_fetched, 0u);
  // Re-crawling the same day downloads no new APKs (versions unchanged).
  const auto again = crawler.crawl_day(0);
  EXPECT_EQ(again.apks_fetched, 0u);
  // Moving to the last day fetches only apps whose version advanced plus
  // newly released apps.
  service.set_day(60);
  const auto last = crawler.crawl_day(60);
  EXPECT_LT(last.apks_fetched, first.apks_fetched + 200);

  // The scanned ad fraction matches the store's ground-truth flags.
  std::size_t truth_free = 0;
  std::size_t truth_ads = 0;
  for (const auto& app : generated_->store->apps()) {
    if (app.pricing != market::Pricing::kFree) continue;
    ++truth_free;
    if (app.has_ads) ++truth_ads;
  }
  const double truth_fraction =
      static_cast<double>(truth_ads) / static_cast<double>(truth_free);
  EXPECT_NEAR(database.free_apps_with_ads_fraction(), truth_fraction, 1e-9);
}

// ---- JSON parser fuzz ------------------------------------------------------------

/// The recursive-descent parser as it was before the codec stopped calling
/// <cctype> and returning a std::optional<Json> per value, kept unchanged as
/// the reference for which inputs parse_json accepts and what they parse to.
class ReferenceParser {
 public:
  explicit ReferenceParser(std::string_view text) : text_(text) {}

  [[nodiscard]] std::optional<Json> parse() {
    skip_whitespace();
    auto value = parse_value();
    if (!value.has_value()) return std::nullopt;
    skip_whitespace();
    if (position_ != text_.size()) return std::nullopt;
    return value;
  }

 private:
  void skip_whitespace() {
    while (position_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[position_]))) {
      ++position_;
    }
  }

  [[nodiscard]] bool consume(char expected) {
    if (position_ < text_.size() && text_[position_] == expected) {
      ++position_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_literal(std::string_view literal) {
    if (text_.substr(position_, literal.size()) == literal) {
      position_ += literal.size();
      return true;
    }
    return false;
  }

  [[nodiscard]] std::optional<Json> parse_value() {
    if (depth_ > kMaxDepth) return std::nullopt;
    skip_whitespace();
    if (position_ >= text_.size()) return std::nullopt;
    switch (text_[position_]) {
      case 'n': return consume_literal("null") ? std::optional<Json>(Json(nullptr)) : std::nullopt;
      case 't': return consume_literal("true") ? std::optional<Json>(Json(true)) : std::nullopt;
      case 'f': return consume_literal("false") ? std::optional<Json>(Json(false)) : std::nullopt;
      case '"': return parse_string();
      case '[': return parse_array();
      case '{': return parse_object();
      default: return parse_number();
    }
  }

  [[nodiscard]] std::optional<Json> parse_string() {
    std::optional<std::string> raw = parse_raw_string();
    if (!raw.has_value()) return std::nullopt;
    return Json(std::move(*raw));
  }

  [[nodiscard]] std::optional<std::string> parse_raw_string() {
    if (!consume('"')) return std::nullopt;
    std::string out;
    while (position_ < text_.size()) {
      const char c = text_[position_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (position_ >= text_.size()) return std::nullopt;
        const char escape = text_[position_++];
        switch (escape) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (position_ + 4 > text_.size()) return std::nullopt;
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = text_[position_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return std::nullopt;
              }
            }
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out.push_back(c);
      }
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<Json> parse_number() {
    const std::size_t start = position_;
    if (position_ < text_.size() && text_[position_] == '-') ++position_;
    while (position_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[position_])) ||
            text_[position_] == '.' || text_[position_] == 'e' || text_[position_] == 'E' ||
            text_[position_] == '+' || text_[position_] == '-')) {
      ++position_;
    }
    if (position_ == start) return std::nullopt;
    double value = 0.0;
    const auto* first = text_.data() + start;
    const auto* last = text_.data() + position_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) return std::nullopt;
    return Json(value);
  }

  [[nodiscard]] std::optional<Json> parse_array() {
    if (!consume('[')) return std::nullopt;
    ++depth_;
    JsonArray array;
    skip_whitespace();
    if (consume(']')) {
      --depth_;
      return Json(std::move(array));
    }
    for (;;) {
      auto element = parse_value();
      if (!element.has_value()) return std::nullopt;
      array.push_back(std::move(*element));
      skip_whitespace();
      if (consume(']')) {
        --depth_;
        return Json(std::move(array));
      }
      if (!consume(',')) return std::nullopt;
    }
  }

  [[nodiscard]] std::optional<Json> parse_object() {
    if (!consume('{')) return std::nullopt;
    ++depth_;
    JsonObject object;
    skip_whitespace();
    if (consume('}')) {
      --depth_;
      return Json(std::move(object));
    }
    for (;;) {
      skip_whitespace();
      auto key = parse_raw_string();
      if (!key.has_value()) return std::nullopt;
      skip_whitespace();
      if (!consume(':')) return std::nullopt;
      auto value = parse_value();
      if (!value.has_value()) return std::nullopt;
      object.emplace_back(std::move(*key), std::move(*value));
      skip_whitespace();
      if (consume('}')) {
        --depth_;
        return Json(std::move(object));
      }
      if (!consume(',')) return std::nullopt;
    }
  }

  static constexpr int kMaxDepth = 128;

  std::string_view text_;
  std::size_t position_ = 0;
  int depth_ = 0;
};

/// One seeded mutation of `text`: byte flips (biased toward the bytes the
/// grammar branches on), a splice from another corpus document, a truncation,
/// nesting pushed to either side of the parser's depth limit, or whitespace
/// and its near misses (other controls, NEL, NBSP) inserted at a random spot.
std::string mutate(std::string text, const std::vector<std::string>& corpus, util::Rng& rng) {
  static constexpr std::string_view kGrammarBytes = "{}[]\",:-+.eE0123456789 \t\n\v\f\r\\/untfl";
  const auto position = [&](std::size_t size) {
    return static_cast<std::size_t>(rng.below(size + 1));
  };
  switch (rng.below(6)) {
    case 0: {  // byte flips
      const std::uint64_t flips = 1 + rng.below(4);
      for (std::uint64_t i = 0; i < flips && !text.empty(); ++i) {
        const std::size_t at = static_cast<std::size_t>(rng.below(text.size()));
        text[at] = rng.below(2) == 0
                       ? kGrammarBytes[static_cast<std::size_t>(rng.below(kGrammarBytes.size()))]
                       : static_cast<char>(rng.below(256));
      }
      return text;
    }
    case 1: {  // splice a slice of another document over a slice of this one
      const std::string& donor = corpus[static_cast<std::size_t>(rng.below(corpus.size()))];
      const std::size_t from = position(donor.size());
      const std::size_t length = static_cast<std::size_t>(rng.below(donor.size() - from + 1));
      const std::size_t at = position(text.size());
      const std::size_t replaced = static_cast<std::size_t>(rng.below(text.size() - at + 1));
      return text.replace(at, replaced, donor, from, length);
    }
    case 2:  // truncation
      return text.substr(0, position(text.size()));
    case 3: {  // wrap the whole document in nesting around the depth limit
      const auto depth = static_cast<std::size_t>(120 + rng.below(16));
      const char open = rng.below(2) == 0 ? '[' : '{';
      std::string wrapped;
      for (std::size_t i = 0; i < depth; ++i) wrapped += open == '[' ? "[" : "{\"k\":";
      wrapped += text;
      wrapped += std::string(depth, open == '[' ? ']' : '}');
      return wrapped;
    }
    case 4: {  // whitespace, or a byte that only looks like it
      static constexpr std::string_view kSpaceLike = " \t\n\v\f\r\x08\x0e\x1c\x1f\x85\xa0";
      const std::size_t at = position(text.size());
      const std::uint64_t count = 1 + rng.below(3);
      for (std::uint64_t i = 0; i < count; ++i) {
        text.insert(at, 1, kSpaceLike[static_cast<std::size_t>(rng.below(kSpaceLike.size()))]);
      }
      return text;
    }
    default: {  // an unbalanced run of openers spliced in mid-document
      const std::size_t at = position(text.size());
      return text.insert(at, std::string(static_cast<std::size_t>(1 + rng.below(200)),
                                         rng.below(2) == 0 ? '[' : '{'));
    }
  }
}

TEST_F(ServiceFixture, JsonParserFuzzMatchesReference) {
  AppstoreService service(*generated_->store, ServicePolicy{});
  service.set_day(60);
  const auto body = [&](std::string target) {
    net::HttpRequest request;
    request.target = std::move(target);
    request.headers["X-Client-Id"] = "proxy-eu-1";
    const net::HttpResponse response = service.respond(request);
    EXPECT_EQ(response.status, 200) << request.target;
    return response.body;
  };
  std::string comments;
  for (std::uint32_t app = 0; app < generated_->store->apps().size(); ++app) {
    comments = body(util::format("/api/v1/app/{}/comments?page=0", app));
    if (parse_json(comments)->at("comments").as_array().size() >= 3) break;
  }
  const std::vector<std::string> corpus = {
      body("/api/v1/app/0"),
      comments,
      body("/api/v1/query?kind=top_k_downloads&filter=day>=10+and+day<=40&partial=1"),
      body("/api/v1/query?kind=pareto_share"),
  };
  ASSERT_TRUE(parse_json(corpus[2])->at("partial").as_bool());

  std::size_t accepted = 0;
  for (std::uint64_t seed = 0; seed < 10'000; ++seed) {
    util::Rng rng(seed);
    std::string input = corpus[seed % corpus.size()];
    const std::uint64_t rounds = 1 + rng.below(3);
    for (std::uint64_t round = 0; round < rounds; ++round) input = mutate(input, corpus, rng);

    const std::optional<Json> parsed = parse_json(input);
    const std::optional<Json> reference = ReferenceParser(input).parse();
    ASSERT_EQ(parsed.has_value(), reference.has_value()) << "seed " << seed << ": " << input;
    if (!parsed.has_value()) continue;
    ++accepted;
    const std::string text = parsed->dump();
    ASSERT_EQ(text, reference->dump()) << "seed " << seed;
    const std::optional<Json> again = parse_json(text);
    ASSERT_TRUE(again.has_value()) << "seed " << seed;
    ASSERT_TRUE(*again == *parsed) << "seed " << seed;
  }
  // Both outcomes must be exercised for the comparison to mean anything.
  EXPECT_GT(accepted, 500u);
  EXPECT_LT(accepted, 9'500u);
}

}  // namespace
}  // namespace appstore::crawlersim
