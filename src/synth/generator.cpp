#include "synth/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "events/event_log.hpp"
#include "models/app_clustering_model.hpp"
#include "models/stream.hpp"
#include "par/parallel.hpp"
#include "stats/zipf.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"

namespace appstore::synth {

namespace {

constexpr std::string_view kComponent = "synth";

/// Developer pricing strategies (§6.3: 75% free-only, 15% paid-only, 10% both).
enum class Strategy : std::uint8_t { kFreeOnly, kPaidOnly, kBoth };

/// Samples one developer's portfolio size. Fig. 16a: 60–70% of developers
/// ship a single app, 95% fewer than 10, with rare prolific outliers (the
/// paper found accounts with 592 and 1402 apps).
std::uint32_t sample_portfolio_size(util::Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.65) return 1;
  if (roll < 0.93) return 2 + static_cast<std::uint32_t>(rng.geometric(0.45));
  if (roll < 0.998) return 5 + static_cast<std::uint32_t>(rng.geometric(0.25));
  return 50 + static_cast<std::uint32_t>(rng.below(550));  // systematic publishers
}

Strategy sample_strategy(util::Rng& rng, double paid_fraction) {
  if (paid_fraction <= 0.0) return Strategy::kFreeOnly;
  const double roll = rng.uniform();
  if (roll < 0.75) return Strategy::kFreeOnly;
  if (roll < 0.90) return Strategy::kPaidOnly;
  return Strategy::kBoth;
}

/// One pre-planned app slot: owner + pricing decided up front so that the
/// developer strategy mix is exactly the drawn 75/15/10 (§6.3) and 'both'
/// developers end with at least one app of each kind. Note: the paper's
/// §2.3 paid share (25.3%) and §6.3 strategy mix are only jointly consistent
/// if paid developers run slightly larger portfolios; paid-only developers
/// therefore get a mild extra-app bump, which lands the paid share near 23%.
struct AppSlot {
  std::uint32_t developer;
  market::Pricing pricing;
};

/// Per-category price multipliers for the paid segment. Music is the
/// dominant revenue category (Fig. 15: 67.7% of revenue from 1.6% of apps),
/// which requires music apps to be both popular and expensive.
double category_price_multiplier(std::string_view category) {
  if (category == "music") return 4.5;
  if (category == "fun/games") return 1.4;
  if (category == "utilities") return 1.2;
  if (category == "productivity") return 1.3;
  if (category == "e-books") return 0.35;
  if (category == "wallpapers") return 0.3;
  return 1.0;
}

/// Category app-share weights for paid apps (Fig. 15 "Apps" series):
/// e-books hold 33.2% of paid apps, games 18.3%, music only 1.6%.
const std::vector<double>& paid_category_app_weights() {
  static const std::vector<double> weights = {
      // order matches slideme_categories()
      1.6,   // music
      18.3,  // fun/games
      5.0,   // utilities
      4.0,   // productivity
      5.0,   // entertainment
      2.5,   // religion
      2.5,   // travel
      4.0,   // educational
      2.0,   // social
      2.0,   // communications
      33.2,  // e-books
      4.0,   // lifestyle
      5.0,   // wallpapers
      2.5,   // health/fitness
      2.2,   // other
      1.5,   // collaboration
      1.5,   // location/maps
      1.5,   // home/hobby
      0.8,   // enterprise
      0.7,   // developer
  };
  return weights;
}

/// Head-of-distribution category weights for paid apps: the globally most
/// popular paid apps skew heavily toward music and games, producing the
/// revenue concentration of Fig. 15.
const std::vector<double>& paid_category_head_weights() {
  static const std::vector<double> weights = {
      50.0,  // music
      25.0,  // fun/games
      8.0,   // utilities
      7.0,   // productivity
      4.0,   // entertainment
      1.0, 1.0, 2.0, 1.0, 1.0,
      0.5,   // e-books (popular paid e-books are rare)
      1.0, 0.5, 1.0, 0.5, 0.3, 0.4, 0.5, 0.2, 0.1,
  };
  return weights;
}

struct CategoryPicker {
  stats::AliasTable body;
  stats::AliasTable head;
  /// Apps in the top `head_fraction` of a segment's ranks draw from `head`.
  double head_fraction = 0.0;

  [[nodiscard]] std::uint32_t pick(util::Rng& rng, double rank_percentile) const {
    if (head_fraction > 0.0 && rank_percentile < head_fraction) {
      return static_cast<std::uint32_t>(head.sample(rng));
    }
    return static_cast<std::uint32_t>(body.sample(rng));
  }
};

/// Price draw: lognormal around a ~$2 median with a heavy right tail,
/// clamped to the store's observed [$0.49, $49.99] range (Fig. 12 spans
/// 0-50 dollars), scaled by the category multiplier and by a popularity
/// gradient: globally popular paid apps are priced lower (competition for
/// volume), unpopular ones higher — this is what produces the paper's
/// negative price-downloads correlation (Fig. 12, Pearson -0.229) while
/// music stays expensive through its category multiplier.
market::Cents sample_price(util::Rng& rng, std::string_view category,
                           double rank_percentile) {
  const double base = rng.lognormal(std::log(1.9), 0.85);
  const double popularity_gradient = 0.22 + 1.8 * rank_percentile;
  const double dollars = std::clamp(
      base * category_price_multiplier(category) * popularity_gradient, 0.49, 49.99);
  return market::dollars_to_cents(dollars);
}

/// Number of updates an app ships in the window (Fig. 4): >80% of apps have
/// none; the top-10% most popular apps update somewhat more often (§3.2:
/// 60–75% of them have no updates); 99% of apps stay under ~4–6 updates.
std::uint32_t sample_update_count(util::Rng& rng, bool is_top_decile) {
  const double none_probability = is_top_decile ? 0.68 : 0.86;
  if (rng.uniform() < none_probability) return 0;
  return 1 + static_cast<std::uint32_t>(rng.geometric(0.62));
}

/// Commenting propensity mixture: most users rarely comment, a minority
/// comment on a large share of their downloads. Calibrated against Fig. 5a
/// (92% of commenting users leave <= 10 comments, 99% <= 30) for users with
/// ~100-125 downloads (the d the Table-1 totals imply).
double sample_comment_propensity(util::Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.80) return 0.03;
  if (roll < 0.95) return 0.08;
  return 0.25;
}

}  // namespace

const std::vector<std::string>& slideme_categories() {
  static const std::vector<std::string> names = {
      "music",         "fun/games",  "utilities", "productivity",  "entertainment",
      "religion",      "travel",     "educational", "social",      "communications",
      "e-books",       "lifestyle",  "wallpapers", "health/fitness", "other",
      "collaboration", "location/maps", "home/hobby", "enterprise", "developer",
  };
  return names;
}

GeneratedStore generate(const StoreProfile& profile, const GeneratorConfig& config) {
  util::Rng rng(util::combine_seed(config.seed, util::hash64(profile.name)));

  GeneratedStore out;
  out.store = std::make_unique<market::AppStore>(profile.name);
  market::AppStore& store = *out.store;

  // ---- categories ----------------------------------------------------------
  std::uint32_t category_count = profile.category_count;
  if (profile.named_categories) {
    category_count = static_cast<std::uint32_t>(slideme_categories().size());
    for (const auto& name : slideme_categories()) store.add_category(name);
  } else {
    for (std::uint32_t c = 0; c < category_count; ++c) {
      store.add_category(util::format("category-{:>2}", c));
    }
  }

  // Free apps draw categories from a mildly skewed distribution so no single
  // category dominates (Fig. 5d); a shuffled assignment decorrelates category
  // identity from skew rank.
  std::vector<double> free_weights(category_count);
  {
    const stats::FiniteZipf skew(category_count, profile.category_skew);
    std::vector<std::uint32_t> permutation(category_count);
    for (std::uint32_t c = 0; c < category_count; ++c) permutation[c] = c;
    rng.shuffle(std::span<std::uint32_t>(permutation));
    for (std::uint32_t c = 0; c < category_count; ++c) {
      free_weights[permutation[c]] = skew.pmf(c + 1);
    }
  }
  const CategoryPicker free_picker{stats::AliasTable(free_weights),
                                   stats::AliasTable(free_weights), 0.0};

  CategoryPicker paid_picker = free_picker;
  if (profile.named_categories) {
    paid_picker = CategoryPicker{stats::AliasTable(paid_category_app_weights()),
                                 stats::AliasTable(paid_category_head_weights()), 0.02};
  }

  // ---- scaled totals -------------------------------------------------------
  const auto scale_count = [](std::uint64_t paper, double factor) {
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                          std::llround(static_cast<double>(paper) * factor)));
  };
  const std::uint64_t apps_first = scale_count(profile.apps_first, config.app_scale);
  const std::uint64_t apps_last =
      std::max(apps_first + 1, scale_count(profile.apps_last, config.app_scale));

  // ---- developers & pricing plan --------------------------------------------
  // Developers (strategy + portfolio size) are generated until their slots
  // cover all apps; each slot carries its pricing. Shuffling the slots then
  // decorrelates developer identity from global popularity rank.
  std::vector<market::DeveloperId> developer_ids;
  std::vector<AppSlot> slots;
  slots.reserve(apps_last + 16);
  while (slots.size() < apps_last) {
    const Strategy strategy = sample_strategy(rng, profile.paid_fraction);
    std::uint32_t size = sample_portfolio_size(rng);
    if (strategy == Strategy::kPaidOnly && rng.chance(0.35)) {
      size += 1 + static_cast<std::uint32_t>(rng.geometric(0.5));
    }
    if (strategy == Strategy::kBoth) size = std::max<std::uint32_t>(size, 2);
    // Trim only the final developer so totals match exactly.
    size = std::min<std::uint32_t>(size, static_cast<std::uint32_t>(apps_last - slots.size()));
    if (size == 0) break;

    const auto dev_index = static_cast<std::uint32_t>(developer_ids.size());
    developer_ids.push_back(store.add_developer(util::format("dev-{}", dev_index)));
    for (std::uint32_t k = 0; k < size; ++k) {
      market::Pricing pricing = market::Pricing::kFree;
      switch (strategy) {
        case Strategy::kFreeOnly: break;
        case Strategy::kPaidOnly: pricing = market::Pricing::kPaid; break;
        case Strategy::kBoth:
          // Guarantee one of each, then coin-flip the remainder.
          if (k == 1 || (k >= 2 && rng.chance(0.5))) pricing = market::Pricing::kPaid;
          break;
      }
      slots.push_back(AppSlot{dev_index, pricing});
    }
  }
  rng.shuffle(std::span<AppSlot>(slots));

  // ---- apps ----------------------------------------------------------------
  // Creation order is global quality order across the whole store; each
  // segment's rank order is the subsequence of its apps. Release days are
  // independent of quality: apps_first random apps predate the crawl.
  std::vector<market::Day> release_days(apps_last, -1);
  {
    const std::uint64_t newcomers = apps_last - apps_first;
    for (std::uint64_t k = 0; k < newcomers; ++k) {
      release_days[k] = static_cast<market::Day>(
          rng.below(static_cast<std::uint64_t>(profile.crawl_days)) + 1);
    }
    rng.shuffle(std::span<market::Day>(release_days));
  }

  for (std::uint64_t g = 0; g < apps_last; ++g) {
    const AppSlot& slot = slots[g];
    const bool paid = slot.pricing == market::Pricing::kPaid;
    const market::Pricing pricing = slot.pricing;
    const auto& picker = paid ? paid_picker : free_picker;
    // Percentile within the segment so far approximates the final segment
    // percentile (segment membership is an i.i.d. thinning of global order).
    const double percentile =
        static_cast<double>(g) / static_cast<double>(apps_last);
    const std::uint32_t category = picker.pick(rng, percentile);
    const market::CategoryId category_id{category};
    const market::DeveloperId developer = developer_ids[slot.developer];

    market::Cents price = 0;
    if (paid) price = sample_price(rng, store.category(category_id).name, percentile);

    const market::AppId app =
        store.add_app(util::format("app-{}", g), developer, category_id, pricing, price,
                      release_days[g]);
    if (paid) {
      out.paid_rank_order.push_back(app);
    } else {
      out.free_rank_order.push_back(app);
      store.set_has_ads(app, rng.chance(profile.ad_fraction));
    }
  }

  // ---- updates --------------------------------------------------------------
  for (std::uint64_t g = 0; g < apps_last; ++g) {
    const bool top_decile = g < apps_last / 10;
    const std::uint32_t updates = sample_update_count(rng, top_decile);
    std::vector<market::Day> days;
    days.reserve(updates);
    for (std::uint32_t u = 0; u < updates; ++u) {
      days.push_back(static_cast<market::Day>(
          rng.below(static_cast<std::uint64_t>(profile.crawl_days) + 1)));
    }
    std::sort(days.begin(), days.end());
    for (const auto day : days) {
      store.record_update(market::AppId{static_cast<std::uint32_t>(g)}, day);
    }
  }

  // ---- per-segment download generation --------------------------------------
  struct SegmentRun {
    const SegmentSpec* spec = nullptr;
    const std::vector<market::AppId>* rank_order = nullptr;
    models::ModelParams* params_out = nullptr;
    std::uint32_t user_offset = 0;
  };

  // Free users come first, then the paid pool (paid_user_offset in result).
  models::ModelParams free_params;
  models::ModelParams paid_params;
  std::uint32_t user_cursor = 0;

  const auto run_segment = [&](const SegmentSpec& spec,
                               const std::vector<market::AppId>& rank_order,
                               models::ModelParams& params_out, bool is_paid) {
    if (!spec.enabled() || rank_order.empty()) return;

    const double segment_scale = is_paid && config.paid_download_scale > 0.0
                                     ? config.paid_download_scale
                                     : config.download_scale;
    const std::uint64_t downloads_last = scale_count(spec.downloads_last, segment_scale);
    const std::uint64_t downloads_first =
        std::min(downloads_last, scale_count(spec.downloads_first, segment_scale));
    const std::uint64_t users = std::max<std::uint64_t>(
        8, static_cast<std::uint64_t>(spec.top_app_share *
                                      static_cast<double>(downloads_last)));

    models::ModelParams params;
    params.app_count = static_cast<std::uint32_t>(rank_order.size());
    params.user_count = users;
    params.downloads_per_user =
        static_cast<double>(downloads_last) / static_cast<double>(users);
    params.zr = spec.zr;
    params.zc = spec.zc;
    params.p = spec.p;

    std::unique_ptr<models::DownloadModel> model;
    if (spec.kind == models::ModelKind::kAppClustering) {
      // Clusters = the store's categories; within-cluster rank follows the
      // segment's global order because rank_order is iterated in order.
      std::vector<std::uint32_t> assignment;
      assignment.reserve(rank_order.size());
      for (const auto app : rank_order) {
        assignment.push_back(store.app(app).category.value);
      }
      params.cluster_count = category_count;
      model = std::make_unique<models::AppClusteringModel>(
          params, models::ClusterLayout::from_assignment(std::move(assignment)));
    } else {
      params.cluster_count = 1;
      model = models::make_model(spec.kind, params);
    }

    util::log_info(kComponent, "{}: generating {} downloads for {} apps / {} users",
                   profile.name, downloads_last, params.app_count, params.user_count);

    // Users are added before generation so a shard filter can be phrased
    // over global user ids (user_offset + segment-local id).
    const std::uint32_t user_offset = user_cursor;
    store.add_users(static_cast<std::uint32_t>(users));
    user_cursor += static_cast<std::uint32_t>(users);

    models::StreamOptions stream_options;
    stream_options.max_requests = downloads_last;
    stream_options.metrics = config.metrics;
    stream_options.threads = config.threads;
    if (config.user_filter) {
      stream_options.user_filter = [&config, user_offset](std::uint32_t local) {
        return config.user_filter(user_offset + local);
      };
    }
    const models::StreamSlice slice =
        models::generate_stream_slice(*model, rng, stream_options);
    const events::EventLog& stream = slice.log;

    // Day assignment: the first `downloads_first` arrivals form the
    // pre-crawl history (day -1); the remainder spread uniformly over the
    // crawl window, giving a steady daily download rate as in Table 1.
    // Arrival indexes and totals are those of the UNION stream so a shard
    // slice assigns the same day to every row the unfiltered run would.
    const std::uint64_t during_crawl =
        slice.union_rows > downloads_first ? slice.union_rows - downloads_first : 0;
    const double per_day =
        during_crawl == 0
            ? 1.0
            : static_cast<double>(during_crawl) / static_cast<double>(profile.crawl_days);

    // Shard-wise columnar emission: the day of arrival k is a pure function
    // of k (plus the app's release day), so the batch columns are filled in
    // parallel and bulk-ingested; the live store's append_batch writes the
    // rows shard-wise in parallel too. Ordinals are assigned by the store as
    // row ids, making the result identical to a serial record_download loop
    // at every thread count.
    const std::size_t n = stream.size();
    std::vector<std::uint32_t> batch_user(n);
    std::vector<std::uint32_t> batch_app(n);
    std::vector<market::Day> batch_day(n);
    const par::Options par_options{.threads = config.threads, .metrics = config.metrics};
    par::parallel_for(n, par_options, [&](std::uint64_t k) {
      const std::uint64_t arrival = slice.arrival.empty() ? k : slice.arrival[k];
      market::Day day = -1;
      if (arrival >= downloads_first) {
        day = static_cast<market::Day>(
                  static_cast<double>(arrival - downloads_first) / per_day) +
              1;
        day = std::min<market::Day>(day, profile.crawl_days);
      }
      const market::AppId app = rank_order[stream.app()[k]];
      // Apps cannot be downloaded before release.
      const market::Day released = store.app(app).released;
      if (day < released) day = released;
      batch_user[k] = user_offset + stream.user()[k];
      batch_app[k] = app.value;
      batch_day[k] = day;
    });
    store.ingest_downloads(
        events::EventLog::from_columns(events::Columns::kDay, std::move(batch_user),
                                       std::move(batch_app), std::move(batch_day)),
        events::IngestOptions{.threads = config.threads});

    params_out = params;
  };

  run_segment(profile.free_segment, out.free_rank_order, free_params, false);
  out.paid_user_offset = user_cursor;
  run_segment(profile.paid_segment, out.paid_rank_order, paid_params, true);

  out.free_params = free_params;
  out.paid_params = paid_params;

  // ---- comments --------------------------------------------------------------
  if (config.comments && profile.commenter_fraction > 0.0) {
    // Per-user derived comment streams: the commenter coin, propensity, and
    // every per-download comment/rating draw come from
    // rng::derive(comment_base, global user id), consumed in the user's own
    // download order. A user's comment stream is therefore identical whether
    // the store holds the whole ecosystem or just that user's shard slice
    // (the download log restricted to one user is the same sequence either
    // way) — the property the federation parity suite depends on.
    const std::uint64_t comment_base = rng();
    const std::uint64_t spam_base = rng();
    struct Commenter {
      util::Rng rng{0};
      float propensity = 0.0F;
    };
    // Per-user dispatch: 0 = unseen, 1 = non-commenter, 2+k = commenters[k].
    std::vector<std::uint32_t> state(store.user_count(), 0);
    std::vector<Commenter> commenters;
    const auto dl_user = store.download_log().user();
    const auto dl_app = store.download_log().app();
    const auto dl_day = store.download_log().day();
    for (std::size_t i = 0; i < store.download_log().size(); ++i) {
      const std::uint32_t user = dl_user[i];
      if (state[user] == 0) {
        util::Rng user_rng = util::rng::derive(comment_base, user);
        if (user_rng.chance(profile.commenter_fraction)) {
          Commenter commenter;
          commenter.propensity =
              static_cast<float>(sample_comment_propensity(user_rng));
          commenter.rng = user_rng;
          state[user] = 2 + static_cast<std::uint32_t>(commenters.size());
          commenters.push_back(commenter);
        } else {
          state[user] = 1;
        }
      }
      if (state[user] == 1) continue;
      Commenter& commenter = commenters[state[user] - 2];
      if (commenter.rng.uniform() < commenter.propensity) {
        const auto rating =
            static_cast<std::uint8_t>(commenter.rng.uniform() < 0.7 ? 5 : 4);
        store.record_comment(market::UserId{user}, market::AppId{dl_app[i]},
                             std::max<market::Day>(dl_day[i], 0), rating);
      }
    }
    // Spam accounts: a handful of users posting hundreds of comments on
    // random apps (§4.1 — excluded from the affinity analysis by the
    // min-samples rule). Each account has its own derived stream; under a
    // shard filter the draws are made everywhere but the comments land only
    // on the owning shard, so the union matches the unfiltered store.
    const std::uint32_t spam_users = std::max<std::uint32_t>(2, store.user_count() / 20000);
    for (std::uint32_t s = 0; s < spam_users; ++s) {
      util::Rng spam_rng = util::rng::derive(spam_base, s);
      const auto user =
          static_cast<std::uint32_t>(spam_rng.below(store.user_count()));
      const std::uint64_t burst = 150 + spam_rng.below(850);
      const bool owned = !config.user_filter || config.user_filter(user);
      for (std::uint64_t k = 0; k < burst; ++k) {
        const market::AppId app{static_cast<std::uint32_t>(spam_rng.below(store.apps().size()))};
        const auto day = static_cast<market::Day>(
            spam_rng.below(static_cast<std::uint64_t>(profile.crawl_days) + 1));
        const auto rating = static_cast<std::uint8_t>(1 + spam_rng.below(5));
        if (owned) store.record_comment(market::UserId{user}, app, day, rating);
      }
    }
  }

  return out;
}

std::vector<std::uint64_t> downloads_at_day(const market::AppStore& store, market::Day day) {
  std::vector<std::uint64_t> counts(store.apps().size(), 0);
  const auto apps = store.download_log().app();
  const auto days = store.download_log().day();
  for (std::size_t i = 0; i < store.download_log().size(); ++i) {
    if (days[i] <= day) ++counts[apps[i]];
  }
  return counts;
}

std::vector<double> downloads_by_rank_at_day(const market::AppStore& store, market::Day day,
                                             market::Pricing pricing) {
  const auto counts = downloads_at_day(store, day);
  std::vector<double> filtered;
  for (const auto& app : store.apps()) {
    // Only apps already listed on `day`: the store's directory (and hence
    // the crawled dataset) does not contain unreleased apps.
    if (app.pricing == pricing && app.released <= day) {
      filtered.push_back(static_cast<double>(counts[app.id.index()]));
    }
  }
  std::sort(filtered.begin(), filtered.end(), std::greater<>());
  return filtered;
}

}  // namespace appstore::synth
