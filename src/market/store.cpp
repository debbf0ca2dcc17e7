#include "market/store.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <stdexcept>

#include "util/format.hpp"

namespace appstore::market {

namespace {

// Download counters are updated with atomic_ref so record/ingest can run
// from many threads without promoting the members to std::atomic (which
// would cost AppStore its movability). Relaxed is enough: the counters are
// monitoring values, ordered against the event data only at quiescence.
void counter_add(std::uint64_t& cell, std::uint64_t n) noexcept {
  std::atomic_ref<std::uint64_t>(cell).fetch_add(n, std::memory_order_relaxed);
}

[[nodiscard]] std::uint64_t counter_read(const std::uint64_t& cell) noexcept {
  return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(cell))
      .load(std::memory_order_relaxed);
}

[[nodiscard]] events::LiveOptions shaped(const events::LiveOptions& live,
                                         const char* suffix) {
  events::LiveOptions options = live;
  if (!options.backing_file.empty()) {
    options.backing_file += suffix;
  }
  return options;
}

}  // namespace

AppStore::AppStore(std::string name, const events::LiveOptions& live)
    : name_(std::move(name)),
      download_live_(std::make_unique<events::LiveEventLog>(
          events::Columns::kDay | events::Columns::kOrdinal, shaped(live, ".downloads"))),
      comment_live_(std::make_unique<events::LiveEventLog>(
          events::Columns::kDay | events::Columns::kOrdinal | events::Columns::kRating,
          shaped(live, ".comments"))) {}

CategoryId AppStore::add_category(std::string name) {
  const CategoryId id{static_cast<std::uint32_t>(categories_.size())};
  categories_.push_back(Category{id, std::move(name)});
  return id;
}

DeveloperId AppStore::add_developer(std::string name) {
  const DeveloperId id{static_cast<std::uint32_t>(developers_.size())};
  developers_.push_back(Developer{id, std::move(name)});
  return id;
}

UserId AppStore::add_user() { return add_users(1); }

UserId AppStore::add_users(std::uint32_t count) {
  if (static_cast<std::uint64_t>(user_count_) + count > download_live_->max_users()) {
    throw std::invalid_argument(util::format(
        "add_users: {} users exceeds the live store's max_users {}",
        static_cast<std::uint64_t>(user_count_) + count, download_live_->max_users()));
  }
  const UserId first{user_count_};
  user_count_ += count;
  return first;
}

AppId AppStore::add_app(std::string name, DeveloperId developer, CategoryId category,
                        Pricing pricing, Cents price, Day released) {
  if (!developer.valid() || developer.index() >= developers_.size()) {
    throw std::invalid_argument("add_app: invalid developer");
  }
  if (!category.valid() || category.index() >= categories_.size()) {
    throw std::invalid_argument("add_app: invalid category");
  }
  if (pricing == Pricing::kFree && price != 0) {
    throw std::invalid_argument("add_app: free app with nonzero price");
  }
  const AppId id{static_cast<std::uint32_t>(apps_.size())};
  apps_.push_back(App{.id = id,
                      .name = std::move(name),
                      .developer = developer,
                      .category = category,
                      .pricing = pricing,
                      .price = price,
                      .released = released,
                      .update_days = {},
                      .has_ads = false});
  downloads_.push_back(0);
  price_sum_dollars_.push_back(pricing == Pricing::kPaid ? cents_to_dollars(price) : 0.0);
  price_samples_.push_back(pricing == Pricing::kPaid ? 1u : 0u);
  return id;
}

void AppStore::record_update(AppId app, Day day) {
  auto& entry = apps_.at(app.index());
  entry.update_days.push_back(day);
  update_events_.push_back(
      UpdateEvent{app, day, static_cast<std::uint32_t>(entry.update_days.size())});
}

void AppStore::record_download(UserId user, AppId app, Day day) {
  if (user.index() >= user_count_) throw std::invalid_argument("record_download: invalid user");
  if (app.index() >= apps_.size()) throw std::invalid_argument("record_download: invalid app");
  counter_add(downloads_[app.index()], 1);
  counter_add(total_downloads_, 1);
  download_live_->append(user.value, app.value, day);
}

void AppStore::record_comment(UserId user, AppId app, Day day, std::uint8_t rating) {
  if (user.index() >= user_count_) throw std::invalid_argument("record_comment: invalid user");
  if (app.index() >= apps_.size()) throw std::invalid_argument("record_comment: invalid app");
  comment_live_->append(user.value, app.value, day, rating);
}

void AppStore::ingest_downloads(const events::EventLog& batch,
                                const events::IngestOptions& options) {
  const auto users = batch.user();
  const auto apps = batch.app();
  for (std::size_t k = 0; k < batch.size(); ++k) {
    if (users[k] >= user_count_) {
      throw std::invalid_argument("ingest_downloads: invalid user");
    }
    if (apps[k] >= apps_.size()) {
      throw std::invalid_argument("ingest_downloads: invalid app");
    }
  }
  // Counters first, then the atomically-published block; a snapshot taken
  // mid-ingest sees the old frontier either way (see the class contract).
  for (const auto app : apps) counter_add(downloads_[app], 1);
  counter_add(total_downloads_, batch.size());
  download_live_->append_batch(batch, options);
}

void AppStore::ingest_comments(const events::EventLog& batch,
                               const events::IngestOptions& options) {
  const auto users = batch.user();
  const auto apps = batch.app();
  for (std::size_t k = 0; k < batch.size(); ++k) {
    if (users[k] >= user_count_) {
      throw std::invalid_argument("ingest_comments: invalid user");
    }
    if (apps[k] >= apps_.size()) {
      throw std::invalid_argument("ingest_comments: invalid app");
    }
  }
  comment_live_->append_batch(batch, options);
}

void AppStore::adopt_event_logs(std::unique_ptr<events::LiveEventLog> downloads,
                                std::unique_ptr<events::LiveEventLog> comments) {
  if (downloads == nullptr || comments == nullptr) {
    throw std::invalid_argument("adopt_event_logs: null log");
  }
  if (downloads->columns() != (events::Columns::kDay | events::Columns::kOrdinal) ||
      comments->columns() !=
          (events::Columns::kDay | events::Columns::kOrdinal | events::Columns::kRating)) {
    throw std::invalid_argument("adopt_event_logs: column mask mismatch");
  }
  const auto validate = [this](const events::LiveEventLog& log, const char* what) {
    const events::FrontierSnapshot snapshot = log.snapshot();
    const auto users = snapshot.user();
    const auto apps = snapshot.app();
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      if (users[i] >= user_count_ || apps[i] >= apps_.size()) {
        throw std::invalid_argument(std::string("adopt_event_logs: invalid id in ") + what);
      }
    }
  };
  validate(*downloads, "downloads");
  validate(*comments, "comments");

  std::vector<std::uint64_t> counters(apps_.size(), 0);
  std::uint64_t total = 0;
  const events::FrontierSnapshot snapshot = downloads->snapshot();
  for (const std::uint32_t app : snapshot.app()) {
    ++counters[app];
    ++total;
  }
  downloads_ = std::move(counters);
  total_downloads_ = total;
  download_live_ = std::move(downloads);
  comment_live_ = std::move(comments);
}

void AppStore::restore_price_stats(AppId app, double price_sum_dollars,
                                   std::uint32_t price_samples) {
  price_sum_dollars_.at(app.index()) = price_sum_dollars;
  price_samples_.at(app.index()) = price_samples;
}

void AppStore::set_price(AppId app, Cents price, Day /*day*/) {
  auto& entry = apps_.at(app.index());
  if (entry.pricing != Pricing::kPaid) {
    throw std::invalid_argument("set_price: app is not paid");
  }
  entry.price = price;
  price_sum_dollars_.at(app.index()) += cents_to_dollars(price);
  ++price_samples_.at(app.index());
}

void AppStore::set_has_ads(AppId app, bool has_ads) {
  apps_.at(app.index()).has_ads = has_ads;
}

double AppStore::average_price_dollars(AppId id) const {
  const std::uint32_t samples = price_samples_.at(id.index());
  if (samples == 0) return 0.0;
  return price_sum_dollars_.at(id.index()) / static_cast<double>(samples);
}

std::uint64_t AppStore::downloads_of(AppId id) const {
  return counter_read(downloads_.at(id.index()));
}

std::uint64_t AppStore::total_downloads() const noexcept {
  return counter_read(total_downloads_);
}

std::vector<std::uint32_t> AppStore::apps_per_category() const {
  std::vector<std::uint32_t> counts(categories_.size(), 0);
  for (const auto& app : apps_) ++counts[app.category.index()];
  return counts;
}

std::vector<double> AppStore::download_counts() const {
  std::vector<double> counts;
  counts.reserve(downloads_.size());
  for (const auto& d : downloads_) counts.push_back(static_cast<double>(counter_read(d)));
  return counts;
}

std::vector<double> AppStore::download_counts(Pricing pricing) const {
  std::vector<double> counts;
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (apps_[i].pricing == pricing) {
      counts.push_back(static_cast<double>(counter_read(downloads_[i])));
    }
  }
  return counts;
}

std::vector<double> AppStore::downloads_by_rank() const {
  std::vector<double> counts = download_counts();
  std::sort(counts.begin(), counts.end(), std::greater<>());
  return counts;
}

std::vector<double> AppStore::downloads_by_rank(Pricing pricing) const {
  std::vector<double> counts = download_counts(pricing);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  return counts;
}

void AppStore::check_invariants() const {
  if (downloads_.size() != apps_.size()) {
    throw std::logic_error("store invariant: download counter size mismatch");
  }
  std::uint64_t recomputed_total = 0;
  std::vector<std::uint64_t> recomputed(apps_.size(), 0);
  const events::FrontierSnapshot download_log = this->download_log();
  const auto dl_users = download_log.user();
  const auto dl_apps = download_log.app();
  for (std::size_t i = 0; i < download_log.size(); ++i) {
    if (dl_apps[i] >= apps_.size()) {
      throw std::logic_error("store invariant: download event with invalid app");
    }
    if (dl_users[i] >= user_count_) {
      throw std::logic_error("store invariant: download event with invalid user");
    }
    ++recomputed[dl_apps[i]];
    ++recomputed_total;
  }
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    if (recomputed[i] != counter_read(downloads_[i])) {
      throw std::logic_error(util::format("store invariant: app {} counter {} != {} events",
                                          i, counter_read(downloads_[i]), recomputed[i]));
    }
  }
  if (recomputed_total != counter_read(total_downloads_)) {
    throw std::logic_error("store invariant: total download counter mismatch");
  }
  const events::FrontierSnapshot comment_log = this->comment_log();
  const auto cm_users = comment_log.user();
  const auto cm_apps = comment_log.app();
  for (std::size_t i = 0; i < comment_log.size(); ++i) {
    if (cm_apps[i] >= apps_.size() || cm_users[i] >= user_count_) {
      throw std::logic_error("store invariant: comment event with invalid id");
    }
  }
  for (const auto& app : apps_) {
    if (app.developer.index() >= developers_.size()) {
      throw std::logic_error("store invariant: app with invalid developer");
    }
    if (app.category.index() >= categories_.size()) {
      throw std::logic_error("store invariant: app with invalid category");
    }
    if (!std::is_sorted(app.update_days.begin(), app.update_days.end())) {
      throw std::logic_error("store invariant: unsorted update days");
    }
  }
}

}  // namespace appstore::market
