#include "market/serialize.hpp"

#include <cstring>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace appstore::market {

namespace {

[[nodiscard]] std::uint64_t parse_field_u64(const std::string& text, const char* what) {
  std::uint64_t value = 0;
  if (!util::parse_u64(text, value)) {
    throw std::runtime_error(util::format("load_store: bad {} '{}'", what, text));
  }
  return value;
}

[[nodiscard]] std::int64_t parse_field_i64(const std::string& text, const char* what) {
  if (!text.empty() && text[0] == '-') {
    return -static_cast<std::int64_t>(parse_field_u64(text.substr(1), what));
  }
  return static_cast<std::int64_t>(parse_field_u64(text, what));
}

[[nodiscard]] util::CsvTable read_required(const std::filesystem::path& path) {
  if (!std::filesystem::exists(path)) {
    throw std::runtime_error("load_store: missing " + path.string());
  }
  return util::read_csv(path);
}

}  // namespace

void save_entities(const AppStore& store, const std::filesystem::path& directory) {
  std::filesystem::create_directories(directory);

  {
    util::CsvWriter meta(directory / "meta.csv");
    meta.write_row({"name", "users"});
    meta.row(store.name(), static_cast<std::uint64_t>(store.user_count()));
  }
  {
    util::CsvWriter categories(directory / "categories.csv");
    categories.write_row({"id", "name"});
    for (const auto& category : store.categories()) {
      categories.row(static_cast<std::uint64_t>(category.id.value), category.name);
    }
  }
  {
    util::CsvWriter developers(directory / "developers.csv");
    developers.write_row({"id", "name"});
    for (const auto& developer : store.developers()) {
      developers.row(static_cast<std::uint64_t>(developer.id.value), developer.name);
    }
  }
  {
    util::CsvWriter apps(directory / "apps.csv");
    apps.write_row({"id", "name", "developer", "category", "paid", "price_cents",
                    "released", "has_ads", "price_sum_bits", "price_samples"});
    for (const auto& app : store.apps()) {
      const auto [price_sum, price_samples] = store.price_stats(app.id);
      std::uint64_t price_sum_bits = 0;
      static_assert(sizeof price_sum_bits == sizeof price_sum);
      std::memcpy(&price_sum_bits, &price_sum, sizeof price_sum_bits);
      apps.row(static_cast<std::uint64_t>(app.id.value), app.name,
               static_cast<std::uint64_t>(app.developer.value),
               static_cast<std::uint64_t>(app.category.value),
               app.pricing == Pricing::kPaid ? 1 : 0, static_cast<std::int64_t>(app.price),
               static_cast<std::int64_t>(app.released), app.has_ads ? 1 : 0,
               price_sum_bits, static_cast<std::uint64_t>(price_samples));
    }
  }
  {
    util::CsvWriter updates(directory / "updates.csv");
    updates.write_row({"app", "day"});
    for (const auto& event : store.update_events()) {
      updates.row(static_cast<std::uint64_t>(event.app.value),
                  static_cast<std::int64_t>(event.day));
    }
  }
}

void save_store(const AppStore& store, const std::filesystem::path& directory) {
  save_entities(store, directory);
  {
    util::CsvWriter downloads(directory / "downloads.csv");
    downloads.write_row({"user", "app", "day"});
    const auto& log = store.download_log();
    for (std::size_t i = 0; i < log.size(); ++i) {
      downloads.row(static_cast<std::uint64_t>(log.user()[i]),
                    static_cast<std::uint64_t>(log.app()[i]),
                    static_cast<std::int64_t>(log.day()[i]));
    }
  }
  {
    util::CsvWriter comments(directory / "comments.csv");
    comments.write_row({"user", "app", "day", "rating"});
    const auto& log = store.comment_log();
    for (std::size_t i = 0; i < log.size(); ++i) {
      comments.row(static_cast<std::uint64_t>(log.user()[i]),
                   static_cast<std::uint64_t>(log.app()[i]),
                   static_cast<std::int64_t>(log.day()[i]),
                   static_cast<std::uint64_t>(log.rating()[i]));
    }
  }
}

std::unique_ptr<AppStore> load_entities(const std::filesystem::path& directory,
                                        const events::LiveOptions& live) {
  const auto meta = read_required(directory / "meta.csv");
  if (meta.rows.empty() || meta.rows[0].size() < 2) {
    throw std::runtime_error("load_store: malformed meta.csv");
  }
  auto store = std::make_unique<AppStore>(meta.rows[0][0], live);
  store->add_users(
      static_cast<std::uint32_t>(parse_field_u64(meta.rows[0][1], "user count")));

  for (const auto& row : read_required(directory / "categories.csv").rows) {
    if (row.size() < 2) throw std::runtime_error("load_store: malformed categories.csv");
    (void)store->add_category(row[1]);
  }
  for (const auto& row : read_required(directory / "developers.csv").rows) {
    if (row.size() < 2) throw std::runtime_error("load_store: malformed developers.csv");
    (void)store->add_developer(row[1]);
  }
  for (const auto& row : read_required(directory / "apps.csv").rows) {
    if (row.size() < 8) throw std::runtime_error("load_store: malformed apps.csv");
    const bool paid = row[4] == "1";
    const AppId app = store->add_app(
        row[1], DeveloperId{static_cast<std::uint32_t>(parse_field_u64(row[2], "developer"))},
        CategoryId{static_cast<std::uint32_t>(parse_field_u64(row[3], "category"))},
        paid ? Pricing::kPaid : Pricing::kFree,
        paid ? static_cast<Cents>(parse_field_i64(row[5], "price")) : 0,
        static_cast<Day>(parse_field_i64(row[6], "released")));
    store->set_has_ads(app, row[7] == "1");
    // Older files (pre-durability) lack the accumulator columns; the
    // add_app seed is then the best available reconstruction.
    if (row.size() >= 10) {
      const std::uint64_t bits = parse_field_u64(row[8], "price_sum_bits");
      double price_sum = 0.0;
      std::memcpy(&price_sum, &bits, sizeof price_sum);
      store->restore_price_stats(
          app, price_sum,
          static_cast<std::uint32_t>(parse_field_u64(row[9], "price_samples")));
    }
  }
  for (const auto& row : read_required(directory / "updates.csv").rows) {
    if (row.size() < 2) throw std::runtime_error("load_store: malformed updates.csv");
    store->record_update(AppId{static_cast<std::uint32_t>(parse_field_u64(row[0], "app"))},
                         static_cast<Day>(parse_field_i64(row[1], "day")));
  }
  return store;
}

std::unique_ptr<AppStore> load_store(const std::filesystem::path& directory) {
  auto store = load_entities(directory);
  for (const auto& row : read_required(directory / "downloads.csv").rows) {
    if (row.size() < 3) throw std::runtime_error("load_store: malformed downloads.csv");
    store->record_download(
        UserId{static_cast<std::uint32_t>(parse_field_u64(row[0], "user"))},
        AppId{static_cast<std::uint32_t>(parse_field_u64(row[1], "app"))},
        static_cast<Day>(parse_field_i64(row[2], "day")));
  }
  for (const auto& row : read_required(directory / "comments.csv").rows) {
    if (row.size() < 4) throw std::runtime_error("load_store: malformed comments.csv");
    store->record_comment(
        UserId{static_cast<std::uint32_t>(parse_field_u64(row[0], "user"))},
        AppId{static_cast<std::uint32_t>(parse_field_u64(row[1], "app"))},
        static_cast<Day>(parse_field_i64(row[2], "day")),
        static_cast<std::uint8_t>(parse_field_u64(row[3], "rating")));
  }
  store->check_invariants();
  return store;
}

}  // namespace appstore::market
