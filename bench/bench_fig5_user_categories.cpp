// Fig. 5: users focus on a few categories (Anzhi comment dataset).
//   (a) comments per user: 92% of users <= 10 comments, 99% <= 30;
//   (b) unique categories per user: 53% one category, 94% <= 5;
//   (c) average share of comments in the user's top-k categories:
//       66% in the top category, 95% within the top 3-5;
//   (d) downloads per category: the most popular category holds only ~12%.
#include "common.hpp"

#include "core/study.hpp"
#include "stats/ecdf.hpp"

int main(int argc, char** argv) {
  using namespace appstore;
  benchx::BenchCli cli("bench_fig5_user_categories", "Fig. 5: users focus on few categories");
  cli.parse(argc, argv);
  auto config = cli.config();
  config.comments = true;

  benchx::print_heading("Fig. 5 — Users focus on a few categories",
                        "(a) 92% of users <=10 comments; (b) 53% comment in a single "
                        "category, 94% in <=5; (c) 66% of an average user's comments "
                        "fall in one category; (d) top category has just 12% of downloads");

  // Anzhi provides the comment dataset; raise the commenter share so the
  // scaled-down run still has thousands of commenting users.
  synth::StoreProfile profile = synth::anzhi();
  profile.commenter_fraction = 0.10;
  const core::EcosystemStudy study(profile, config);
  const auto strings = study.category_strings();
  std::printf("commenting users: %zu\n\n", strings.size());

  // (a) comments per user.
  std::vector<double> comments_per_user;
  for (const auto& s : strings) comments_per_user.push_back(static_cast<double>(s.size()));
  const stats::Ecdf comment_cdf(comments_per_user);
  report::Table table_a({"comments", "CDF"});
  for (const int k : {1, 2, 5, 10, 20, 30, 100}) {
    table_a.row({std::to_string(k), report::percent(comment_cdf.at(k))});
  }
  std::printf("(a) comments per user\n");
  benchx::print_table(table_a);

  // (b) unique categories per user.
  const auto unique_counts = affinity::unique_categories_per_user(strings);
  const stats::Ecdf unique_cdf(unique_counts);
  report::Table table_b({"categories", "CDF"});
  for (const int k : {1, 2, 3, 5, 10, 15}) {
    table_b.row({std::to_string(k), report::percent(unique_cdf.at(k))});
  }
  std::printf("(b) unique categories per user\n");
  benchx::print_table(table_b);

  // (c) average share of comments in top-k categories.
  const auto shares = affinity::topk_comment_share(strings, 10);
  report::Table table_c({"top-k", "avg comment share"});
  for (std::size_t k = 0; k < shares.size(); ++k) {
    table_c.row({std::to_string(k + 1), report::fixed(shares[k], 1) + "%"});
  }
  std::printf("(c) comments in top-k categories\n");
  benchx::print_table(table_c);

  // (d) downloads per category.
  const auto& store = study.store();
  std::vector<double> per_category(store.categories().size(), 0.0);
  for (const auto& app : store.apps()) {
    per_category[app.category.index()] +=
        static_cast<double>(store.downloads_of(app.id));
  }
  const double total = static_cast<double>(store.total_downloads());
  std::vector<double> percents;
  for (const double d : per_category) percents.push_back(100.0 * d / total);
  std::sort(percents.begin(), percents.end(), std::greater<>());
  report::Table table_d({"category rank", "download share"});
  for (const std::size_t rank : {0u, 1u, 2u, 4u, 9u, 19u}) {
    if (rank < percents.size()) {
      table_d.row({std::to_string(rank + 1), report::fixed(percents[rank], 1) + "%"});
    }
  }
  std::printf("(d) downloads per category (sorted)\n");
  benchx::print_table(table_d);

  // CSV export.
  report::Series sa{"comments_per_user_cdf", {"comments", "cdf"}, {}};
  for (const auto& point : comment_cdf.steps()) sa.add({point.x, point.f});
  report::Series sb{"unique_categories_cdf", {"categories", "cdf"}, {}};
  for (const auto& point : unique_cdf.steps()) sb.add({point.x, point.f});
  report::Series sc{"topk_share", {"k", "share_percent"}, {}};
  for (std::size_t k = 0; k < shares.size(); ++k) {
    sc.add({static_cast<double>(k + 1), shares[k]});
  }
  report::Series sd{"category_download_share", {"category_rank", "percent"}, {}};
  for (std::size_t r = 0; r < percents.size(); ++r) {
    sd.add({static_cast<double>(r + 1), percents[r]});
  }
  report::export_all({sa, sb, sc, sd}, "fig5");
  return 0;
}
