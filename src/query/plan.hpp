// Predicate planner + block-bitmap executor over one columnar event log.
//
// A bound filter expression compiles into a plan tree whose leaves are index
// filters in the netplay query_planner sense: each comparison clause is
// assigned a scan strategy —
//
//   kIndexScan   user-selective clauses (user == K, narrow user ranges) read
//                only the CSR per-user slices of the log's index: O(rows of
//                the selected users) instead of O(all rows);
//   kColumnScan  every other clause scans its column;
//   kResidual    inside an `and`, every column scan after the first source
//                is demoted to a residual filter: it is evaluated only on
//                the 64-row words the other children left non-empty;
//   kAll/kNone   clauses that are constant for this store (store == name,
//                tautological ranges) fold away at plan time.
//
// Execution (Executor) cuts the log into fixed blocks of scan_block rows.
// Each block yields a selection bitmap, one 64-bit word per 64 rows:
//
//   - day and user leaves fold their operator and literal into one unsigned
//     range test per query, so the per-row loop has no branch on either;
//   - app-joined leaves (app, category, price) are evaluated once per app
//     into a byte mask, and each row reads its app's entry;
//   - index-scan leaves set the bits of their CSR rows;
//   - `and` / `or` combine word by word (`and` skips words already empty,
//     `or` words already full), and the caller's `day <= D` bound is one
//     more range conjunct of the root.
//
// Aggregates fold the set bits block by block (Executor::fold_blocks): no
// row-id vector is materialized and no second pass over the log is made.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "events/live_log.hpp"
#include "par/parallel.hpp"
#include "query/expression.hpp"

namespace appstore::query {

/// The per-log binding context: a frontier snapshot of the event log plus
/// the app-metadata columns the app-joined fields (category, price) read
/// through. The snapshot pins one consistent prefix for the whole plan —
/// planning, index scans, and every column-scan block read the same rows
/// even while writers keep appending. Spans must outlive plan execution.
struct BoundLog {
  events::FrontierSnapshot log;
  /// Per-app metadata, indexed by app id (category id; list price, dollars);
  /// covers every app id in the log.
  std::span<const std::uint32_t> app_category;
  std::span<const double> app_price;
  std::string_view store_name;
  std::uint32_t user_count = 0;
  std::uint32_t category_count = 0;
};

struct PlanOptions {
  /// Permit CSR index scans (requires the log's per-user index to be built;
  /// the planner falls back to column scans when it is not).
  bool allow_index_scan = true;
  /// A user-range clause takes an index scan only when it selects at most
  /// max(1, user_count * index_user_fraction) users — wider ranges touch so
  /// much of the index that a flat column scan wins.
  double index_user_fraction = 1.0 / 64.0;
  /// Rows per scan block. Block boundaries are a pure function of this value
  /// (never of the thread count), which is what keeps every aggregate
  /// thread-count-invariant.
  std::uint64_t scan_block = 16384;
  /// Worker threads for block evaluation; 0 = hardware concurrency.
  std::size_t threads = 0;
};

enum class NodeKind : std::uint8_t {
  kIndexScan,
  kColumnScan,
  kResidual,
  kAll,
  kNone,
  kAnd,
  kOr,
};

struct PlanNode {
  NodeKind kind = NodeKind::kAll;
  Comparison clause;                     ///< leaf scans
  std::uint32_t user_lo = 0;             ///< index scan: inclusive user range
  std::uint32_t user_hi = 0;
  std::vector<PlanNode> children;        ///< kAnd / kOr
};

struct Plan {
  PlanNode root;
  std::uint32_t index_scans = 0;      ///< leaves served by the CSR index
  std::uint32_t column_scans = 0;     ///< leaves served by full column scans
  std::uint32_t residual_filters = 0; ///< leaves tested against candidates only
};

/// Compiles a bound expression into a plan. Resolves category names to ids
/// against `bound` (throws QueryError("unknown_category") when a named
/// category does not exist) and folds store comparisons into kAll/kNone.
[[nodiscard]] Plan plan_filter(const Expr& expr, const BoundLog& bound,
                               const PlanOptions& options);

/// Trivial plan selecting every row (no filter supplied).
[[nodiscard]] Plan plan_all();

/// One evaluated run of rows: bit i of words[w] selects row
/// begin + 64 * w + i, or 64 * listed[w] + i when the words are a list of
/// 64-row words (ascending). Bits past the run's last row are always zero.
struct BlockBits {
  std::uint64_t begin = 0;
  std::span<const std::uint64_t> words;
  std::span<const std::uint64_t> listed;

  /// Calls fn(row) for every selected row, in ascending row order.
  template <typename Fn>
  void for_each_row(Fn&& fn) const {
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t word = words[w];
      const std::uint64_t base = listed.empty() ? begin + 64 * w : 64 * listed[w];
      if (word == ~std::uint64_t{0}) {
        for (std::uint64_t i = 0; i < 64; ++i) fn(base + i);
        continue;
      }
      while (word != 0) {
        fn(base + static_cast<std::uint64_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }
};

/// A plan compiled against one bound log and one day bound: every leaf's
/// operator, literal, per-app mask or index rows are prepared once here, so
/// evaluating a block does no per-row dispatch and no heap allocation.
/// Copies the spans it reads; the BoundLog's columns and metadata must
/// outlive the executor. evaluate() and fold_blocks() are const and safe to
/// call from many threads.
class Executor {
 public:
  /// Rows whose day is greater than `day_max` are never selected.
  Executor(const Plan& plan, const BoundLog& bound, const PlanOptions& options,
           std::int32_t day_max);
  Executor(Executor&&) noexcept;
  Executor& operator=(Executor&&) noexcept;
  ~Executor();

  /// Evaluates every block on options.threads workers and folds each into a
  /// shard accumulator, fold(T& acc, const BlockBits& bits). Shards are
  /// contiguous runs of blocks, each folded in ascending block order, and
  /// the (at least one) accumulators come back in ascending shard order:
  /// concatenating or summing them in order visits the selected rows in row
  /// order at every thread count.
  template <typename T, typename Fold>
  [[nodiscard]] std::vector<T> fold_blocks(T identity, Fold&& fold) const {
    if (index_bounded_) {
      // Only the words holding index-scan rows can select anything. They
      // are evaluated as one list on this thread: the work is proportional
      // to those rows, not to the log.
      std::vector<T> partials;
      partials.push_back(std::move(identity));
      if (!index_words_.empty()) {
        Scratch scratch = make_scratch();
        fold(partials.front(), evaluate_index_words(scratch));
      }
      return partials;
    }
    par::Options par_options;
    par_options.threads = threads_;
    const std::uint64_t blocks = block_count();
    const std::size_t shards = par::plan_shards(blocks, par_options).shard_count;
    std::vector<T> partials(shards > 1 ? shards - 1 : 0, identity);
    partials.push_back(std::move(identity));
    par::for_shards(blocks, par_options,
                    [&](std::uint64_t first, std::uint64_t last, std::size_t shard) {
                      Scratch scratch = make_scratch();
                      for (std::uint64_t b = first; b < last; ++b) {
                        fold(partials[shard], evaluate(b, scratch));
                      }
                    });
    return partials;
  }

  struct Kernel;  ///< one compiled plan node (defined in plan.cpp)

 private:
  /// Per-thread word buffers: one block of words per plan-tree level that
  /// needs a temporary.
  using Scratch = std::vector<std::uint64_t>;

  /// Fixed blocks of scan_block rows (the last one may be shorter).
  [[nodiscard]] std::uint64_t block_count() const noexcept;
  /// Words per scratch level: one block's worth, or the index word list.
  [[nodiscard]] std::size_t stride() const noexcept;
  [[nodiscard]] Scratch make_scratch() const;
  /// Evaluates one block. The returned words alias `scratch` and stay valid
  /// until its next use.
  [[nodiscard]] BlockBits evaluate(std::uint64_t block, Scratch& scratch) const;
  /// Evaluates the index word list: the index-scan bits, ANDed with the
  /// root's other conjuncts (the day bound among them).
  [[nodiscard]] BlockBits evaluate_index_words(Scratch& scratch) const;

  /// The compiled plan with the day bound as one more conjunct.
  std::unique_ptr<const Kernel> root_;
  std::span<const std::uint32_t> user_;
  std::span<const std::uint32_t> app_;
  std::span<const std::int32_t> day_;
  std::uint64_t rows_ = 0;
  std::uint64_t block_rows_ = 1;
  std::size_t levels_ = 1;
  std::size_t threads_ = 0;
  /// The selection lies within one index scan's rows (or is empty):
  /// index_bits_[i] holds those of rows [64 * index_words_[i], + 64),
  /// ascending by word. No other row is evaluated.
  bool index_bounded_ = false;
  std::vector<std::uint64_t> index_words_;
  std::vector<std::uint64_t> index_bits_;
};

}  // namespace appstore::query
