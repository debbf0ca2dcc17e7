#include "query/plan.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/format.hpp"

namespace appstore::query {

namespace {

[[nodiscard]] bool compare(CompareOp op, double lhs, double rhs) noexcept {
  switch (op) {
    case CompareOp::kEq: return lhs == rhs;
    case CompareOp::kNe: return lhs != rhs;
    case CompareOp::kLt: return lhs < rhs;
    case CompareOp::kLe: return lhs <= rhs;
    case CompareOp::kGt: return lhs > rhs;
    case CompareOp::kGe: return lhs >= rhs;
  }
  return false;
}

[[nodiscard]] PlanNode constant(bool all) {
  PlanNode node;
  node.kind = all ? NodeKind::kAll : NodeKind::kNone;
  return node;
}

/// Inclusive user range selected by a contiguous-range operator; nullopt for
/// an empty selection. `kNe` is never contiguous and is not handled here.
struct UserRange {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
};

[[nodiscard]] std::optional<UserRange> user_range(const Comparison& clause,
                                                  std::uint32_t user_count) {
  if (user_count == 0) return std::nullopt;
  const double v = clause.number;
  const auto last = static_cast<double>(user_count - 1);
  double lo = 0.0;
  double hi = last;
  switch (clause.op) {
    case CompareOp::kEq: lo = hi = v; break;
    case CompareOp::kLe: hi = v; break;
    case CompareOp::kLt: hi = v - 1.0; break;
    case CompareOp::kGe: lo = v; break;
    case CompareOp::kGt: lo = v + 1.0; break;
    case CompareOp::kNe: return std::nullopt;  // not contiguous (caller guards)
  }
  lo = std::max(lo, 0.0);
  hi = std::min(hi, last);
  if (lo > hi) return std::nullopt;
  return UserRange{static_cast<std::uint32_t>(lo), static_cast<std::uint32_t>(hi)};
}

[[nodiscard]] PlanNode plan_leaf(const Comparison& clause, const BoundLog& bound,
                                 const PlanOptions& options) {
  PlanNode node;
  node.clause = clause;

  switch (clause.field) {
    case Field::kStore: {
      const bool equal = clause.text == bound.store_name;
      return constant(clause.op == CompareOp::kEq ? equal : !equal);
    }
    case Field::kCategory: {
      if (clause.is_text) {
        // Resolved against real names by the engine before planning; a text
        // clause reaching this point means the caller skipped binding.
        throw QueryError("unknown_category",
                         util::format("unknown category '{}'", clause.text));
      }
      if (clause.number >= static_cast<double>(bound.category_count)) {
        return constant(clause.op == CompareOp::kNe);
      }
      break;
    }
    case Field::kUser: {
      if (clause.op == CompareOp::kNe) break;  // not contiguous: column scan
      const auto range = user_range(clause, bound.user_count);
      if (!range.has_value()) return constant(false);
      if (range->lo == 0 && range->hi == bound.user_count - 1) return constant(true);
      const auto span = static_cast<double>(range->hi - range->lo) + 1.0;
      const double limit =
          std::max(1.0, static_cast<double>(bound.user_count) * options.index_user_fraction);
      if (options.allow_index_scan && bound.log.indexed() &&
          bound.log.user_count() >= bound.user_count && span <= limit) {
        node.kind = NodeKind::kIndexScan;
        node.user_lo = range->lo;
        node.user_hi = range->hi;
        return node;
      }
      break;
    }
    default:
      break;
  }
  node.kind = NodeKind::kColumnScan;
  return node;
}

[[nodiscard]] PlanNode plan_node(const Expr& expr, const BoundLog& bound,
                                 const PlanOptions& options) {
  if (expr.kind == Expr::Kind::kComparison) {
    return plan_leaf(expr.comparison, bound, options);
  }
  const bool is_and = expr.kind == Expr::Kind::kAnd;
  PlanNode node;
  node.kind = is_and ? NodeKind::kAnd : NodeKind::kOr;
  for (const Expr& child : expr.children) {
    PlanNode planned = plan_node(child, bound, options);
    if (planned.kind == NodeKind::kAll) {
      if (!is_and) return constant(true);  // or-with-all is all
      continue;                            // and-with-all folds away
    }
    if (planned.kind == NodeKind::kNone) {
      if (is_and) return constant(false);  // and-with-none is none
      continue;                            // or-with-none folds away
    }
    node.children.push_back(std::move(planned));
  }
  if (node.children.empty()) return constant(is_and);
  if (node.children.size() == 1) return std::move(node.children.front());

  if (is_and) {
    // Residual rewrite: once one child has selected candidate words, further
    // column scans only need to test those words, not the whole log.
    // Keep the first column scan (or any index scan / sub-tree) as a source
    // and demote the remaining column-scan leaves to residual filters.
    const bool has_cheap_source = std::any_of(
        node.children.begin(), node.children.end(),
        [](const PlanNode& child) { return child.kind != NodeKind::kColumnScan; });
    bool source_seen = has_cheap_source;
    for (PlanNode& child : node.children) {
      if (child.kind != NodeKind::kColumnScan) continue;
      if (!source_seen) {
        source_seen = true;  // first column scan feeds the candidate set
        continue;
      }
      child.kind = NodeKind::kResidual;
    }
  }
  return node;
}

void count_scans(const PlanNode& node, Plan& plan) {
  switch (node.kind) {
    case NodeKind::kIndexScan: ++plan.index_scans; break;
    case NodeKind::kColumnScan: ++plan.column_scans; break;
    case NodeKind::kResidual: ++plan.residual_filters; break;
    default: break;
  }
  for (const PlanNode& child : node.children) count_scans(child, plan);
}

}  // namespace

/// One compiled plan node. Leaves carry everything their per-row loop needs,
/// prepared once per query; the loop itself never branches on the field or
/// the operator.
struct Executor::Kernel {
  enum class Kind : std::uint8_t {
    kAll,
    kNone,
    kDayRange,
    kUserRange,
    kAppMask,
    kRows,
    kAnd,
    kOr,
  };

  Kind kind = Kind::kAll;
  /// kDayRange / kUserRange: a row matches when first <= value <= last;
  /// `negate` flips the answer (the != operator).
  std::int64_t first = 0;
  std::int64_t last = 0;
  bool negate = false;
  /// kAppMask: 1 for every app whose rows match, indexed by app id.
  std::vector<std::uint8_t> app_mask;
  /// kRows: the index scan's rows, ascending.
  std::vector<std::uint32_t> rows;
  /// kAnd / kOr operands. An `and` lists its kRows children first.
  std::vector<Kernel> children;
};

namespace {

using Kernel = Executor::Kernel;
using KernelKind = Executor::Kernel::Kind;

[[nodiscard]] Kernel constant_kernel(bool all) {
  Kernel kernel;
  kernel.kind = all ? KernelKind::kAll : KernelKind::kNone;
  return kernel;
}

/// Folds `double(value) OP x` over an integer column whose values lie in
/// [min, max] into one range test lo <= value <= hi, negated for !=, with
/// exactly the answers of the double comparison. Empty and whole-domain
/// selections become constants.
[[nodiscard]] Kernel range_kernel(KernelKind kind, CompareOp op, double x, std::int64_t min,
                                  std::int64_t max) {
  const bool negate = op == CompareOp::kNe;
  if (std::isnan(x)) return constant_kernel(negate);
  x = std::clamp(x, static_cast<double>(min) - 1.0, static_cast<double>(max) + 1.0);
  const auto floor_x = static_cast<std::int64_t>(std::floor(x));
  const auto ceil_x = static_cast<std::int64_t>(std::ceil(x));
  std::int64_t lo = min;
  std::int64_t hi = max;
  switch (op) {
    case CompareOp::kEq:
    case CompareOp::kNe:
      if (floor_x != ceil_x) return constant_kernel(negate);  // no integer equals x
      lo = hi = floor_x;
      break;
    case CompareOp::kLt: hi = ceil_x - 1; break;
    case CompareOp::kLe: hi = floor_x; break;
    case CompareOp::kGt: lo = floor_x + 1; break;
    case CompareOp::kGe: lo = ceil_x; break;
  }
  lo = std::max(lo, min);
  hi = std::min(hi, max);
  if (lo > hi) return constant_kernel(negate);
  if (lo == min && hi == max) return constant_kernel(!negate);
  Kernel kernel;
  kernel.kind = kind;
  kernel.first = lo;
  kernel.last = hi;
  kernel.negate = negate;
  return kernel;
}

/// App-joined leaf (app, category, price): the clause is evaluated once per
/// app, exactly as the double comparison the row would make.
[[nodiscard]] Kernel app_kernel(const Comparison& clause, const BoundLog& bound) {
  const std::size_t apps = bound.app_category.size();
  Kernel kernel;
  kernel.kind = KernelKind::kAppMask;
  kernel.app_mask.resize(apps);
  std::size_t matched = 0;
  for (std::size_t app = 0; app < apps; ++app) {
    double value = bound.app_price[app];
    if (clause.field == Field::kApp) value = static_cast<double>(app);
    if (clause.field == Field::kCategory) value = static_cast<double>(bound.app_category[app]);
    const bool match = compare(clause.op, value, clause.number);
    kernel.app_mask[app] = match ? 1 : 0;
    matched += match ? 1 : 0;
  }
  if (matched == 0) return constant_kernel(false);
  if (matched == apps) return constant_kernel(true);
  return kernel;
}

[[nodiscard]] Kernel leaf_kernel(const Comparison& clause, const BoundLog& bound) {
  switch (clause.field) {
    case Field::kDay:
      // A disabled day column reads as 0 (the Event default).
      if (bound.log.day().empty()) return constant_kernel(compare(clause.op, 0.0, clause.number));
      return range_kernel(KernelKind::kDayRange, clause.op, clause.number,
                          std::numeric_limits<std::int32_t>::min(),
                          std::numeric_limits<std::int32_t>::max());
    case Field::kUser:
      return range_kernel(KernelKind::kUserRange, clause.op, clause.number, 0,
                          std::numeric_limits<std::uint32_t>::max());
    case Field::kApp:
    case Field::kCategory:
    case Field::kPrice:
      return app_kernel(clause, bound);
    case Field::kStore:
      break;  // folded at plan time; unreachable
  }
  return constant_kernel(false);
}

[[nodiscard]] Kernel rows_kernel(const PlanNode& node, const BoundLog& bound) {
  Kernel kernel;
  kernel.kind = KernelKind::kRows;
  for (std::uint32_t user = node.user_lo; user <= node.user_hi; ++user) {
    const events::LiveStreamView view = bound.log.stream(user);
    kernel.rows.reserve(kernel.rows.size() + view.size());
    for (std::size_t i = 0; i < view.size(); ++i) kernel.rows.push_back(view.event_index(i));
  }
  if (kernel.rows.empty()) return constant_kernel(false);
  std::sort(kernel.rows.begin(), kernel.rows.end());
  return kernel;
}

/// Folds constant operands out of an and/or node (leaves can compile to
/// constants: an app mask every app passes, an index scan over users
/// without rows), the way the planner folds. In an `and`, non-negated
/// ranges over one column intersect into a single leaf, so `day >= a and
/// day <= b` under a day bound reads the day column once, and index rows
/// go first, so the leaves after them read only the words those rows touch.
[[nodiscard]] Kernel simplify(Kernel kernel) {
  const bool is_and = kernel.kind == KernelKind::kAnd;
  const KernelKind absorbing = is_and ? KernelKind::kNone : KernelKind::kAll;
  const KernelKind neutral = is_and ? KernelKind::kAll : KernelKind::kNone;
  std::vector<Kernel> children;
  for (Kernel& child : kernel.children) {
    if (child.kind == absorbing) return child;
    if (child.kind != neutral) children.push_back(std::move(child));
  }
  if (is_and) {
    for (const KernelKind column : {KernelKind::kDayRange, KernelKind::kUserRange}) {
      Kernel* merged = nullptr;
      for (Kernel& child : children) {
        if (child.kind != column || child.negate) continue;
        if (merged == nullptr) {
          merged = &child;
          continue;
        }
        merged->first = std::max(merged->first, child.first);
        merged->last = std::min(merged->last, child.last);
        child.kind = KernelKind::kAll;  // absorbed into `merged`
      }
      if (merged != nullptr && merged->first > merged->last) return constant_kernel(false);
    }
    std::erase_if(children, [](const Kernel& child) { return child.kind == KernelKind::kAll; });
    std::stable_partition(children.begin(), children.end(),
                          [](const Kernel& child) { return child.kind == KernelKind::kRows; });
  }
  if (children.empty()) return constant_kernel(is_and);
  if (children.size() == 1) return std::move(children.front());
  kernel.children = std::move(children);
  return kernel;
}

[[nodiscard]] Kernel compile(const PlanNode& node, const BoundLog& bound) {
  switch (node.kind) {
    case NodeKind::kAll: return constant_kernel(true);
    case NodeKind::kNone: return constant_kernel(false);
    case NodeKind::kIndexScan: return rows_kernel(node, bound);
    case NodeKind::kColumnScan:
    case NodeKind::kResidual: return leaf_kernel(node.clause, bound);
    case NodeKind::kAnd:
    case NodeKind::kOr: break;
  }
  Kernel kernel;
  kernel.kind = node.kind == NodeKind::kAnd ? KernelKind::kAnd : KernelKind::kOr;
  for (const PlanNode& child : node.children) kernel.children.push_back(compile(child, bound));
  return simplify(std::move(kernel));
}

[[nodiscard]] std::size_t depth(const Kernel& kernel) {
  std::size_t deepest = 0;
  for (const Kernel& child : kernel.children) deepest = std::max(deepest, depth(child));
  return deepest + 1;
}

// ---- word kernels --------------------------------------------------------------

static_assert(std::endian::native == std::endian::little,
              "pack_flags reads eight flag bytes as one little-endian word");

/// Packs 64 flag bytes (each 0 or 1) into one word, bit i = flags[i]. One
/// multiply gathers each group of eight into its top byte: the partial
/// products land on distinct bits, so nothing carries.
[[nodiscard]] inline std::uint64_t pack_flags(const std::uint8_t* flags) noexcept {
  constexpr std::uint64_t kGather = 0x0102040810204080ULL;
  std::uint64_t word = 0;
  for (int group = 0; group < 8; ++group) {
    std::uint64_t eight = 0;
    std::memcpy(&eight, flags + 8 * group, sizeof eight);
    word |= ((eight * kGather) >> 56) << (8 * group);
  }
  return word;
}

/// One word of a per-row predicate over the first `count` (<= 64) rows. The
/// full-word loop has a constant trip count, so it vectorizes.
template <typename Flag>
[[nodiscard]] inline std::uint64_t flag_word(std::uint64_t count, Flag&& flag) noexcept {
  alignas(8) std::uint8_t flags[64];
  if (count == 64) {
    for (std::uint64_t i = 0; i < 64; ++i) flags[i] = flag(i);
  } else {
    for (std::uint64_t i = 0; i < count; ++i) flags[i] = flag(i);
    std::fill(flags + count, flags + 64, std::uint8_t{0});
  }
  return pack_flags(flags);
}

[[nodiscard]] constexpr std::uint64_t low_bits(std::uint64_t count) noexcept {
  return count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
}

/// How a node's words meet the words already in the output buffer.
enum class Combine : std::uint8_t { kSet, kAnd, kOr };

/// The rows one evaluation covers and the columns it reads (indexed by
/// absolute row). Word w covers rows [row(w), row(w) + count(w)): a block
/// is the contiguous run from `begin`; a word list holds only the listed
/// 64-row words (`listed`, absolute word numbers, ascending).
struct Block {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  ///< one past the last row a word may cover
  const std::uint64_t* listed = nullptr;
  std::size_t stride = 0;  ///< words per scratch level
  const std::uint32_t* user = nullptr;
  const std::uint32_t* app = nullptr;
  const std::int32_t* day = nullptr;

  [[nodiscard]] std::uint64_t row(std::size_t w) const noexcept {
    return listed == nullptr ? begin + 64 * w : 64 * listed[w];
  }
  [[nodiscard]] std::uint64_t count(std::size_t w) const noexcept {
    return std::min<std::uint64_t>(64, end - row(w));
  }
};

/// out[w] = word(first_row, count) (kSet); &= only on non-empty words
/// (kAnd); |= only on words not yet full (kOr). Bits past `count` stay zero.
template <Combine mode, typename WordFn>
void combine_words(const Block& block, std::span<std::uint64_t> out, WordFn&& word) {
  for (std::size_t w = 0; w < out.size(); ++w) {
    const std::uint64_t count = block.count(w);
    if constexpr (mode == Combine::kSet) {
      out[w] = word(block.row(w), count);
    } else if constexpr (mode == Combine::kAnd) {
      if (out[w] != 0) out[w] &= word(block.row(w), count);
    } else {
      if (out[w] != low_bits(count)) out[w] |= word(block.row(w), count);
    }
  }
}

/// A per-row leaf, flag(row), met with `out`. Under kAnd a sparse word (at
/// most kSparseBits set, as after an index scan or a selective leaf) tests
/// only its set rows; every other word evaluates all its rows in one
/// vectorizable pass.
constexpr int kSparseBits = 8;

template <Combine mode, typename Flag>
void flag_words(const Block& block, std::span<std::uint64_t> out, Flag&& flag) {
  if constexpr (mode == Combine::kAnd) {
    for (std::size_t w = 0; w < out.size(); ++w) {
      std::uint64_t word = out[w];
      if (word == 0) continue;
      const std::uint64_t first = block.row(w);
      if (std::popcount(word) <= kSparseBits) {
        for (std::uint64_t bits = word; bits != 0; bits &= bits - 1) {
          const int i = std::countr_zero(bits);
          if (flag(first + static_cast<std::uint64_t>(i)) == 0) word &= ~(std::uint64_t{1} << i);
        }
        out[w] = word;
      } else {
        out[w] = word & flag_word(block.count(w), [&](std::uint64_t i) { return flag(first + i); });
      }
    }
  } else {
    combine_words<mode>(block, out, [&](std::uint64_t first, std::uint64_t count) {
      return flag_word(count, [&](std::uint64_t i) { return flag(first + i); });
    });
  }
}

template <Combine mode, typename T>
void range_words(const Kernel& kernel, const T* values, const Block& block,
                 std::span<std::uint64_t> out) {
  // uint32(value) - lo <= width is lo <= value <= last in modular 32-bit
  // arithmetic, for the unsigned user column and the signed day column alike.
  const auto lo = static_cast<std::uint32_t>(kernel.first);
  const auto width = static_cast<std::uint32_t>(kernel.last - kernel.first);
  const std::uint8_t negate = kernel.negate ? 1 : 0;
  flag_words<mode>(block, out, [=](std::uint64_t row) {
    return static_cast<std::uint8_t>((static_cast<std::uint32_t>(values[row]) - lo <= width) ^
                                     negate);
  });
}

template <Combine mode>
void apply_leaf(const Kernel& kernel, const Block& block, std::span<std::uint64_t> out) {
  switch (kernel.kind) {
    case KernelKind::kAll:
      if constexpr (mode != Combine::kAnd) {
        combine_words<mode>(block, out,
                            [](std::uint64_t, std::uint64_t count) { return low_bits(count); });
      }
      break;
    case KernelKind::kNone:
      if constexpr (mode != Combine::kOr) {
        combine_words<mode>(block, out,
                            [](std::uint64_t, std::uint64_t) { return std::uint64_t{0}; });
      }
      break;
    case KernelKind::kDayRange:
      range_words<mode>(kernel, block.day, block, out);
      break;
    case KernelKind::kUserRange:
      range_words<mode>(kernel, block.user, block, out);
      break;
    case KernelKind::kAppMask: {
      const std::uint8_t* mask = kernel.app_mask.data();
      const std::uint32_t* apps = block.app;
      flag_words<mode>(block, out, [=](std::uint64_t row) { return mask[apps[row]]; });
      break;
    }
    case KernelKind::kRows: {
      const std::uint32_t* const end = kernel.rows.data() + kernel.rows.size();
      const std::uint32_t* it = std::lower_bound(kernel.rows.data(), end, block.row(0));
      combine_words<mode>(block, out, [&](std::uint64_t first, std::uint64_t count) {
        while (it != end && *it < first) ++it;
        std::uint64_t word = 0;
        for (; it != end && *it < first + count; ++it) word |= std::uint64_t{1} << (*it - first);
        return word;
      });
      break;
    }
    case KernelKind::kAnd:
    case KernelKind::kOr:
      break;  // handled by apply()
  }
}

/// Evaluates `kernel` over one block and meets the result with `out` per
/// `mode`. `below` is the scratch level a differing sub-connective evaluates
/// into before it is combined.
void apply(const Kernel& kernel, Combine mode, const Block& block, std::span<std::uint64_t> out,
           std::uint64_t* below) {
  const bool is_and = kernel.kind == KernelKind::kAnd;
  if (!is_and && kernel.kind != KernelKind::kOr) {
    switch (mode) {
      case Combine::kSet: apply_leaf<Combine::kSet>(kernel, block, out); break;
      case Combine::kAnd: apply_leaf<Combine::kAnd>(kernel, block, out); break;
      case Combine::kOr: apply_leaf<Combine::kOr>(kernel, block, out); break;
    }
    return;
  }
  const Combine inner = is_and ? Combine::kAnd : Combine::kOr;
  if (mode != Combine::kSet && mode != inner) {
    const std::span<std::uint64_t> operand(below, out.size());
    apply(kernel, Combine::kSet, block, operand, below + block.stride);
    for (std::size_t w = 0; w < out.size(); ++w) {
      out[w] = mode == Combine::kAnd ? out[w] & operand[w] : out[w] | operand[w];
    }
    return;
  }
  Combine next = mode;
  for (const Kernel& child : kernel.children) {
    apply(child, next, block, out, below);
    next = inner;
    if (is_and && std::all_of(out.begin(), out.end(), [](std::uint64_t w) { return w == 0; })) {
      return;  // an empty conjunction stays empty
    }
  }
}

}  // namespace

Plan plan_filter(const Expr& expr, const BoundLog& bound, const PlanOptions& options) {
  Plan plan;
  plan.root = plan_node(expr, bound, options);
  count_scans(plan.root, plan);
  return plan;
}

Plan plan_all() {
  Plan plan;
  plan.root.kind = NodeKind::kAll;
  return plan;
}

Executor::Executor(const Plan& plan, const BoundLog& bound, const PlanOptions& options,
                   std::int32_t day_max)
    : user_(bound.log.user()),
      app_(bound.log.app()),
      day_(bound.log.day()),
      rows_(bound.log.size()),
      block_rows_(std::max<std::uint64_t>(1, options.scan_block)),
      threads_(options.threads) {
  // The day bound is one more range conjunct of the root; a disabled day
  // column reads as day 0.
  Kernel day_bound =
      day_.empty() ? constant_kernel(0 <= day_max)
                   : range_kernel(KernelKind::kDayRange, CompareOp::kLe, day_max,
                                  std::numeric_limits<std::int32_t>::min(),
                                  std::numeric_limits<std::int32_t>::max());
  Kernel root = compile(plan.root, bound);
  if (root.kind != KernelKind::kAnd) {
    Kernel conjunction;
    conjunction.kind = KernelKind::kAnd;
    conjunction.children.push_back(std::move(root));
    root = std::move(conjunction);
  }
  root.children.push_back(std::move(day_bound));
  root = simplify(std::move(root));
  levels_ = depth(root);
  // A selection inside one index scan's rows can only touch the words that
  // hold those rows; the others are never evaluated. An empty selection
  // touches none.
  const Kernel* index_rows = nullptr;
  if (root.kind == KernelKind::kRows) index_rows = &root;
  if (root.kind == KernelKind::kAnd && root.children.front().kind == KernelKind::kRows) {
    index_rows = &root.children.front();
  }
  index_bounded_ = index_rows != nullptr || root.kind == KernelKind::kNone;
  if (index_rows != nullptr) {
    index_words_.reserve(index_rows->rows.size());
    index_bits_.reserve(index_rows->rows.size());
    for (const std::uint32_t row : index_rows->rows) {
      const std::uint64_t word = row / 64;
      if (index_words_.empty() || index_words_.back() != word) {
        index_words_.push_back(word);
        index_bits_.push_back(0);
      }
      index_bits_.back() |= std::uint64_t{1} << (row % 64);
    }
  }
  root_ = std::make_unique<const Kernel>(std::move(root));
}

Executor::Executor(Executor&&) noexcept = default;
Executor& Executor::operator=(Executor&&) noexcept = default;
Executor::~Executor() = default;

std::uint64_t Executor::block_count() const noexcept {
  return rows_ / block_rows_ + (rows_ % block_rows_ != 0 ? 1 : 0);
}

std::size_t Executor::stride() const noexcept {
  if (index_bounded_) return index_words_.size();
  return static_cast<std::size_t>((std::min(block_rows_, rows_) + 63) / 64);
}

Executor::Scratch Executor::make_scratch() const { return Scratch(levels_ * stride()); }

BlockBits Executor::evaluate(std::uint64_t block, Scratch& scratch) const {
  Block view;
  view.begin = block * block_rows_;
  view.end = std::min(rows_, view.begin + block_rows_);
  view.stride = stride();
  view.user = user_.data();
  view.app = app_.data();
  view.day = day_.data();
  const std::span<std::uint64_t> out(scratch.data(),
                                     static_cast<std::size_t>((view.end - view.begin + 63) / 64));
  apply(*root_, Combine::kSet, view, out, scratch.data() + view.stride);
  return BlockBits{view.begin, out, {}};
}

BlockBits Executor::evaluate_index_words(Scratch& scratch) const {
  Block view;
  view.end = rows_;
  view.listed = index_words_.data();
  view.stride = stride();
  view.user = user_.data();
  view.app = app_.data();
  view.day = day_.data();
  const std::span<std::uint64_t> out(scratch.data(), index_words_.size());
  std::copy(index_bits_.begin(), index_bits_.end(), out.begin());
  if (root_->kind == KernelKind::kAnd) {
    for (std::size_t c = 1; c < root_->children.size(); ++c) {
      apply(root_->children[c], Combine::kAnd, view, out, scratch.data() + view.stride);
    }
  }
  return BlockBits{0, out, index_words_};
}

}  // namespace appstore::query
