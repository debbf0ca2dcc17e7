// Spans recorded from the benchmark's own files around calls into the
// program's layers. A span is (name, id, parent, start, end); a span's
// parent is the innermost span still open on the same thread when it
// started. Spans are kept in memory and summarized when the run ends.
//
// A disabled Tracer reads no clock and records nothing, so the untraced
// runs that give the end-to-end metrics pay one branch per call site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";     ///< static string: span names are literals
  std::uint32_t id = 0;      ///< 1-based
  std::uint32_t parent = 0;  ///< 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Self time of `parent`: its duration minus the part of [start, end) that
/// the union of `children` covers (children are clipped to the parent's
/// interval; overlapping children are counted once).
[[nodiscard]] std::int64_t self_time_ns(const Span& parent, std::span<const Span> children);

/// Self time of every span in `spans` (index-aligned), children found by
/// their parent id.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(std::span<const Span> spans);

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  /// May be called while other threads open spans.
  void set_enabled(bool enabled) noexcept { enabled_.store(enabled, std::memory_order_relaxed); }

  /// RAII span; records on destruction when the tracer was enabled at open.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< nullptr = inert
    Span span_;
  };

  [[nodiscard]] Scope span(const char* name) { return Scope(*this, name); }

  /// Copy of everything recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;
  void clear();

  /// Monotonic nanoseconds (steady_clock).
  [[nodiscard]] static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// Durations (ns) of the spans named `name`.
[[nodiscard]] std::vector<double> durations_ns(std::span<const Span> spans, std::string_view name);

/// Self times (ns) of the spans named `name`.
[[nodiscard]] std::vector<double> self_ns(std::span<const Span> spans, std::string_view name);

}  // namespace perfbench
