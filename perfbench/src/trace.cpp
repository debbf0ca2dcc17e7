#include "trace.hpp"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

namespace {
/// Id of the innermost open span on this thread (parent of the next one).
thread_local std::uint32_t t_current_id = 0;
}  // namespace

std::int64_t self_time_ns(const Span& parent, std::span<const Span> children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  intervals.reserve(children.size());
  for (const Span& child : children) {
    const std::int64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) intervals.emplace_back(lo, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = parent.start_ns;
  for (const auto& [lo, hi] : intervals) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return parent.duration_ns() - covered;
}

std::vector<std::int64_t> self_times_ns(std::span<const Span> spans) {
  std::unordered_map<std::uint32_t, std::vector<Span>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(span);
  }
  std::vector<std::int64_t> out;
  out.reserve(spans.size());
  for (const Span& span : spans) {
    const auto it = children.find(span.id);
    out.push_back(it == children.end() ? span.duration_ns()
                                       : self_time_ns(span, it->second));
  }
  return out;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  span_.name = name;
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_current_id;
  t_current_id = span_.id;
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  t_current_id = span_.parent;
  const std::lock_guard lock(tracer_->mutex_);
  tracer_->spans_.push_back(span_);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

void Tracer::clear() {
  const std::lock_guard lock(mutex_);
  spans_.clear();
}

std::vector<double> durations_ns(std::span<const Span> spans, std::string_view name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) out.push_back(static_cast<double>(span.duration_ns()));
  }
  return out;
}

std::vector<double> self_ns(std::span<const Span> spans, std::string_view name) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) out.push_back(static_cast<double>(self[i]));
  }
  return out;
}

}  // namespace perfbench
