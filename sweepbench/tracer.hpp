// In-memory span recorder for the sweep benchmark's traced replay.
//
// A span is one call into a layer's public function, recorded from the
// benchmark's side of the call: name, start, end, the span that caused it
// and the job it belongs to (-1 for work shared by the whole sweep).
// Spans stay in memory until the replay ends; then they are turned into
// per-layer totals, a self-time table and Chrome trace-event JSON that
// Perfetto or chrome://tracing can open.  A disabled tracer records
// nothing, so the same replay code gives the untraced reference run.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace sweepbench {

struct SpanRecord {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: a root span
  std::int64_t job = -1;     ///< -1: not tied to one job
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;   ///< small per-tracer thread index

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
 public:
  static constexpr std::int64_t kInheritParent = -2;

  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Recorded spans, in completion order.  Call only once the replay's
  /// threads have finished recording.
  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  friend class Span;

  std::int64_t next_id() { return next_id_.fetch_add(1); }

  std::uint32_t thread_index() {
    const auto self = std::this_thread::get_id();
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      if (threads_[i] == self) return static_cast<std::uint32_t>(i);
    }
    threads_.push_back(self);
    return static_cast<std::uint32_t>(threads_.size() - 1);
  }

  void record(SpanRecord span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    span.thread = thread_index();
    spans_.push_back(std::move(span));
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::atomic<std::int64_t> next_id_{0};
  std::mutex mutex_;  // guards spans_ and threads_
  std::vector<SpanRecord> spans_;
  std::vector<std::thread::id> threads_;
};

/// RAII span.  The parent defaults to the innermost open span on the
/// calling thread; callbacks that run on another thread pass it explicitly.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::int64_t job = -1,
       std::int64_t parent = Tracer::kInheritParent)
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    record_.id = tracer_.next_id();
    record_.parent = parent == Tracer::kInheritParent ? current_ : parent;
    record_.job = job;
    record_.name = std::move(name);
    outer_ = current_;
    current_ = record_.id;
    record_.start_ns = tracer_.now_ns();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (!tracer_.enabled()) return;
    record_.end_ns = tracer_.now_ns();
    current_ = outer_;
    tracer_.record(std::move(record_));
  }

  /// The span's name is fixed when it closes, so a call whose kind is
  /// known only afterwards (a plan-cache hit or miss) can be renamed.
  void rename(std::string name) { record_.name = std::move(name); }

  [[nodiscard]] std::int64_t id() const noexcept { return record_.id; }

 private:
  static inline thread_local std::int64_t current_ = -1;

  Tracer& tracer_;
  SpanRecord record_;
  std::int64_t outer_ = -1;
};

/// Per-name totals: how many spans, their summed duration, and their
/// summed self time (duration minus the part covered by child spans).
struct LayerTime {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

[[nodiscard]] inline std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans) {
  std::map<std::int64_t, std::vector<const SpanRecord*>> children;
  for (const auto& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> out;
  for (const auto& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const auto* c : it->second) {
        const auto lo = std::max(c->start_ns, s.start_ns);
        const auto hi = std::min(c->end_ns, s.end_ns);
        if (lo < hi) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t child_ns = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : covered) {
      const auto from = std::max(lo, reach);
      if (hi > from) child_ns += hi - from;
      reach = std::max(reach, hi);
    }
    auto& row = out[s.name];
    row.count += 1;
    row.total_s += s.seconds();
    row.self_s += static_cast<double>(s.end_ns - s.start_ns - child_ns) * 1e-9;
  }
  return out;
}

/// Writes `spans` as Chrome trace-event JSON ("X" complete events).
inline void write_chrome_trace(std::ostream& out,
                               const std::vector<SpanRecord>& spans,
                               const std::string& process_name) {
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\""
      << process_name << "\"}}";
  for (const auto& s : spans) {
    out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\"eds\",\"ph\":\"X\""
        << ",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"job\":" << s.job << "}}";
  }
  out << "\n]}\n";
}

}  // namespace sweepbench
