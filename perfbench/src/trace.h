// trace.h - Spans the benchmark records around its own calls into each
// layer of the program (--trace 1).
//
// A span has a name ("<layer>.<call>"), start and end on the steady
// clock, the id of the span that caused it and a request / chip id that
// spans of one operation share.  Spans are kept in memory and written as
// a Chrome trace-event file when the run ends.  With tracing off a Span
// is one branch on a global flag.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Seconds elapsed since `t0_ns` (a now_ns() reading).
inline double since_s(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t req = 0;     ///< request / chip id shared by one operation
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
  const char* name = "";
};

class Tracer {
 public:
  static Tracer& instance() {
    static Tracer t;
    return t;
  }

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::uint64_t open_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_id_;
  }
  void close(const SpanRecord& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  std::uint32_t thread_index() {
    thread_local const std::uint32_t index = next_thread_.fetch_add(1);
    return index;
  }

  /// The span open on this thread (the default parent of a new span).
  static std::uint64_t& current() {
    thread_local std::uint64_t id = 0;
    return id;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> next_thread_{0};
  mutable std::mutex mu_;  ///< guards next_id_ and spans_
  std::uint64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span.  `parent` overrides the thread's open span (work handed to
/// pool threads names its cause explicitly).
class Span {
 public:
  Span(const char* name, std::uint64_t req = 0,
       std::uint64_t parent = ~0ULL) {
    Tracer& t = Tracer::instance();
    if (!t.enabled()) return;
    on_ = true;
    rec_.name = name;
    rec_.req = req;
    rec_.id = t.open_id();
    rec_.parent = parent == ~0ULL ? Tracer::current() : parent;
    rec_.thread = t.thread_index();
    saved_ = Tracer::current();
    Tracer::current() = rec_.id;
    rec_.start_ns = now_ns();
  }
  ~Span() {
    if (!on_) return;
    rec_.end_ns = now_ns();
    Tracer::current() = saved_;
    Tracer::instance().close(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_ = false;
  SpanRecord rec_;
  std::uint64_t saved_ = 0;
};

/// Per-name totals over a span list.
struct SpanTotals {
  std::map<std::string, double> seconds;  ///< summed duration per name
  /// Share of container-span time covered by their direct child spans:
  /// a container is any span that has children.
  double coverage = 0.0;
};

inline SpanTotals summarize_spans(const std::vector<SpanRecord>& spans) {
  SpanTotals out;
  std::map<std::uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& s : spans) {
    by_id[s.id] = &s;
    out.seconds[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  std::map<std::uint64_t, std::uint64_t> covered;  // parent -> child ns
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 && by_id.count(s.parent) != 0) {
      covered[s.parent] += s.end_ns - s.start_ns;
    }
  }
  double container = 0.0;
  double inside = 0.0;
  for (const auto& [id, ns] : covered) {
    const SpanRecord& p = *by_id[id];
    const auto dur = static_cast<double>(p.end_ns - p.start_ns);
    container += dur;
    inside += std::min(static_cast<double>(ns), dur);
  }
  out.coverage = container > 0.0 ? inside / container : 0.0;
  return out;
}

/// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
std::string spans_to_chrome_json(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
