#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "obs/atomic_file.h"
#include "obs/codec.h"
#include "obs/metrics.h"

namespace sddd::obs {

namespace {

/// Hard cap per thread buffer; a Table-1 run at default span granularity
/// stays far below this, so hitting it means a span was placed inside a
/// per-sample loop by mistake.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

}  // namespace

struct Tracer::ThreadBuffer {
  std::uint32_t tid = 0;
  mutable std::mutex mu;
  std::vector<TraceEvent> events;
};

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [this] {
    auto b = std::make_shared<ThreadBuffer>();
    const std::lock_guard<std::mutex> lock(mu_);
    b->tid = static_cast<std::uint32_t>(buffers_.size());
    buffers_.push_back(b);
    return b;
  }();
  return *buffer;
}

void Tracer::enable() {
  if (epoch_ns_ == 0) epoch_ns_ = now_ns();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    const std::lock_guard<std::mutex> b_lock(b->mu);
    b->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
}

std::size_t Tracer::event_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) {
    const std::lock_guard<std::mutex> b_lock(b->mu);
    n += b->events.size();
  }
  return n;
}

std::uint64_t Tracer::dropped_count() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::uint32_t Tracer::this_thread_tid() { return local_buffer().tid; }

void Tracer::record(TraceEvent&& event) {
  ThreadBuffer& buffer = local_buffer();
  event.tid = buffer.tid;
  const std::lock_guard<std::mutex> lock(buffer.mu);
  if (buffer.events.size() >= kMaxEventsPerThread) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.events.push_back(std::move(event));
}

void Tracer::write_json(std::ostream& os) const {
  std::vector<TraceEvent> all;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& b : buffers_) {
      const std::lock_guard<std::mutex> b_lock(b->mu);
      all.insert(all.end(), b->events.begin(), b->events.end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns != b.ts_ns ? a.ts_ns < b.ts_ns
                                               : a.tid < b.tid;
                   });
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << "{\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": "
        "\"process_name\", \"args\": {\"name\": \"sddd\"}}";
  char num[64];
  for (const TraceEvent& e : all) {
    os << ",\n{\"name\": ";
    os << json_quote(e.name);
    os << ", \"cat\": \"sddd\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << e.tid;
    // Chrome trace timestamps are microseconds; keep ns resolution via the
    // fractional part.
    std::snprintf(num, sizeof(num), "%.3f",
                  static_cast<double>(e.ts_ns) / 1000.0);
    os << ", \"ts\": " << num;
    std::snprintf(num, sizeof(num), "%.3f",
                  static_cast<double>(e.dur_ns) / 1000.0);
    os << ", \"dur\": " << num;
    if (e.n_args > 0) {
      os << ", \"args\": {";
      for (std::uint8_t a = 0; a < e.n_args; ++a) {
        const TraceArg& arg = e.args[a];
        if (a > 0) os << ", ";
        os << json_quote(arg.key);
        os << ": ";
        switch (arg.kind) {
          case TraceArg::Kind::kInt:
            os << arg.i;
            break;
          case TraceArg::Kind::kDouble:
            std::snprintf(num, sizeof(num), "%.6g", arg.d);
            os << num;
            break;
          case TraceArg::Kind::kString:
            os << json_quote(arg.s);
            break;
          case TraceArg::Kind::kNone:
            os << "null";
            break;
        }
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

bool Tracer::write_file(const std::string& path) const {
  // Atomic (temp + rename): a killed run keeps the previous complete
  // trace instead of a half-written JSON that no viewer can open.
  std::ostringstream os;
  write_json(os);
  return atomic_write_file(path, os.str());
}

std::uint64_t ScopedSpan::now_ns_() { return now_ns(); }

TraceArg* ScopedSpan::next_arg(const char* key) noexcept {
  if (name_ == nullptr || n_args_ >= kMaxSpanArgs) return nullptr;
  TraceArg& slot = args_[n_args_++];
  slot.key = key;
  return &slot;
}

ScopedSpan& ScopedSpan::arg(const char* key, std::int64_t v) noexcept {
  if (TraceArg* slot = next_arg(key)) {
    slot->kind = TraceArg::Kind::kInt;
    slot->i = v;
  }
  return *this;
}

ScopedSpan& ScopedSpan::arg(const char* key, std::uint64_t v) noexcept {
  return arg(key, static_cast<std::int64_t>(v));
}

ScopedSpan& ScopedSpan::arg(const char* key, double v) noexcept {
  if (TraceArg* slot = next_arg(key)) {
    slot->kind = TraceArg::Kind::kDouble;
    slot->d = v;
  }
  return *this;
}

ScopedSpan& ScopedSpan::arg(const char* key, std::string_view v) {
  if (TraceArg* slot = next_arg(key)) {
    slot->kind = TraceArg::Kind::kString;
    slot->s.assign(v);
  }
  return *this;
}

void ScopedSpan::finish() noexcept {
  Tracer& tracer = Tracer::instance();
  // A span that straddles disable() still records: its start was paid for,
  // and a truncated tail is worse than one extra event.
  TraceEvent event;
  event.name = name_;
  const std::uint64_t end = now_ns_();
  const std::uint64_t epoch = tracer.epoch_ns();
  event.ts_ns = start_ns_ > epoch ? start_ns_ - epoch : 0;
  event.dur_ns = end > start_ns_ ? end - start_ns_ : 0;
  event.args = std::move(args_);
  event.n_args = n_args_;
  tracer.record(std::move(event));
}

}  // namespace sddd::obs
