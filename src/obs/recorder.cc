#include "obs/recorder.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <sstream>

#include "obs/codec.h"
#include "obs/metrics.h"

namespace sddd::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kTrialBegin:
      return "trial.begin";
    case EventKind::kTrialEnd:
      return "trial.end";
    case EventKind::kTrialError:
      return "trial.error";
    case EventKind::kFaultInjected:
      return "fault.injected";
    case EventKind::kCacheMiss:
      return "cache.miss";
    case EventKind::kDeadline:
      return "deadline";
    case EventKind::kDiagnose:
      return "diagnose";
    case EventKind::kServeRequest:
      return "serve.request";
  }
  return "unknown";
}

struct Recorder::Ring {
  mutable std::mutex mu;
  std::array<RecorderEvent, kRingCapacity> slots;
  std::uint64_t next = 0;  ///< total events ever written to this ring
};

Recorder& Recorder::instance() {
  static Recorder recorder;
  return recorder;
}

Recorder::Ring& Recorder::local_ring() {
  thread_local std::shared_ptr<Ring> ring = [this] {
    auto r = std::make_shared<Ring>();
    const std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(r);
    return r;
  }();
  return *ring;
}

void Recorder::record(EventKind kind, std::string_view detail,
                      std::uint64_t key, std::uint64_t a,
                      std::uint64_t b) noexcept {
  Ring& ring = local_ring();
  const std::lock_guard<std::mutex> lock(ring.mu);
  RecorderEvent& slot = ring.slots[ring.next % kRingCapacity];
  slot.kind = kind;
  slot.key = key;
  slot.a = a;
  slot.b = b;
  const std::size_t n = std::min(detail.size(), sizeof(slot.detail) - 1);
  std::memcpy(slot.detail, detail.data(), n);
  slot.detail[n] = '\0';
  ++ring.next;
}

void Recorder::set_run_id(std::string run_id) {
  const std::lock_guard<std::mutex> lock(run_id_mu_);
  run_id_ = std::move(run_id);
}

std::string Recorder::run_id() const {
  const std::lock_guard<std::mutex> lock(run_id_mu_);
  return run_id_;
}

std::vector<RecorderEvent> Recorder::merged_events() const {
  std::vector<RecorderEvent> all;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      const std::lock_guard<std::mutex> ring_lock(ring->mu);
      const std::uint64_t live = std::min<std::uint64_t>(ring->next,
                                                         kRingCapacity);
      for (std::uint64_t i = 0; i < live; ++i) {
        all.push_back(ring->slots[i]);
      }
    }
  }
  // Canonical order: no timestamps, no thread ids -- the same multiset of
  // events sorts identically at any thread count.
  std::sort(all.begin(), all.end(),
            [](const RecorderEvent& x, const RecorderEvent& y) {
              if (x.kind != y.kind) return x.kind < y.kind;
              const int c = std::strcmp(x.detail, y.detail);
              if (c != 0) return c < 0;
              if (x.key != y.key) return x.key < y.key;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
  return all;
}

namespace {

void append_event_json(std::ostream& os, const RecorderEvent& e) {
  os << "{\"kind\":\"" << event_kind_name(e.kind) << "\"";
  if (e.detail[0] != '\0') os << ",\"detail\":" << json_quote(e.detail);
  os << ",\"key\":" << e.key;
  if (e.a != 0) os << ",\"a\":" << e.a;
  if (e.b != 0) os << ",\"b\":" << e.b;
  os << '}';
}

}  // namespace

std::string Recorder::merged_events_json() const {
  const std::vector<RecorderEvent> events = merged_events();
  const std::size_t keep = std::min(events.size(), kMaxPostmortemEvents);
  const std::size_t first = events.size() - keep;
  std::ostringstream os;
  os << '[';
  for (std::size_t i = first; i < events.size(); ++i) {
    if (i != first) os << ",\n  ";
    append_event_json(os, events[i]);
  }
  os << ']';
  return os.str();
}

std::string Recorder::postmortem_json(std::string_view reason) const {
  const std::vector<RecorderEvent> events = merged_events();
  const std::size_t keep = std::min(events.size(), kMaxPostmortemEvents);
  std::ostringstream os;
  os << "{\n  \"postmortem_version\": 1,\n  \"run_id\": "
     << json_quote(run_id()) << ",\n  \"reason\": " << json_quote(reason)
     << ",\n  \"unix_ms\": "
     << std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count()
     << ",\n  \"events_recorded\": " << recorded_count()
     << ",\n  \"events_dropped\": " << dropped_count()
     << ",\n  \"events_elided\": " << events.size() - keep
     << ",\n  \"events\": " << merged_events_json()
     << ",\n  \"metrics\": ";
  MetricsRegistry::instance().snapshot().write_json(os);
  os << "\n}\n";
  return os.str();
}

std::uint64_t Recorder::recorded_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& ring : rings_) {
    const std::lock_guard<std::mutex> ring_lock(ring->mu);
    n += ring->next;
  }
  return n;
}

std::uint64_t Recorder::dropped_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& ring : rings_) {
    const std::lock_guard<std::mutex> ring_lock(ring->mu);
    if (ring->next > kRingCapacity) n += ring->next - kRingCapacity;
  }
  return n;
}

void Recorder::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    const std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->next = 0;
  }
}

}  // namespace sddd::obs
