#include "trace.h"

#include <cstdio>

namespace perfbench {

std::string spans_to_chrome_json(const std::vector<SpanRecord>& spans) {
  std::uint64_t origin = ~0ULL;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"req\":%llu}}",
                  i == 0 ? "" : ",\n", s.name, s.thread,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.req));
    out += buf;
  }
  return out + "]}\n";
}

}  // namespace perfbench
