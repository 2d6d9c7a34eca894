// In-memory span recorder for the traced mode. Spans are opened only by
// the benchmark's own code around calls into a layer's public
// functions; nothing is recorded inside the library. Spans stay in a
// preallocated vector until `write_chrome_json` at the end of the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;   ///< index of the enclosing span, -1 at the root
    std::int64_t request;  ///< request id, -1 outside a request
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_request(std::int64_t id) { request_ = id; }

  /// Opens a span; returns its index (or -1 when tracing is off).
  std::int64_t open(const char* name) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({name, now_ns(), 0, current_, request_});
    current_ = id;
    return id;
  }
  void close(std::int64_t id) {
    if (id < 0) return;
    auto& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  /// Chrome trace-event JSON (complete "X" events; parent and request
  /// ids in args), loadable in Perfetto or chrome://tracing.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_ns / 1000.0
         << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0 << ",\"args\":{\"id\":" << i
         << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int64_t current_ = -1;
  std::int64_t request_ = -1;

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scoped() { t_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  std::int64_t id_;
};

}  // namespace perfbench
