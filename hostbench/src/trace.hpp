#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only around the benchmark's own calls into the
// simulator's public API (machine build, kernel run, checkpoint, serve
// request, ...); nothing inside the program is instrumented. Each thread
// appends to its own buffer, so recording takes no lock. With tracing off a
// Span is one branch and never reads the clock.
namespace hostbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Process user+sys CPU time, all threads.
[[nodiscard]] inline double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

struct SpanRecord {
  const char* layer = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint32_t job = 0;     // job or request id within the round
  std::uint32_t round = 0;
  std::uint32_t thread = 0;
};

class Trace {
 public:
  static void set_enabled(bool on);
  [[nodiscard]] static bool enabled();
  /// Round tag stamped on spans begun from now on (set between rounds).
  static void set_round(std::uint32_t r);

  /// Open a span on the calling thread. `parent` 0 means the innermost open
  /// span of this thread (or none). Returns 0 when tracing is off.
  static std::uint32_t begin(const char* layer, std::uint32_t job,
                             std::uint32_t parent = 0);
  static void end(std::uint32_t id);

  /// Every span recorded so far, across threads (call when workers are idle).
  [[nodiscard]] static std::vector<SpanRecord> collect();

  /// Per-round totals by layer: inclusive (sum of durations) and self time
  /// (duration minus the time covered by the span's children).
  struct LayerTime {
    double inclusive_s = 0.0;
    double self_s = 0.0;
  };
  using RoundLayers = std::map<std::string, LayerTime>;
  [[nodiscard]] static std::map<std::uint32_t, RoundLayers> layer_times(
      const std::vector<SpanRecord>& spans);

  /// CSV: id,parent,layer,round,job,thread,start_ns,end_ns
  static void write_csv(const std::string& path,
                        const std::vector<SpanRecord>& spans);
};

/// RAII span.
class Span {
 public:
  Span(const char* layer, std::uint32_t job = 0, std::uint32_t parent = 0)
      : id_(Trace::enabled() ? Trace::begin(layer, job, parent) : 0) {}
  ~Span() {
    if (id_ != 0) Trace::end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  std::uint32_t id_;
};

}  // namespace hostbench
