// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a library layer in a span
// (name, layer, start, end, parent, request id). Spans nest strictly on the
// one recording thread, so a span's self time is its duration minus the
// durations of its direct children. Nothing is written until the run ends:
// write_chrome_json() exports Chrome trace-event JSON that chrome://tracing
// and Perfetto open. Disabling the tracer turns begin/end into no-ops, which
// is how the traced and untraced timings of one replay are compared.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   ///< string literal: the function called
  const char* layer = "";  ///< string literal: the module it belongs to
  double start_us = 0.0;   ///< from the tracer's origin
  double end_us = 0.0;
  int parent = -1;              ///< index of the enclosing span, -1 at top
  std::int64_t request = -1;    ///< replayed request id, -1 for layer probes
  double child_us = 0.0;        ///< summed duration of direct children

  [[nodiscard]] double duration_ms() const { return (end_us - start_us) / 1e3; }
  [[nodiscard]] double self_ms() const {
    return (end_us - start_us - child_us) / 1e3;
  }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled). `name` and `layer` must be string literals.
  int begin(const char* name, const char* layer, std::int64_t request);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a complete ("X") trace event.
  void write_chrome_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  bool enabled_ = true;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* layer,
             std::int64_t request)
      : tracer_(tracer), id_(tracer.begin(name, layer, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Count, total and self time of a group of spans.
struct SpanTotals {
  std::string layer;
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Totals keyed by span name (`by_layer` false) or by layer (true).
std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans,
                                              bool by_layer);

}  // namespace perfbench
