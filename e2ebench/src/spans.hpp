#pragma once

#include <chrono>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One call into a library layer, timed from the benchmark's side of the
/// boundary (nothing inside src/ is instrumented).
struct Span {
  std::string name;
  double start_ms = 0.0;  // relative to the recorder's origin
  double end_ms = 0.0;
  int parent = -1;  // index of the enclosing span, -1 at top level
  long op = -1;     // the net or request the span belongs to
};

/// In-memory span log, written out only when the run ends. A disabled
/// recorder keeps nothing, so traced and untraced passes run the same code.
/// Single-threaded: spans nest strictly (open/close in stack order).
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// RAII span: closes (records the end time) when destroyed.
  class Scope {
   public:
    Scope(SpanRecorder& rec, const char* name, long op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& rec_;
    int index_ = -1;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Tab-separated dump: index, parent, op, name, start_ms, end_ms.
  void write_tsv(std::ostream& out) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are counted once).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace e2e
