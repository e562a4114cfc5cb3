#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the serve snapshot directories and the span
  /// dump; created by the caller, inside the checkout.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  /// False when the benchmark itself misbehaved (a deterministic counter
  /// changed between passes, a reference could not be computed).
  bool bench_ok = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
};

/// The analysis workloads: "dense-encoded" and "sparse-traversal".
Outcome run_analysis(const Options& opts, SpanRecorder& rec);
/// The closed-loop serve workload: "serve-queries".
Outcome run_serve(const Options& opts, SpanRecorder& rec);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Runs `compute` in a forked child process and returns the bytes it
/// produced. References are computed there so that neither their time nor
/// their memory reaches the measured process. Throws if the child fails.
std::string run_in_child(const std::function<std::string()>& compute);

/// Length-prefixed serialization for what crosses the child's pipe.
class Pack {
 public:
  void put(const std::string& s);
  void put(double v);
  [[nodiscard]] const std::string& bytes() const { return bytes_; }

 private:
  std::string bytes_;
};

class Unpack {
 public:
  explicit Unpack(std::string bytes) : bytes_(std::move(bytes)) {}
  std::string str();
  double num();
  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

/// Shortest round-trip decimal form of `v`.
std::string num_to_string(double v);

}  // namespace e2e
