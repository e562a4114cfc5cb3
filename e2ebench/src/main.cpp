// e2ebench: time-to-verdict and serve-latency benchmark for pnenc.
//
//   e2ebench --workload dense-encoded|sparse-traversal|serve-queries
//            --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Prints human-readable lines, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones, from spans
// recorded around each library call. Normally started through run.py,
// which builds this binary first.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"

namespace {

using e2e::Metric;

const char* const kEndToEnd[] = {
    "setup_s",        "verdict_s",      "verdict_ms_geomean", "request_p50_ms",
    "request_p99_ms", "requests_per_s", "peak_rss_mb"};

/// Every per-layer metric, with its unit. A workload that does not call a
/// layer from the benchmark's side reports 0 for it.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"petri.load_ms", "ms"},
    {"smc.find_ms", "ms"},
    {"smc.found", "count"},
    {"encoding.cover_ms", "ms"},
    {"encoding.vars", "count"},
    {"encoding.smcs_used_ratio", "ratio"},
    {"symbolic.context_ms", "ms"},
    {"symbolic.partition_ms", "ms"},
    {"symbolic.saturate_ms", "ms"},
    {"symbolic.applications", "count"},
    {"symbolic.deadlock_ms", "ms"},
    {"symbolic.witness_ms", "ms"},
    {"dd.peak_nodes", "count"},
    {"dd.reached_nodes", "count"},
    {"dd.cache_lookups", "count"},
    {"dd.cache_hit_ratio", "ratio"},
    {"dd.gc_runs", "count"},
    {"dd.reorder_runs", "count"},
    {"query.reach_ms", "ms"},
    {"query.ctl_ms", "ms"},
    {"query.deadlock_live_ms", "ms"},
    {"query.traced_ms", "ms"},
    {"query.trace_steps", "count"},
    {"server.open_cache_ms", "ms"},
    {"server.open_snapshot_ms", "ms"},
    {"server.open_traversal_ms", "ms"},
    {"server.cache_hit_ratio", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload dense-encoded|sparse-traversal|"
               "serve-queries --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options opts;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.size() != 5 || !args.count("workload") ||
      !args.count("seed") || !args.count("seconds") || !args.count("trace") ||
      !args.count("work-dir")) {
    return usage();
  }
  opts.workload = args["workload"];
  opts.work_dir = args["work-dir"];
  try {
    opts.seed = std::stoull(args["seed"]);
    opts.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    return usage();
  }
  if (args["trace"] != "0" && args["trace"] != "1") return usage();
  opts.trace = args["trace"] == "1";
  bool analysis = opts.workload == "dense-encoded" ||
                  opts.workload == "sparse-traversal";
  if (!analysis && opts.workload != "serve-queries") return usage();

  e2e::Outcome outcome;
  e2e::SpanRecorder rec(false);
  try {
    std::filesystem::create_directories(opts.work_dir);
    outcome = analysis ? e2e::run_analysis(opts, rec) : e2e::run_serve(opts, rec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }

  std::map<std::string, Metric> got;
  for (const Metric& m : outcome.metrics) got[m.name] = m;
  std::vector<Metric> report;
  if (opts.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      auto it = got.find(name);
      report.push_back(it != got.end() ? it->second : Metric{name, 0.0, unit});
    }
    std::string path = opts.work_dir + "/spans-" + opts.workload + ".tsv";
    std::ofstream spans(path);
    rec.write_tsv(spans);
    std::printf("spans: %zu recorded\n", rec.spans().size());
  } else {
    for (const char* name : kEndToEnd) {
      if (!got.count(name)) {
        std::fprintf(stderr, "e2ebench: metric %s missing\n", name);
        return 1;
      }
      report.push_back(got[name]);
    }
  }

  for (const Metric& m : report) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "e2ebench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    std::printf("%-26s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed_frac %.6g (%ld of %ld operations)\n",
              static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted),
              outcome.failed, outcome.attempted);
  if (!outcome.bench_ok) std::printf("benchmark self-check FAILED\n");

  std::string json = "{\"correct\": ";
  json += outcome.bench_ok && outcome.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + report[i].name + "\": {\"value\": " +
            e2e::num_to_string(report[i].value) + ", \"unit\": \"" +
            report[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
