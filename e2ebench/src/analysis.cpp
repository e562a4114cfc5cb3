// The two analysis workloads: every net goes from its spec to a verdict —
// marking count, deadlock count and, when deadlocks exist, a shortest
// deadlock trace — through the library's public calls, at the pnanalyze
// CLI's own settings (early schedule, auto-reorder at 200000 live nodes,
// one job, serial saturation). Why each net is here: e2ebench/RATIONALE.md.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "encoding/encoding.hpp"
#include "petri/explicit_reach.hpp"
#include "petri/generators.hpp"
#include "petri/net_spec.hpp"
#include "petri/parser.hpp"
#include "script.hpp"
#include "smc/smc.hpp"
#include "stats.hpp"
#include "symbolic/symbolic.hpp"
#include "symbolic/witness.hpp"
#include "symbolic/zdd_context.hpp"

namespace e2e {
namespace {

using namespace pnenc;

constexpr std::size_t kAutoReorder = 200000;  // what pnanalyze sets
constexpr int kSetupRepsPerPass = 10;
/// Span op ids are pass * kOpStride + net index.
constexpr long kOpStride = 1000;
/// The explicit oracle stops here; nets beyond it carry committed values.
constexpr std::size_t kOracleCap = 1500000;

/// A verdict to check against, from a code path other than the measured
/// one: the explicit oracle, or a committed value.
struct Expect {
  double markings = -1.0;
  double deadlocks = -1.0;
  double trace_steps = -1.0;  // < 0: only replay validity is checked
};

struct NetCase {
  std::string label;   // printed in failure lines and the per-net table
  /// builtin:NAME for a gallery net; for a seeded net, its text in the
  /// library's net format (parsed by parse_net, as load_net_spec parses a
  /// net file).
  std::string spec;
  std::string scheme;  // sparse | improved (BDD), zdd
  /// The verdict entry the net's time counts toward: its own label for a
  /// builtin net, one shared entry for all seeded nets of a scheme.
  std::string entry;
  /// Present when the explicit oracle cannot finish within kOracleCap.
  std::optional<Expect> committed;
};

/// Committed verdicts for nets beyond the oracle. Closed forms: dme-N has
/// 3N·2^N markings, slot-N 3N·8^N, muller-N 2^(N+1) (each checked against
/// the oracle on small N) and farm-K-N (2N)^K
/// (tests/symbolic/test_parsat_equiv.cpp). phil-12 was pinned where the
/// BDD-sparse, BDD-improved and ZDD backends agree; its 2 deadlocks (all
/// right forks, all left forks) are the family's, as tests/petri pins for
/// small N, and the shortest way there is two firings per philosopher.
std::optional<Expect> committed_verdict(const std::string& name) {
  static const std::map<std::string, Expect> table = {
      {"phil-12", {101081458.0, 2, 24}},
      {"slot-8", {3.0 * 8 * 16777216, 0, -1}},
      {"slot-9", {3.0 * 9 * 134217728, 0, -1}},
      {"muller-20", {2097152.0, 0, -1}},
      {"muller-24", {33554432.0, 0, -1}},
      {"dme-16", {3.0 * 16 * 65536, 0, -1}},
      {"farm-8-16", {1099511627776.0, 0, -1}},  // 32^8
  };
  auto it = table.find(name);
  if (it == table.end()) return std::nullopt;
  return it->second;
}

NetCase builtin_case(const std::string& name, const std::string& scheme) {
  std::string label = name + "/" + scheme;
  return {label, "builtin:" + name, scheme, label, committed_verdict(name)};
}

/// Shapes of the seeded random_sm_product nets (machines, places each,
/// sync fraction). places_each^machines bounds the marking count, so the
/// oracle always finishes on them. Single random nets differ in cost by up
/// to 10x from seed to seed, so the workload analyses kSeededNets of them
/// back to back and counts them as one entry (see workload_cases).
struct SeededShape {
  int machines;
  int places_each;
  double sync;
};
const SeededShape kSeededShapes[] = {{7, 6, 0.1}, {8, 5, 0.15}, {9, 4, 0.2}};
constexpr std::size_t kSeededNets = 9;

/// Generates the seeded nets as net-format text. The text stays in memory,
/// so file-system latency does not enter set-up time.
std::vector<std::string> generate_seeded_nets(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < kSeededNets; ++i) {
    const SeededShape& s = kSeededShapes[i % std::size(kSeededShapes)];
    petri::Net net = petri::gen::random_sm_product(
        s.machines, s.places_each, s.sync,
        static_cast<unsigned>(rng.next()));
    texts.push_back(petri::write_net(net));
  }
  return texts;
}

std::vector<NetCase> workload_cases(const Options& opts,
                                    const std::vector<std::string>& seeded) {
  std::vector<NetCase> cases;
  auto add_seeded = [&](const std::string& scheme) {
    for (std::size_t i = 0; i < seeded.size(); ++i) {
      cases.push_back({"seeded-" + std::to_string(i) + "/" + scheme,
                       seeded[i], scheme,
                       "seeded-x" + std::to_string(seeded.size()) + "/" + scheme,
                       std::nullopt});
    }
  };
  if (opts.workload == "dense-encoded") {
    for (const char* n :
         {"dme-8", "dme-10", "dme-12", "muller-20", "phil-12", "slot-8"}) {
      cases.push_back(builtin_case(n, "improved"));
    }
    add_seeded("improved");
  } else {
    for (const char* n : {"slot-9", "slot-8", "phil-12", "dme-12"}) {
      cases.push_back(builtin_case(n, "sparse"));
    }
    for (const char* n : {"muller-24", "dme-16", "farm-8-16"}) {
      cases.push_back(builtin_case(n, "zdd"));
    }
    add_seeded("sparse");
    add_seeded("zdd");
  }
  return cases;
}

/// Deterministic work counters of one verdict. Two passes over the same
/// net must produce identical values.
struct Counters {
  double smc_found = 0, vars = 0, smcs_used = 0, applications = 0;
  double peak_nodes = 0, reached_nodes = 0, cache_lookups = 0;
  double cache_hits = 0, gc_runs = 0, reorder_runs = 0;
  bool operator==(const Counters&) const = default;
};

struct Verdict {
  double ms = 0.0;
  double markings = 0.0;
  double deadlocks = 0.0;
  std::optional<symbolic::Trace> trace;
  Counters counters;
};

template <class Manager>
void read_kernel(Counters& c, Manager& mgr) {
  c.peak_nodes = static_cast<double>(mgr.peak_node_count());
  c.cache_lookups = static_cast<double>(mgr.cache_lookups());
  c.cache_hits = static_cast<double>(mgr.cache_hits());
  c.gc_runs = static_cast<double>(mgr.gc_runs());
  c.reorder_runs = static_cast<double>(mgr.reorder_runs());
}

petri::Net load(const NetCase& c) {
  petri::Net net = c.spec.rfind("builtin:", 0) == 0 ? petri::load_net_spec(c.spec)
                                                    : petri::parse_net(c.spec);
  std::string problem = net.validate();
  if (!problem.empty()) throw std::runtime_error("invalid net: " + problem);
  return net;
}

/// One verdict on either backend. The locals outlive the timed block, so
/// teardown is not timed.
template <class Backend>
Verdict verdict(const NetCase& c, SpanRecorder& rec, long op) {
  using Scope = SpanRecorder::Scope;
  constexpr bool kBdd = Backend::kKind == symbolic::BackendKind::kBdd;
  Verdict v;
  Clock::time_point t0 = Clock::now();
  petri::Net net;
  std::vector<smc::Smc> smcs;
  encoding::MarkingEncoding enc;
  std::unique_ptr<typename Backend::Context> ctx;
  {
    Scope verdict(rec, "verdict", op);
    {
      Scope s(rec, "petri.load", op);
      net = load(c);
    }
    if constexpr (kBdd) {
      if (c.scheme == "sparse") {
        Scope s(rec, "encoding.cover", op);
        enc = encoding::sparse_encoding(net);
      } else {
        {
          Scope s(rec, "smc.find", op);
          smcs = smc::find_smcs(net);
        }
        Scope s(rec, "encoding.cover", op);
        enc = encoding::improved_encoding(net, smcs);
      }
    }
    {
      Scope s(rec, "symbolic.context", op);
      if constexpr (kBdd) {
        symbolic::SymbolicOptions sopts;
        sopts.with_next_vars = true;
        sopts.auto_reorder_threshold = kAutoReorder;
        ctx = std::make_unique<symbolic::SymbolicContext>(net, enc, sopts);
      } else {
        ctx = std::make_unique<symbolic::ZddContext>(net);
        ctx->manager().set_auto_reorder(kAutoReorder);
      }
      symbolic::PartitionOptions popts;
      popts.schedule = symbolic::ScheduleKind::kEarly;
      popts.par_jobs = 1;
      ctx->set_partition_options(popts);
    }
    {
      Scope s(rec, "symbolic.partition", op);
      (void)ctx->partition();
    }
    {
      Scope s(rec, "symbolic.saturate", op);
      auto r = ctx->reachability(symbolic::ImageMethod::kSaturation);
      v.markings = r.num_markings;
      v.counters.reached_nodes = static_cast<double>(r.reached_nodes);
    }
    {
      Scope s(rec, "symbolic.deadlock", op);
      typename Backend::Handle dead = ctx->deadlocks(ctx->reached_set());
      v.deadlocks = ctx->count_markings(dead);
    }
    if (v.deadlocks > 0) {
      Scope s(rec, "symbolic.witness", op);
      symbolic::BasicWitnessExtractor<Backend> wx(*ctx, ctx->reached_set());
      v.trace = wx.deadlock_witness();
    }
  }
  v.ms = ms_between(t0, Clock::now());
  v.counters.smc_found = static_cast<double>(smcs.size());
  v.counters.vars = kBdd ? enc.num_vars() : static_cast<double>(net.num_places());
  v.counters.smcs_used = static_cast<double>(enc.smcs.size());
  v.counters.applications =
      static_cast<double>(ctx->partition().saturation_stats().applications);
  read_kernel(v.counters, ctx->manager());
  return v;
}

Verdict run_verdict(const NetCase& c, SpanRecorder& rec, long op) {
  return c.scheme == "zdd" ? verdict<symbolic::ZddBackend>(c, rec, op)
                           : verdict<symbolic::BddBackend>(c, rec, op);
}

/// Expected verdicts for every case, computed in a child process.
std::vector<Expect> compute_references(const std::vector<NetCase>& cases) {
  std::string bytes = run_in_child([&] {
    Pack pack;
    std::map<std::string, Expect> by_spec;  // one oracle run per net
    for (const NetCase& c : cases) {
      Expect e;
      if (c.committed) {
        e = *c.committed;
      } else if (by_spec.count(c.spec)) {
        e = by_spec[c.spec];
      } else {
        petri::ExplicitOptions eo;
        eo.max_markings = kOracleCap;
        petri::ExplicitResult res =
            petri::explicit_reachability(load(c), eo);
        if (!res.complete || !res.safe) {
          throw std::runtime_error("explicit oracle cannot check " + c.label);
        }
        e.markings = static_cast<double>(res.num_markings);
        e.deadlocks = static_cast<double>(res.deadlocks.size());
        by_spec[c.spec] = e;
      }
      pack.put(e.markings);
      pack.put(e.deadlocks);
      pack.put(e.trace_steps);
    }
    return pack.bytes();
  });
  Unpack un(bytes);
  std::vector<Expect> out;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    Expect e;
    e.markings = un.num();
    e.deadlocks = un.num();
    e.trace_steps = un.num();
    out.push_back(e);
  }
  return out;
}

/// Returns "" when the verdict matches, else what disagreed.
std::string check(const NetCase& c, const Verdict& v, const Expect& e) {
  char buf[256];
  if (v.markings != e.markings || v.deadlocks != e.deadlocks) {
    std::snprintf(buf, sizeof buf,
                  "markings %.17g (expected %.17g), deadlocks %.17g "
                  "(expected %.17g)",
                  v.markings, e.markings, v.deadlocks, e.deadlocks);
    return buf;
  }
  if (v.deadlocks == 0) return "";
  if (!v.trace) return "deadlocks exist but no trace was returned";
  petri::Net net = load(c);
  std::string bad = symbolic::validate_trace(net, *v.trace);
  if (!bad.empty()) return "trace does not replay: " + bad;
  if (!net.is_deadlock(v.trace->markings.back())) {
    return "trace does not end in a deadlock";
  }
  if (e.trace_steps >= 0 &&
      static_cast<double>(v.trace->num_steps()) != e.trace_steps) {
    std::snprintf(buf, sizeof buf, "trace has %zu steps (expected %.17g)",
                  v.trace->num_steps(), e.trace_steps);
    return buf;
  }
  return "";
}

}  // namespace

Outcome run_analysis(const Options& opts, SpanRecorder& rec) {
  Outcome out;
  std::vector<NetCase> cases =
      workload_cases(opts, generate_seeded_nets(opts.seed));
  std::vector<Expect> expect = compute_references(cases);
  // Set-up is generating the seeded inputs and checking that every input
  // net parses and validates. It takes milliseconds, so it is repeated
  // before every pass: its median then samples the same machine
  // conditions as the passes.
  std::vector<double> setup_s;
  auto time_setup = [&] {
    Clock::time_point t0 = Clock::now();
    std::vector<NetCase> fresh =
        workload_cases(opts, generate_seeded_nets(opts.seed));
    for (const NetCase& c : fresh) (void)load(c);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    for (std::size_t k = 0; k < cases.size(); ++k) {
      if (fresh[k].spec != cases[k].spec) {
        throw std::runtime_error("seeded inputs differ between set-ups");
      }
    }
  };

  const std::size_t n = cases.size();
  std::vector<std::string> entries;
  std::vector<std::size_t> entry_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto it = std::find(entries.begin(), entries.end(), cases[i].entry);
    entry_of[i] = static_cast<std::size_t>(it - entries.begin());
    if (it == entries.end()) entries.push_back(cases[i].entry);
  }
  // Per entry, one time per pass: the sum of its nets' verdict times.
  std::vector<std::vector<double>> plain_ms(entries.size());
  std::vector<std::vector<double>> traced_ms(entries.size());
  std::vector<std::vector<double>> case_traced_ms(n);
  std::vector<std::optional<Counters>> counters(n);
  // Traced runs alternate untraced and traced passes (for the overhead).
  const int min_passes = opts.trace ? 4 : 3;
  Clock::time_point start = Clock::now();
  for (int pass = 0;
       pass < min_passes || ms_between(start, Clock::now()) < opts.seconds * 1000.0;
       ++pass) {
    for (int k = 0; k < kSetupRepsPerPass; ++k) time_setup();
    bool traced = opts.trace && pass % 2 == 1;
    rec.set_enabled(traced);
    std::vector<double> pass_ms(entries.size(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      ++out.attempted;
      Verdict v;
      try {
        v = run_verdict(cases[i], rec, pass * kOpStride + static_cast<long>(i));
      } catch (const std::exception& e) {
        ++out.failed;
        std::printf("FAIL %s pass %d: %s\n", cases[i].label.c_str(), pass,
                    e.what());
        continue;
      }
      std::string bad = check(cases[i], v, expect[i]);
      if (!bad.empty()) {
        ++out.failed;
        std::printf("FAIL %s pass %d: %s\n", cases[i].label.c_str(), pass,
                    bad.c_str());
      }
      if (!counters[i]) {
        counters[i] = v.counters;
      } else if (!(*counters[i] == v.counters)) {
        out.bench_ok = false;
        std::printf("BENCH ERROR %s pass %d: deterministic counters changed\n",
                    cases[i].label.c_str(), pass);
      }
      pass_ms[entry_of[i]] += v.ms;
      if (traced) case_traced_ms[i].push_back(v.ms);
    }
    for (std::size_t e = 0; e < entries.size(); ++e) {
      (traced ? traced_ms : plain_ms)[e].push_back(pass_ms[e]);
    }
  }
  rec.set_enabled(false);

  std::vector<double> entry_ms, all_ms;
  for (std::size_t e = 0; e < entries.size(); ++e) {
    entry_ms.push_back(median(plain_ms[e]));
    all_ms.insert(all_ms.end(), plain_ms[e].begin(), plain_ms[e].end());
  }
  if (!opts.trace) {
    for (std::size_t e = 0; e < entries.size(); ++e) {
      std::printf("%-22s median %10.2f ms over %zu passes\n",
                  entries[e].c_str(), entry_ms[e], plain_ms[e].size());
    }
    double busy_s = sum(all_ms) / 1000.0;
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"verdict_s", sum(entry_ms) / 1000.0, "s"},
        {"verdict_ms_geomean", geomean(entry_ms), "ms"},
        {"request_p50_ms", percentile(all_ms, 50), "ms"},
        {"request_p99_ms", percentile(all_ms, 99), "ms"},
        {"requests_per_s", static_cast<double>(all_ms.size()) / busy_s, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    return out;
  }

  // Traced run: per (net, layer) median self time over the traced passes,
  // then summed over nets.
  const char* layers[] = {"petri.load", "smc.find", "encoding.cover",
                          "symbolic.context", "symbolic.partition",
                          "symbolic.saturate", "symbolic.deadlock",
                          "symbolic.witness"};
  const std::vector<Span>& spans = rec.spans();
  std::vector<double> self = self_times(spans);
  // layer -> net -> pass -> self ms
  std::map<std::string, std::map<std::size_t, std::map<long, double>>> by;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    std::size_t net = static_cast<std::size_t>(spans[k].op % kOpStride);
    by[spans[k].name][net][spans[k].op / kOpStride] += self[k];
  }
  auto layer_ms = [&](const std::string& layer, std::size_t net) {
    std::vector<double> xs;
    for (auto& [pass, ms] : by[layer][net]) xs.push_back(ms);
    return xs.empty() ? 0.0 : median(xs);
  };
  std::map<std::string, double> metric;
  for (const char* layer : layers) {
    for (std::size_t i = 0; i < n; ++i) metric[layer] += layer_ms(layer, i);
  }
  Counters total;
  for (std::size_t i = 0; i < n; ++i) {
    if (!counters[i]) continue;  // every pass failed; reported above
    const Counters& c = *counters[i];
    total.smc_found += c.smc_found;
    total.vars += c.vars;
    total.smcs_used += c.smcs_used;
    total.applications += c.applications;
    total.peak_nodes += c.peak_nodes;
    total.reached_nodes += c.reached_nodes;
    total.cache_lookups += c.cache_lookups;
    total.cache_hits += c.cache_hits;
    total.gc_runs += c.gc_runs;
    total.reorder_runs += c.reorder_runs;
  }

  std::printf("%-22s %8s %10s %12s %12s %12s %10s\n", "net/scheme", "vars",
              "encode ms", "ctx+part ms", "saturate ms", "verdict ms",
              "peak nodes");
  double traced_total = 0.0;
  for (const auto& ms : traced_ms) traced_total += median(ms);
  for (std::size_t i = 0; i < n; ++i) {
    if (!counters[i] || case_traced_ms[i].empty()) continue;
    std::printf("%-22s %8.0f %10.2f %12.2f %12.2f %12.2f %10.0f\n",
                cases[i].label.c_str(), counters[i]->vars,
                layer_ms("smc.find", i) + layer_ms("encoding.cover", i),
                layer_ms("symbolic.context", i) +
                    layer_ms("symbolic.partition", i),
                layer_ms("symbolic.saturate", i), median(case_traced_ms[i]),
                counters[i]->peak_nodes);
  }

  out.metrics = {
      {"petri.load_ms", metric["petri.load"], "ms"},
      {"smc.find_ms", metric["smc.find"], "ms"},
      {"smc.found", total.smc_found, "count"},
      {"encoding.cover_ms", metric["encoding.cover"], "ms"},
      {"encoding.vars", total.vars, "count"},
      {"encoding.smcs_used_ratio",
       total.smc_found > 0 ? total.smcs_used / total.smc_found : 0.0, "ratio"},
      {"symbolic.context_ms", metric["symbolic.context"], "ms"},
      {"symbolic.partition_ms", metric["symbolic.partition"], "ms"},
      {"symbolic.saturate_ms", metric["symbolic.saturate"], "ms"},
      {"symbolic.applications", total.applications, "count"},
      {"symbolic.deadlock_ms", metric["symbolic.deadlock"], "ms"},
      {"symbolic.witness_ms", metric["symbolic.witness"], "ms"},
      {"dd.peak_nodes", total.peak_nodes, "count"},
      {"dd.reached_nodes", total.reached_nodes, "count"},
      {"dd.cache_lookups", total.cache_lookups, "count"},
      {"dd.cache_hit_ratio", total.cache_hits / total.cache_lookups, "ratio"},
      {"dd.gc_runs", total.gc_runs, "count"},
      {"dd.reorder_runs", total.reorder_runs, "count"},
      {"trace.overhead_frac", traced_total / sum(entry_ms) - 1.0, "ratio"},
  };
  return out;
}

}  // namespace e2e
