// The serve workload: one client in a closed loop, sending a seeded script
// of protocol lines to server::AnalysisServer::handle_line and waiting for
// each reply. Traversal happens only in set-up (the cold opens); the timed
// loop exercises the query, witness, backward-fixpoint and snapshot-read
// paths. Every reply is compared with the same question answered on the
// other backend, computed in a child process before set-up.

#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "encoding/encoding.hpp"
#include "petri/net_spec.hpp"
#include "query/query.hpp"
#include "query/query_report.hpp"
#include "script.hpp"
#include "server/server.hpp"
#include "stats.hpp"
#include "symbolic/symbolic.hpp"
#include "symbolic/zdd_context.hpp"

namespace e2e {
namespace {

using namespace pnenc;

struct SessionSpec {
  const char* net;
  const char* backend;
};
/// Five BDD sessions and one ZDD session: more nets than the default cache
/// of 4 holds, so some opens hit the cache and others reload a snapshot.
const SessionSpec kSessions[] = {{"phil-8", "bdd"},   {"slot-6", "bdd"},
                                 {"dme-6", "bdd"},    {"muller-10", "bdd"},
                                 {"reg-8", "bdd"},    {"dme-10", "zdd"}};
constexpr std::size_t kScriptRequests = 8000;
constexpr std::size_t kPoolPerSession = 64;
constexpr int kSetupReps = 7;
constexpr int kReferenceJobs = 4;
/// Traced runs alternate blocks of this many requests traced and untraced.
constexpr std::size_t kTraceBlock = 50;

struct SessionRef {
  /// The open reply up to and including "source=".
  std::string open_prefix;
  /// Expected reply per pool query, and its trace length (0 if untraced).
  std::vector<std::string> answers;
  std::vector<double> trace_steps;
};

std::string fmt_count(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Answers `pool` on `ctx` through the query engine and renders the lines
/// exactly as the server does.
template <class Backend>
void answer_pool(typename Backend::Context& ctx, const petri::Net& net,
                 const std::vector<std::string>& pool, Pack& pack) {
  // One sharded batch: the reference runs before set-up, so its threads
  // never overlap a measurement.
  std::vector<query::Query> all;
  for (const std::string& line : pool) {
    std::vector<query::Query> qs = query::parse_queries(line);
    if (qs.size() != 1) throw std::runtime_error("bad pool query '" + line + "'");
    all.push_back(qs[0]);
  }
  query::QueryEngineOptions qopts;
  qopts.jobs = kReferenceJobs;
  query::BasicQueryEngine<Backend> engine(ctx, qopts);
  std::vector<query::QueryResult> res = engine.run(all);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const query::QueryResult& r = res[i];
    if (r.has_trace) {
      std::string bad = symbolic::validate_trace(net, r.trace);
      if (!bad.empty()) throw std::runtime_error("reference trace for '" + pool[i] + "': " + bad);
    }
    std::ostringstream os;
    query::print_results(os, net, {all[i]}, {r});
    pack.put(os.str());
    pack.put(r.has_trace ? static_cast<double>(r.trace.num_steps()) : 0.0);
  }
}

std::vector<SessionRef> compute_references(const ServeScript& script) {
  std::string bytes = run_in_child([&] {
    Pack pack;
    for (std::size_t s = 0; s < std::size(kSessions); ++s) {
      std::string spec = std::string("builtin:") + kSessions[s].net;
      petri::Net net = petri::load_net_spec(spec);
      double markings = 0.0;
      Pack answers;
      if (std::string(kSessions[s].backend) == "bdd") {
        symbolic::ZddContext ctx(net);
        answer_pool<symbolic::ZddBackend>(ctx, net, script.pool[s], answers);
        markings = ctx.count_markings(ctx.reached_set());
      } else {
        encoding::MarkingEncoding enc = encoding::build_encoding(net, "improved");
        symbolic::SymbolicOptions sopts;
        sopts.with_next_vars = true;
        sopts.auto_reorder_threshold = 200000;
        symbolic::SymbolicContext ctx(net, enc, sopts);
        answer_pool<symbolic::BddBackend>(ctx, net, script.pool[s], answers);
        markings = ctx.count_markings(ctx.reached_set());
      }
      pack.put("ok open " + spec + " backend=" + kSessions[s].backend +
               " places=" + std::to_string(net.num_places()) +
               " transitions=" + std::to_string(net.num_transitions()) +
               " markings=" + fmt_count(markings) + " source=");
      pack.put(answers.bytes());
    }
    return pack.bytes();
  });
  Unpack un(bytes);
  std::vector<SessionRef> refs(std::size(kSessions));
  for (std::size_t s = 0; s < refs.size(); ++s) {
    refs[s].open_prefix = un.str();
    Unpack answers(un.str());
    while (!answers.done()) {
      refs[s].answers.push_back(answers.str());
      refs[s].trace_steps.push_back(answers.num());
    }
  }
  return refs;
}

/// Which open path served a reply: "cache", "snapshot", "traversal", or
/// "" when the reply does not match the reference.
std::string open_source(const std::string& reply, const std::string& prefix) {
  if (reply.rfind(prefix, 0) != 0 || reply.empty() || reply.back() != '\n') {
    return "";
  }
  return reply.substr(prefix.size(), reply.size() - prefix.size() - 1);
}

const char* span_name(RequestKind k) {
  switch (k) {
    case RequestKind::kOpen: return "server.open";
    case RequestKind::kReach: return "query.reach";
    case RequestKind::kCtl: return "query.ctl";
    case RequestKind::kDeadlockLive: return "query.deadlock_live";
    case RequestKind::kTraced: return "query.traced";
  }
  return "?";
}

double median_or_zero(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : median(xs);
}

}  // namespace

Outcome run_serve(const Options& opts, SpanRecorder& rec) {
  using Scope = SpanRecorder::Scope;
  namespace fs = std::filesystem;
  Outcome out;

  std::vector<SessionInfo> infos;
  for (const SessionSpec& s : kSessions) {
    SessionInfo info;
    info.spec = std::string("builtin:") + s.net;
    info.backend = s.backend;
    petri::Net net = petri::load_net_spec(info.spec);
    for (std::size_t p = 0; p < net.num_places(); ++p) {
      info.places.push_back(net.place_name(static_cast<int>(p)));
    }
    for (std::size_t t = 0; t < net.num_transitions(); ++t) {
      info.transitions.push_back(net.transition_name(static_cast<int>(t)));
    }
    infos.push_back(std::move(info));
  }
  ServeScript script =
      make_script(infos, opts.seed, kScriptRequests, kPoolPerSession);
  std::vector<SessionRef> refs = compute_references(script);

  // Set-up: server construction plus a cold open of every session (a
  // traversal and a snapshot write each), into a fresh snapshot directory.
  // Repeated for a steady median; the last server serves the timed loop.
  rec.set_enabled(opts.trace);
  std::istringstream no_input;
  std::ostringstream reply;
  std::unique_ptr<server::AnalysisServer> srv;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> cold_ms(infos.size());
  long op = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    srv.reset();
    server::ServerOptions sopts;
    sopts.snapshot_dir = opts.work_dir + "/snapshots-" + std::to_string(rep);
    fs::remove_all(sopts.snapshot_dir);
    fs::create_directories(sopts.snapshot_dir);
    Clock::time_point t0 = Clock::now();
    srv = std::make_unique<server::AnalysisServer>(no_input, reply, sopts);
    for (std::size_t s = 0; s < infos.size(); ++s) {
      reply.str("");
      Clock::time_point ts = Clock::now();
      {
        Scope span(rec, "server.open_traversal", op++);
        srv->handle_line("open " + infos[s].spec + " " + infos[s].backend);
      }
      cold_ms[s].push_back(ms_between(ts, Clock::now()));
      ++out.attempted;
      if (open_source(reply.str(), refs[s].open_prefix) != "traversal") {
        ++out.failed;
        std::printf("FAIL set-up open %s: %s", infos[s].spec.c_str(),
                    reply.str().c_str());
      }
    }
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }

  // Timed loop: the script, cycled until the time is up.
  std::vector<double> latency_ms;
  std::vector<double> traced_lat, plain_lat;
  std::map<std::string, std::vector<double>> by_kind;
  std::size_t opens = 0, cache_opens = 0;
  Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < kScriptRequests ||
       ms_between(start, Clock::now()) < opts.seconds * 1000.0;
       ++i) {
    const Request& req = script.requests[i % script.requests.size()];
    bool traced = opts.trace && (i / kTraceBlock) % 2 == 1;
    rec.set_enabled(traced);
    reply.str("");
    Clock::time_point t0 = Clock::now();
    {
      Scope span(rec, span_name(req.kind), op++);
      srv->handle_line(req.line);
    }
    double ms = ms_between(t0, Clock::now());
    latency_ms.push_back(ms);
    (traced ? traced_lat : plain_lat).push_back(ms);

    ++out.attempted;
    const SessionRef& ref = refs[static_cast<std::size_t>(req.session)];
    std::string bucket = span_name(req.kind);
    bool ok = true;
    if (req.kind == RequestKind::kOpen) {
      std::string source = open_source(reply.str(), ref.open_prefix);
      ok = source == "cache" || source == "snapshot" || source == "traversal";
      bucket = "server.open_" + source;
      ++opens;
      if (source == "cache") ++cache_opens;
    } else {
      ok = reply.str() == ref.answers[static_cast<std::size_t>(req.pool_index)];
    }
    if (!ok) {
      ++out.failed;
      std::printf("FAIL request %zu '%s': got\n%s", i, req.line.c_str(),
                  reply.str().c_str());
      continue;
    }
    if (traced) by_kind[bucket].push_back(ms);
  }
  rec.set_enabled(false);

  std::vector<double> cold;
  for (const auto& ms : cold_ms) cold.push_back(median(ms));
  if (!opts.trace) {
    double busy_s = sum(latency_ms) / 1000.0;
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"verdict_s", sum(cold) / 1000.0, "s"},
        {"verdict_ms_geomean", geomean(cold), "ms"},
        {"request_p50_ms", percentile(latency_ms, 50), "ms"},
        {"request_p99_ms", percentile(latency_ms, 99), "ms"},
        {"requests_per_s", static_cast<double>(latency_ms.size()) / busy_s, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
    std::printf("serve: %zu requests, %zu beyond p99\n", latency_ms.size(),
                samples_beyond(latency_ms, 99));
    return out;
  }

  double script_steps = 0.0;
  for (const Request& req : script.requests) {
    if (req.kind == RequestKind::kTraced) {
      script_steps += refs[static_cast<std::size_t>(req.session)]
                          .trace_steps[static_cast<std::size_t>(req.pool_index)];
    }
  }
  auto mean = [](const std::vector<double>& xs) {
    return sum(xs) / static_cast<double>(xs.size());
  };
  out.metrics = {
      {"query.reach_ms", median_or_zero(by_kind["query.reach"]), "ms"},
      {"query.ctl_ms", median_or_zero(by_kind["query.ctl"]), "ms"},
      {"query.deadlock_live_ms", median_or_zero(by_kind["query.deadlock_live"]), "ms"},
      {"query.traced_ms", median_or_zero(by_kind["query.traced"]), "ms"},
      {"query.trace_steps", script_steps, "count"},
      {"server.open_cache_ms", median_or_zero(by_kind["server.open_cache"]), "ms"},
      {"server.open_snapshot_ms", median_or_zero(by_kind["server.open_snapshot"]), "ms"},
      {"server.open_traversal_ms", median(cold), "ms"},
      {"server.cache_hit_ratio",
       opens > 0 ? static_cast<double>(cache_opens) / static_cast<double>(opens) : 0.0,
       "ratio"},
      {"trace.overhead_frac", mean(traced_lat) / mean(plain_lat) - 1.0, "ratio"},
  };
  return out;
}

}  // namespace e2e
