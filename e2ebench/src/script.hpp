#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/// splitmix64: a tiny generator whose output is fixed by the seed on every
/// platform and standard library (std:: distributions are not).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n), n > 0.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  /// True with probability num/den.
  bool chance(std::uint64_t num, std::uint64_t den) { return next() % den < num; }

 private:
  std::uint64_t state_;
};

/// What one serve session looks like to the script generator.
struct SessionInfo {
  std::string spec;     // builtin:NAME
  std::string backend;  // bdd | zdd
  std::vector<std::string> places;
  std::vector<std::string> transitions;
};

/// Which per-layer bucket a request's latency belongs to.
enum class RequestKind { kOpen, kReach, kCtl, kDeadlockLive, kTraced };

struct Request {
  std::string line;  // the exact protocol line sent to handle_line
  int session = 0;   // session the request addresses (the opened one for open)
  int pool_index = -1;  // index into ServeScript::pool[session]; -1 for open
  RequestKind kind = RequestKind::kReach;
};

/// A seeded closed-loop request script over a fixed set of sessions.
struct ServeScript {
  /// Distinct query lines per session (without the "query " prefix); the
  /// script samples from these, so reference answers are bounded.
  std::vector<std::vector<std::string>> pool;
  std::vector<Request> requests;
};

/// Builds the script: `pool_per_session` queries per session over all
/// kinds (reach/ex/ef/ag/eg/af/deadlock/live equally often, a quarter of
/// them traced) with seeded predicates, then `num_requests` requests:
/// every tenth an `open` of another session (each session equally often,
/// in seeded order), the rest seeded picks from the current session's
/// pool. The first request opens a session. A pure function of its
/// arguments.
[[nodiscard]] ServeScript make_script(const std::vector<SessionInfo>& sessions,
                                      std::uint64_t seed,
                                      std::size_t num_requests,
                                      std::size_t pool_per_session);

/// Bucket of a query line (without the "query " prefix).
[[nodiscard]] RequestKind classify_query(const std::string& query_line);

}  // namespace e2e
