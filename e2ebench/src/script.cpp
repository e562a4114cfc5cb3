#include "script.hpp"

#include <stdexcept>
#include <utility>

namespace e2e {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

const char* const kKinds[] = {"reach", "ex", "ef", "ag",
                              "eg", "af", "deadlock", "live"};

/// A predicate of one to three place atoms, each possibly negated, joined
/// by & or |.
std::string predicate(Rng& rng, const std::vector<std::string>& places) {
  std::string out;
  std::size_t atoms = 1 + rng.below(3);
  for (std::size_t i = 0; i < atoms; ++i) {
    if (i > 0) out += rng.chance(1, 2) ? " & " : " | ";
    if (rng.chance(1, 4)) out += "!";
    out += places[rng.below(places.size())];
  }
  return out;
}

}  // namespace

RequestKind classify_query(const std::string& query_line) {
  if (query_line.rfind("trace ", 0) == 0) return RequestKind::kTraced;
  std::string kind = query_line.substr(0, query_line.find(' '));
  if (kind == "reach") return RequestKind::kReach;
  if (kind == "deadlock" || kind == "live") return RequestKind::kDeadlockLive;
  return RequestKind::kCtl;
}

ServeScript make_script(const std::vector<SessionInfo>& sessions,
                        std::uint64_t seed, std::size_t num_requests,
                        std::size_t pool_per_session) {
  if (sessions.size() < 2) {
    throw std::invalid_argument("make_script: need at least two sessions");
  }
  Rng rng(seed);
  ServeScript script;
  for (const SessionInfo& s : sessions) {
    std::vector<std::string> pool;
    for (std::size_t i = 0; i < pool_per_session; ++i) {
      // Every kind equally often, and every fourth round of kinds traced,
      // so the mix is the same for every seed; the predicates vary.
      std::string kind = kKinds[i % 8];
      std::string line = kind;
      if (kind == "live") {
        line += " " + s.transitions[rng.below(s.transitions.size())];
      } else if (kind != "deadlock") {
        line += " " + predicate(rng, s.places);
      }
      if ((i / 8) % 4 == 3) line = "trace " + line;
      pool.push_back(line);
    }
    script.pool.push_back(std::move(pool));
  }

  // Every tenth request opens a session. The opens walk through seeded
  // permutations of all sessions, so each is opened equally often and an
  // open always switches to another session.
  std::vector<int> upcoming;
  int current = -1;
  for (std::size_t r = 0; r < num_requests; ++r) {
    Request req;
    if (r % 10 == 0) {
      if (upcoming.empty()) {
        std::vector<int> perm(sessions.size());
        for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
        for (std::size_t i = perm.size() - 1; i > 0; --i) {
          std::swap(perm[i], perm[rng.below(i + 1)]);
        }
        if (perm[0] == current) std::swap(perm[0], perm[1 + rng.below(perm.size() - 1)]);
        upcoming.assign(perm.rbegin(), perm.rend());  // pop from the back
      }
      current = upcoming.back();
      upcoming.pop_back();
      const SessionInfo& s = sessions[static_cast<std::size_t>(current)];
      req.line = "open " + s.spec + " " + s.backend;
      req.kind = RequestKind::kOpen;
    } else {
      const auto& pool = script.pool[static_cast<std::size_t>(current)];
      req.pool_index = static_cast<int>(rng.below(pool.size()));
      const std::string& q = pool[static_cast<std::size_t>(req.pool_index)];
      req.line = "query " + q;
      req.kind = classify_query(q);
    }
    req.session = current;
    script.requests.push_back(std::move(req));
  }
  return script;
}

}  // namespace e2e
