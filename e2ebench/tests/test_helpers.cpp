// Self-tests for the benchmark's own helpers: percentiles and geomean,
// self time from nested spans, and the seeded serve script.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "script.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace e2e {
namespace {

TEST(Stats, PercentileInterpolatesBetweenOrderStatistics) {
  std::vector<double> xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 50), 1.5);
  EXPECT_DOUBLE_EQ(percentile({10, 20, 30, 40}, 90), 37);
  EXPECT_DOUBLE_EQ(median({7}), 7);
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
}

TEST(Stats, TailPercentileCountsSamplesBeyondIt) {
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) xs.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(xs, 99), 990.01);
  EXPECT_EQ(samples_beyond(xs, 99), 10u);
}

TEST(Stats, GeomeanOfPositiveValues) {
  EXPECT_DOUBLE_EQ(geomean({4, 9}), 6);
  EXPECT_NEAR(geomean({1, 10, 100}), 10, 1e-12);
  EXPECT_DOUBLE_EQ(geomean({3}), 3);
  EXPECT_THROW(geomean({1, 0}), std::invalid_argument);
  EXPECT_THROW(geomean({}), std::invalid_argument);
}

Span make(double start, double end, int parent) {
  Span s;
  s.name = "x";
  s.start_ms = start;
  s.end_ms = end;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  // 0: [0,100] has children 1: [10,40] and 2: [50,60]; 1 has child 3:
  // [20,30], which must not be subtracted from 0 a second time.
  std::vector<Span> spans = {make(0, 100, -1), make(10, 40, 0),
                             make(50, 60, 0), make(20, 30, 1)};
  std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 60);
  EXPECT_DOUBLE_EQ(self[1], 20);
  EXPECT_DOUBLE_EQ(self[2], 10);
  EXPECT_DOUBLE_EQ(self[3], 10);
}

TEST(Spans, OverlappingChildrenAreCountedOnce) {
  std::vector<Span> spans = {make(0, 100, -1), make(10, 50, 0),
                             make(30, 70, 0), make(90, 120, 0)};
  // Children cover [10,70] and [90,100] of the parent: 70 ms.
  EXPECT_DOUBLE_EQ(self_times(spans)[0], 30);
}

TEST(Spans, RecorderNestsScopesAndRecordsNothingWhenDisabled) {
  SpanRecorder off(false);
  { SpanRecorder::Scope a(off, "a", 1); }
  EXPECT_TRUE(off.spans().empty());

  SpanRecorder on(true);
  {
    SpanRecorder::Scope a(on, "a", 7);
    { SpanRecorder::Scope b(on, "b", 7); }
    SpanRecorder::Scope c(on, "c", 7);
  }
  ASSERT_EQ(on.spans().size(), 3u);
  EXPECT_EQ(on.spans()[0].parent, -1);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_EQ(on.spans()[2].parent, 0);
  EXPECT_EQ(on.spans()[2].name, "c");
  EXPECT_EQ(on.spans()[1].op, 7);
  for (const Span& s : on.spans()) EXPECT_LE(s.start_ms, s.end_ms);
}

std::vector<SessionInfo> sessions() {
  return {{"builtin:a", "bdd", {"p0", "p1", "p2"}, {"t0", "t1"}},
          {"builtin:b", "zdd", {"q0", "q1"}, {"u0"}},
          {"builtin:c", "bdd", {"r0", "r1", "r2", "r3"}, {"v0", "v1"}}};
}

std::vector<std::string> lines(const ServeScript& s) {
  std::vector<std::string> out;
  for (const Request& r : s.requests) out.push_back(r.line);
  return out;
}

TEST(Script, SameSeedGivesSameScript) {
  ServeScript a = make_script(sessions(), 42, 500, 16);
  ServeScript b = make_script(sessions(), 42, 500, 16);
  EXPECT_EQ(a.pool, b.pool);
  EXPECT_EQ(lines(a), lines(b));
}

TEST(Script, DifferentSeedGivesDifferentScript) {
  EXPECT_NE(lines(make_script(sessions(), 42, 500, 16)),
            lines(make_script(sessions(), 43, 500, 16)));
}

TEST(Script, FixedMixOfOpensAndQueryKinds) {
  ServeScript s = make_script(sessions(), 7, 3000, 32);
  ASSERT_EQ(s.requests.size(), 3000u);
  EXPECT_EQ(s.requests[0].kind, RequestKind::kOpen);
  std::vector<int> opened(3, 0);
  std::size_t traced = 0, queries = 0;
  int current = -1;
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    const Request& r = s.requests[i];
    EXPECT_EQ(r.kind == RequestKind::kOpen, i % 10 == 0);
    if (r.kind == RequestKind::kOpen) {
      EXPECT_NE(r.session, current);  // an open always switches session
      current = r.session;
      ++opened[static_cast<std::size_t>(r.session)];
      continue;
    }
    ++queries;
    EXPECT_EQ(r.session, current);
    EXPECT_EQ(r.line, "query " + s.pool[r.session][r.pool_index]);
    EXPECT_EQ(r.kind, classify_query(s.pool[r.session][r.pool_index]));
    if (r.kind == RequestKind::kTraced) ++traced;
  }
  EXPECT_EQ(opened, (std::vector<int>{100, 100, 100}));
  EXPECT_NEAR(static_cast<double>(traced) / static_cast<double>(queries), 0.25,
              0.05);
  // The pool itself: each kind equally often, exactly a quarter traced.
  for (const auto& pool : s.pool) {
    std::size_t pool_traced = 0, deadlocks = 0;
    for (const std::string& q : pool) {
      pool_traced += q.rfind("trace ", 0) == 0;
      deadlocks += q == "deadlock" || q == "trace deadlock";
    }
    EXPECT_EQ(pool_traced, 8u);
    EXPECT_EQ(deadlocks, 4u);
  }
}

TEST(Script, ClassifiesQueryKinds) {
  EXPECT_EQ(classify_query("reach p & q"), RequestKind::kReach);
  EXPECT_EQ(classify_query("eg !p"), RequestKind::kCtl);
  EXPECT_EQ(classify_query("deadlock"), RequestKind::kDeadlockLive);
  EXPECT_EQ(classify_query("live t3"), RequestKind::kDeadlockLive);
  EXPECT_EQ(classify_query("trace ef p"), RequestKind::kTraced);
}

}  // namespace
}  // namespace e2e
