// Unit tests of the benchmark's own arithmetic: span self times, the
// spawn-tree generator's reference count, quartiles and the result line.
#include <gtest/gtest.h>

#include <functional>

#include "report.hpp"
#include "spans.hpp"
#include "spawn_tree.hpp"

namespace perfbench {
namespace {

std::int64_t g_now = 0;
std::int64_t fake_clock() { return g_now; }

TEST(Spans, SelfTimeIsDurationMinusCoveredChildren) {
  g_now = 0;
  SpanRecorder rec(2, 100, &fake_clock);
  // rank 0: process [0,100) > task [10,60) > hash [20,30), add [35,55);
  //         task [70,90) with no children.
  rec.open(0, SpanName::Process);
  g_now = 10;
  rec.open(0, SpanName::Task);
  g_now = 20;
  rec.open(0, SpanName::Hash);
  g_now = 30;
  rec.close(0);
  g_now = 35;
  rec.open(0, SpanName::Add);
  g_now = 55;
  rec.close(0);
  g_now = 60;
  rec.close(0);
  g_now = 70;
  rec.open(0, SpanName::Task);
  g_now = 90;
  rec.close(0);
  // rank 1 interleaves in time but nests only within itself.
  g_now = 40;
  rec.open(1, SpanName::Process);
  g_now = 95;
  rec.close(1);
  g_now = 100;
  EXPECT_EQ(rec.close(0), 100);

  const SpanTotals proc = rec.totals(SpanName::Process);
  EXPECT_EQ(proc.count, 2u);
  EXPECT_EQ(proc.total_ns, 100 + 55);
  EXPECT_EQ(proc.self_ns, (100 - 50 - 20) + 55);
  const SpanTotals task = rec.totals(SpanName::Task);
  EXPECT_EQ(task.count, 2u);
  EXPECT_EQ(task.total_ns, 70);
  EXPECT_EQ(task.self_ns, (50 - 10 - 20) + 20);
  EXPECT_EQ(rec.totals(SpanName::Hash).self_ns, 10);
  EXPECT_EQ(rec.totals(SpanName::Add).self_ns, 20);
  EXPECT_EQ(rec.last_end(0, SpanName::Task), 90);
  EXPECT_EQ(rec.last_end(1, SpanName::Process), 95);

  rec.reset_totals();
  EXPECT_EQ(rec.totals(SpanName::Process).count, 0u);
  EXPECT_EQ(rec.records_kept(), 6u);
}

TEST(Spans, RecordCapCountsDropsButKeepsTotalsExact) {
  g_now = 0;
  SpanRecorder rec(1, 2, &fake_clock);
  for (int i = 0; i < 5; ++i) {
    rec.open(0, SpanName::Task);
    g_now += 3;
    rec.close(0);
  }
  EXPECT_EQ(rec.records_kept(), 2u);
  EXPECT_EQ(rec.records_dropped(), 3u);
  EXPECT_EQ(rec.totals(SpanName::Task).total_ns, 15);
}

TEST(Spans, CloseWithoutOpenThrows) {
  SpanRecorder rec(1, 4, &fake_clock);
  EXPECT_THROW(rec.close(0), std::logic_error);
}

std::uint64_t count_recursive(const SpawnNode& n, const SpawnParams& p) {
  std::uint64_t c = 1;
  const int nc = spawn_num_children(n, p);
  for (int i = 0; i < nc; ++i) c += count_recursive(spawn_child(n, i), p);
  return c;
}

TEST(SpawnTree, WalkMatchesRecursiveCount) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SpawnParams p;
    p.seed = seed;
    p.root_fanout = 5;
    p.m = 3;
    p.q = 0.3;
    EXPECT_EQ(spawn_count(p), count_recursive(spawn_root(p), p)) << seed;
  }
}

TEST(SpawnTree, RootBurstAndSeedDependence) {
  SpawnParams p;
  p.root_fanout = 4;
  p.q = 0.0;  // no node below the root has children
  EXPECT_EQ(spawn_count(p), 1u + 4u);

  SpawnParams a, b;
  a.root_fanout = b.root_fanout = 256;
  a.seed = 1;
  b.seed = 2;
  EXPECT_EQ(spawn_count(a), spawn_count(a));
  EXPECT_NE(spawn_count(a), spawn_count(b));
}

TEST(Summary, MatchesPythonExclusiveQuartiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Summary s = summarize({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(s.q1, 2.75);
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.q3, 8.25);
  EXPECT_EQ(s.n, 10u);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Summary two = summarize({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
}

TEST(Result, FailedRepetitionsAreCountedNotDropped) {
  Result r;
  r.check(true);
  r.check(false);
  r.add("x", 1.5, "s");
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(result_json(r),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, "
            "\"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
