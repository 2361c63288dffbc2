// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Unit tests of the benchmark's own arithmetic: the percentile rank rule,
// the pacing schedule, span self time, and the match digest.

#include "perfbench/bench_lib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace cepshed::perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // NearestRank must sort
  return v;
}

TEST(PercentileTest, NearestRankPicksCeilOfQTimesN) {
  std::vector<double> v = OneTo(1000);
  const Percentile p50 = NearestRank(&v, 0.50);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.beyond, 500u);
  EXPECT_EQ(p50.samples, 1000u);
  const Percentile p99 = NearestRank(&v, 0.99);
  EXPECT_EQ(p99.value, 990.0);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported);

  std::vector<double> odd = OneTo(5);
  EXPECT_EQ(NearestRank(&odd, 0.5).value, 3.0);  // ceil(2.5) = 3
  EXPECT_EQ(NearestRank(&odd, 1.0).value, 5.0);
  EXPECT_EQ(NearestRank(&odd, 1.0).beyond, 0u);
  EXPECT_EQ(NearestRank(&odd, 0.01).value, 1.0);
}

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  // 999 samples: rank ceil(989.01) = 990 leaves only 9 beyond.
  std::vector<double> v = OneTo(999);
  const Percentile p99 = NearestRank(&v, 0.99);
  EXPECT_EQ(p99.beyond, 9u);
  EXPECT_FALSE(p99.supported);
  std::vector<double> w = OneTo(1100);
  EXPECT_TRUE(NearestRank(&w, 0.99).supported);
  std::vector<double> few = OneTo(50);
  EXPECT_FALSE(NearestRank(&few, 0.99).supported);
  EXPECT_TRUE(NearestRank(&few, 0.50).supported);
}

TEST(PercentileTest, EmptySampleIsUnsupported) {
  std::vector<double> none;
  const Percentile p = NearestRank(&none, 0.5);
  EXPECT_EQ(p.samples, 0u);
  EXPECT_FALSE(p.supported);
}

TEST(PercentileTest, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(PacingTest, DueTimesFollowTheRate) {
  const PacingSchedule s(1.0e6);  // 1 event per microsecond
  EXPECT_EQ(s.DueNs(0), 0);
  EXPECT_EQ(s.DueNs(1), 1000);
  EXPECT_EQ(s.DueNs(1000000), 1000000000);
  const PacingSchedule slow(40000.0);  // 25 us apart
  EXPECT_EQ(slow.DueNs(4), 100000);
  EXPECT_EQ(slow.DueNs(40000), 1000000000);
  for (uint64_t seq = 1; seq < 5000; ++seq) {
    EXPECT_GT(slow.DueNs(seq), slow.DueNs(seq - 1));
  }
}

TEST(PacingTest, LatenessCountsOnlyTheGeneratorRunningBehind) {
  const PacingSchedule s(1.0e5);  // 10 us apart
  EXPECT_EQ(s.LatenessNs(3, 25000), 0);      // early: due at 30 us
  EXPECT_EQ(s.LatenessNs(3, 30000), 0);      // on time
  EXPECT_EQ(s.LatenessNs(3, 42000), 12000);  // 12 us late
}

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  // Parent [0, 100); children [10,20) and [15,30) overlap -> 20 covered;
  // [50,60) adds 10.
  std::vector<std::pair<int64_t, int64_t>> kids = {{50, 60}, {10, 20}, {15, 30}};
  EXPECT_EQ(SelfTimeNs(0, 100, &kids), 70);
}

TEST(SpanTest, SelfTimeClipsChildrenToTheParent) {
  std::vector<std::pair<int64_t, int64_t>> kids = {{-20, 10}, {90, 150}, {200, 300}};
  EXPECT_EQ(SelfTimeNs(0, 100, &kids), 80);
  std::vector<std::pair<int64_t, int64_t>> none;
  EXPECT_EQ(SelfTimeNs(5, 9, &none), 4);
  std::vector<std::pair<int64_t, int64_t>> all = {{0, 60}, {40, 100}};
  EXPECT_EQ(SelfTimeNs(0, 100, &all), 0);
  std::vector<std::pair<int64_t, int64_t>> touching = {{0, 10}, {10, 20}};
  EXPECT_EQ(SelfTimeNs(0, 30, &touching), 10);
}

TEST(SpanTest, SelfTimesUseParentLinks) {
  // pass [0,100) -> parse [0,30), run [30,100); run -> two parallel
  // process spans [40,70) and [50,90) from different shards.
  std::vector<Span> spans = {
      {0, 100, -1, -1, SpanName::kPass},
      {0, 30, -1, 0, SpanName::kParseBatch},
      {30, 100, -1, 0, SpanName::kRun},
      {40, 70, 7, 2, SpanName::kProcess},
      {50, 90, 8, 2, SpanName::kProcess},
  };
  const std::vector<int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 0);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 20);  // 70 minus the [40,90) union
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 40);
}

TEST(DigestTest, OrderInsensitive) {
  MatchDigest a;
  a.Add(100, {1, 2, 3});
  a.Add(200, {4, 5, 6});
  a.Add(200, {4, 5, 7});
  MatchDigest b;
  b.Add(200, {4, 5, 7});
  b.Add(100, {1, 2, 3});
  b.Add(200, {4, 5, 6});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(DigestTest, SensitiveToTimestampSeqsAndMultiplicity) {
  MatchDigest base;
  base.Add(100, {1, 2, 3});
  MatchDigest ts;
  ts.Add(101, {1, 2, 3});
  EXPECT_NE(base, ts);
  MatchDigest seqs;
  seqs.Add(100, {1, 2, 4});
  EXPECT_NE(base, seqs);
  MatchDigest swapped;
  swapped.Add(100, {2, 1, 3});  // the binding order is part of a match
  EXPECT_NE(base, swapped);
  MatchDigest shorter;
  shorter.Add(100, {1, 2});
  EXPECT_NE(base, shorter);
  MatchDigest twice;
  twice.Add(100, {1, 2, 3});
  twice.Add(100, {1, 2, 3});
  EXPECT_NE(base, twice);
  // A duplicate cancels in the xor but not in the count or the sum.
  MatchDigest other;
  other.Add(5, {9});
  MatchDigest dup = other;
  dup.Add(100, {1, 2, 3});
  dup.Add(100, {1, 2, 3});
  EXPECT_NE(dup, other);
}

}  // namespace
}  // namespace cepshed::perfbench
