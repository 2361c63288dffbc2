// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Tests for multi-query processing under a shared latency budget.

#include "src/runtime/multi_query.h"

#include <gtest/gtest.h>

#include "src/shed/controller.h"
#include "src/shed/registry.h"
#include "src/workload/ds1.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace {

class MultiQueryTest : public ::testing::Test {
 protected:
  MultiQueryTest() : schema_(MakeDs1Schema()) {}

  EventStream MakeStream(uint64_t seed, size_t n = 10000) {
    Ds1Options opts;
    opts.num_events = n;
    opts.seed = seed;
    return GenerateDs1(schema_, opts);
  }

  std::vector<WeightedQuery> TwoQueries(double w1 = 1.0, double w2 = 1.0) {
    Query q1 = *queries::Q1("8ms");
    Query q4 = *queries::Q4("8ms");
    return {{q1, w1}, {q4, w2}};
  }

  Schema schema_;
};

TEST_F(MultiQueryTest, RejectsEmptyAndBadWeights) {
  MultiQueryRunner empty(&schema_, {});
  EXPECT_FALSE(empty.Prepare(MakeStream(1, 500)).ok());
  MultiQueryRunner bad(&schema_, {{*queries::Q1("8ms"), 0.0}});
  EXPECT_FALSE(bad.Prepare(MakeStream(1, 500)).ok());
}

TEST_F(MultiQueryTest, ExhaustiveRunMatchesSingleQueryEngines) {
  const EventStream train = MakeStream(71, 6000);
  const EventStream test = MakeStream(72, 6000);
  MultiQueryRunner runner(&schema_, TwoQueries());
  ASSERT_TRUE(runner.Prepare(train).ok());
  auto multi = runner.Run(test, /*theta=*/0.0);
  ASSERT_TRUE(multi.ok());

  // Each query's matches equal an isolated engine's matches.
  for (size_t q = 0; q < 2; ++q) {
    const Query query = q == 0 ? *queries::Q1("8ms") : *queries::Q4("8ms");
    auto nfa = Nfa::Compile(query, &schema_);
    ASSERT_TRUE(nfa.ok());
    Engine engine(*nfa, EngineOptions{});
    std::vector<Match> solo;
    for (const EventPtr& e : test) engine.Process(e, &solo);
    EXPECT_EQ(multi->queries[q].matches.size(), solo.size()) << "query " << q;
  }
}

TEST_F(MultiQueryTest, SharedBudgetReducesTotalLatency) {
  const EventStream train = MakeStream(73, 8000);
  const EventStream test = MakeStream(74, 8000);
  MultiQueryRunner runner(&schema_, TwoQueries());
  ASSERT_TRUE(runner.Prepare(train).ok());
  auto full = runner.Run(test, 0.0);
  ASSERT_TRUE(full.ok());
  const double budget = 0.5 * full->total_avg_latency;
  auto shed = runner.Run(test, budget);
  ASSERT_TRUE(shed.ok());
  EXPECT_LT(shed->total_avg_latency, full->total_avg_latency);
  // Something was actually shed.
  uint64_t total_shed = 0;
  for (const auto& pq : shed->queries) total_shed += pq.shed_pms + pq.dropped_events;
  EXPECT_GT(total_shed, 0u);
}

TEST_F(MultiQueryTest, WeightsShiftTheBudgetBetweenQueries) {
  const EventStream train = MakeStream(75, 8000);
  const EventStream test = MakeStream(76, 8000);

  MultiQueryRunner favored(&schema_, TwoQueries(/*w1=*/8.0, /*w2=*/1.0));
  ASSERT_TRUE(favored.Prepare(train).ok());
  MultiQueryRunner disfavored(&schema_, TwoQueries(/*w1=*/1.0, /*w2=*/8.0));
  ASSERT_TRUE(disfavored.Prepare(train).ok());

  auto full = favored.Run(test, 0.0);
  ASSERT_TRUE(full.ok());
  const double budget = 0.5 * full->total_avg_latency;

  auto q1_favored = favored.Run(test, budget);
  auto q1_disfavored = disfavored.Run(test, budget);
  ASSERT_TRUE(q1_favored.ok());
  ASSERT_TRUE(q1_disfavored.ok());
  // With a larger weight, Q1 keeps more of its matches.
  EXPECT_GE(q1_favored->queries[0].matches.size(),
            q1_disfavored->queries[0].matches.size());
}

TEST_F(MultiQueryTest, BaselineCostsAreExposed) {
  const EventStream train = MakeStream(77, 4000);
  MultiQueryRunner runner(&schema_, TwoQueries());
  ASSERT_TRUE(runner.Prepare(train).ok());
  EXPECT_GT(runner.BaselineCost(0), 0.0);
  EXPECT_GT(runner.BaselineCost(1), 0.0);
}

TEST_F(MultiQueryTest, SingleQueryBoundCountersMatchShedRunner) {
  // Both drivers run the same per-event step, so a one-query run must
  // count bound checks and violations exactly like ShedRunner over the
  // same stream, slice theta and strategy.
  const EventStream train = MakeStream(78, 6000);
  const EventStream test = MakeStream(79, 8000);
  MultiQueryRunner runner(&schema_, {{*queries::Q1("8ms"), 1.0}});
  runner.set_shedder_spec("ri");
  ASSERT_TRUE(runner.Prepare(train).ok());
  const double theta = 0.5 * runner.BaselineCost(0);
  auto multi = runner.Run(test, theta);
  ASSERT_TRUE(multi.ok());
  const PerQueryResult& pq = multi->queries[0];

  // The runner's slice for its only query, computed as it computes it.
  ShedderContext ctx;
  ctx.theta = theta * 1.0 * runner.BaselineCost(0) / (1.0 * runner.BaselineCost(0));
  ctx.seed = HybridOptions{}.seed;
  ctx.hybrid_trigger_delay = HybridOptions{}.trigger_delay;
  auto shedder = ShedderRegistry::Instance().Create("ri", ctx);
  ASSERT_TRUE(shedder.ok());
  auto nfa = Nfa::Compile(*queries::Q1("8ms"), &schema_);
  ASSERT_TRUE(nfa.ok());
  Engine engine(*nfa, EngineOptions{});
  ShedRunner solo(&engine, shedder->get(), LatencyMonitor::Options{});
  const RunResult r = solo.Run(test);

  EXPECT_GT(r.bound_checked, 0u);
  EXPECT_GT(r.bound_violations, 0u);
  EXPECT_EQ(pq.bound_checked, r.bound_checked);
  EXPECT_EQ(pq.bound_violations, r.bound_violations);
  EXPECT_EQ(pq.dropped_events, r.dropped_events);
  EXPECT_EQ(pq.matches.size(), r.matches.size());
  EXPECT_DOUBLE_EQ(pq.avg_latency, r.avg_latency);
}

}  // namespace
}  // namespace cepshed
