// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Tests for the eSPICE-style positional input shedder (related work §VII).

#include "src/shed/positional.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/shed/offline_estimator.h"
#include "src/workload/citibike.h"
#include "src/workload/ds1.h"
#include "src/workload/queries.h"
#include "src/runtime/metrics.h"
#include "src/shed/controller.h"

namespace cepshed {
namespace {

/// Trains `utility` the way ExperimentHarness::Prepare does: from the
/// participating-event set of an offline replay of `history`.
void TrainFromReplay(PositionalUtility* utility, const std::shared_ptr<const Nfa>& nfa,
                     const EventStream& history) {
  auto stats = EstimateOffline(nfa, history, /*num_slices=*/4,
                               /*use_resource_cost=*/true);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(utility->Train(history, *stats).ok());
}

TEST(PositionalUtilityTest, LearnsTypeLevelUtilities) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 8000;
  gen.seed = 61;
  const EventStream history = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());

  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 8, Millis(8));
  TrainFromReplay(&utility, *nfa, history);
  // D never participates in Q1; A does.
  EXPECT_DOUBLE_EQ(utility.Utility(schema.EventTypeId("D"), 0), 0.0);
  double a_any = 0.0;
  for (int b = 0; b < 8; ++b) {
    a_any += utility.Utility(schema.EventTypeId("A"), b * Millis(1));
  }
  EXPECT_GT(a_any, 0.0);
}

TEST(PositionalUtilityTest, CapturesPeriodicStructure) {
  // Citibike rush hours recur cyclically; hot-ending trips concentrate in
  // the rush buckets, so positional utilities must vary across buckets.
  const Schema schema = MakeCitibikeSchema();
  CitibikeOptions gen;
  gen.num_events = 12000;
  gen.seed = 62;
  const EventStream history = GenerateCitibike(schema, gen);
  auto nfa = Nfa::Compile(*queries::CitibikeHotPaths(3, 6), &schema);
  ASSERT_TRUE(nfa.ok());

  // Buckets over the rush period (3h), not the 1h window, to align with
  // the generator's cycle.
  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 6,
                            gen.rush_period);
  TrainFromReplay(&utility, *nfa, history);
  const int trip = schema.EventTypeId("BikeTrip");
  double lo = 1.0;
  double hi = 0.0;
  for (int b = 0; b < 6; ++b) {
    const double u = utility.Utility(trip, b * gen.rush_period / 6);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  EXPECT_GT(hi, lo * 1.2) << "expected positional variation across the cycle";
}

TEST(PositionalUtilityTest, MatchesEngineReplayOnSparseSeqs) {
  // Oracle: replay the stream through an engine with a match hook and
  // count, per (type, window-position bucket), how many events take part
  // in a complete match. The stream is rebuilt through Append with seqs
  // 1000, 1003, 1006, ...: participation is keyed by seq, not position.
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 6000;
  gen.seed = 67;
  const EventStream dense = GenerateDs1(schema, gen);
  EventStream history(&schema);
  for (size_t i = 0; i < dense.size(); ++i) {
    const Event& e = *dense[i];
    std::vector<Value> attrs;
    for (size_t a = 0; a < e.num_attrs(); ++a) {
      attrs.push_back(e.attr(static_cast<int>(a)));
    }
    ASSERT_TRUE(history
                    .Append(std::make_shared<Event>(e.type(), e.timestamp(),
                                                    1000 + 3 * i, std::move(attrs)))
                    .ok());
  }
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());
  const int buckets = 8;
  const Duration window = Millis(8);
  PositionalUtility utility(static_cast<int>(schema.num_event_types()), buckets, window);
  TrainFromReplay(&utility, *nfa, history);

  Engine engine(*nfa, EngineOptions{});
  std::set<uint64_t> participating;
  engine.set_match_hook([&](const Match& match, const PartialMatch*) {
    for (const EventPtr& e : match.events) participating.insert(e->seq());
  });
  std::vector<Match> sink;
  for (const EventPtr& e : history) engine.Process(e, &sink);
  ASSERT_FALSE(participating.empty());

  auto bucket_of = [&](const Event& e) {
    const int type = e.type();
    const Duration cyc = e.timestamp() % window;
    const int b = std::min(static_cast<int>(cyc * buckets / window), buckets - 1);
    return static_cast<size_t>(type * buckets + b);
  };
  const size_t cells = schema.num_event_types() * static_cast<size_t>(buckets);
  std::vector<double> hits(cells, 0.0);
  std::vector<double> totals(cells, 0.0);
  for (const EventPtr& e : history) {
    totals[bucket_of(*e)] += 1.0;
    if (participating.count(e->seq()) > 0) hits[bucket_of(*e)] += 1.0;
  }
  std::vector<double> expected_sorted;
  for (const EventPtr& e : history) {
    const size_t cell = bucket_of(*e);
    const double expected = hits[cell] / totals[cell];
    EXPECT_EQ(utility.Utility(e->type(), e->timestamp()), expected)
        << "seq " << e->seq();
    expected_sorted.push_back(expected);
  }
  std::sort(expected_sorted.begin(), expected_sorted.end());
  EXPECT_EQ(utility.sorted_utilities(), expected_sorted);
}

TEST(PositionalShedderTest, FixedRatioDropsApproximateFraction) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 10000;
  gen.seed = 63;
  const EventStream history = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());
  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 8, Millis(8));
  TrainFromReplay(&utility, *nfa, history);

  PositionalInputShedder shedder(&utility, /*fraction=*/0.25, /*seed=*/3);
  size_t dropped = 0;
  for (const EventPtr& e : history) {
    if (shedder.FilterEvent(*e)) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / static_cast<double>(history.size()), 0.25,
              0.12);
}

TEST(PositionalShedderTest, BeatsRandomInputAtEqualRatio) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 12000;
  gen.seed = 64;
  const EventStream train = GenerateDs1(schema, gen);
  gen.seed = 65;
  const EventStream test = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());
  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 8, Millis(8));
  TrainFromReplay(&utility, *nfa, train);

  auto run = [&](Shedder* shedder) {
    Engine engine(*nfa, EngineOptions{});
    ShedRunner runner(&engine, shedder, LatencyMonitor::Options{});
    return runner.Run(test);
  };
  NoShedder none;
  const GroundTruth truth(run(&none).matches);

  PositionalInputShedder pi(&utility, 0.25, 4);
  RandomInputShedder ri(0.25, 4);
  const auto pi_quality = ComputeQuality(run(&pi).matches, truth);
  const auto ri_quality = ComputeQuality(run(&ri).matches, truth);
  // PI at least drops the useless D events before anything else.
  EXPECT_GT(pi_quality.recall, ri_quality.recall);
}

TEST(PositionalShedderTest, LatencyBoundModeActivatesUnderOverload) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 6000;
  gen.seed = 66;
  const EventStream stream = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1(), &schema);
  ASSERT_TRUE(nfa.ok());
  PositionalUtility utility(static_cast<int>(schema.num_event_types()), 8, Millis(8));
  TrainFromReplay(&utility, *nfa, stream);

  PositionalInputShedder shedder(&utility, /*theta=*/1.0, /*trigger_delay=*/100,
                                 /*seed=*/5);
  Engine engine(*nfa, EngineOptions{});
  ShedRunner runner(&engine, &shedder, LatencyMonitor::Options{});
  const RunResult r = runner.Run(stream);
  EXPECT_GT(r.dropped_events, 0u);  // bound is unreachable: must shed
}

}  // namespace
}  // namespace cepshed
