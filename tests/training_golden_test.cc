// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Golden fingerprints of every trained artifact ExperimentHarness::Prepare
// and MultiQueryRunner::Prepare produce. Training is deterministic, so a
// change to how the offline replay, the trees or the feature extraction
// compute their results must leave these bits unchanged; each component
// folds into its own fingerprint so a failure names the artifact that
// moved. Everything is read through public accessors.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/runtime/experiment.h"
#include "src/runtime/multi_query.h"
#include "src/shed/hybrid.h"
#include "src/workload/citibike.h"
#include "src/workload/ds1.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace {

/// FNV-1a over 64-bit words.
class Fingerprint {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

struct TrainingPrints {
  uint64_t offline = 0;
  uint64_t cost_model = 0;
  uint64_t event_classes = 0;
  uint64_t pm_classes = 0;
  uint64_t utilities = 0;
  uint64_t positional = 0;
  uint64_t hspice = 0;
  uint64_t pspice = 0;
  uint64_t baseline = 0;
};

uint64_t FoldOffline(const OfflineStats& s) {
  Fingerprint f;
  f.Add(s.num_slices);
  f.Add(static_cast<int64_t>(s.slice_len));
  f.Add(s.num_events);
  f.Add(s.num_matches);
  f.Add(s.records.size());
  for (const PmRecord& r : s.records) {
    f.Add(r.id);
    f.Add(r.parent_id);
    f.Add(r.state);
    f.Add(r.last_event_type);
    for (float v : r.features) f.Add(static_cast<double>(v));
    for (float v : r.event_features) f.Add(static_cast<double>(v));
    for (float v : r.contrib_by_slice) f.Add(static_cast<double>(v));
    for (float v : r.consum_by_slice) f.Add(static_cast<double>(v));
    f.Add(static_cast<double>(r.own_omega));
  }
  for (double v : s.type_utility) f.Add(v);
  for (double v : s.type_share) f.Add(v);
  for (double v : s.state_completion) f.Add(v);
  return f.value();
}

uint64_t FoldCostModel(const CostModel& m) {
  Fingerprint f;
  for (int s = 0; s < m.num_states(); ++s) {
    f.Add(m.NumClasses(s));
    for (int32_t c = 0; c < m.NumClasses(s); ++c) {
      for (int sl = 0; sl < m.num_slices(); ++sl) {
        f.Add(m.Contribution(s, c, sl));
        f.Add(m.Consumption(s, c, sl));
        f.Add(m.ContributionMax(s, c, sl));
      }
    }
    const RegressionTree& tree = m.pm_tree(s);
    f.Add(tree.num_nodes());
    f.Add(tree.num_leaves());
    for (size_t l = 0; l < tree.num_leaves(); ++l) {
      const RegressionTree::Leaf& leaf = tree.leaf(static_cast<int>(l));
      f.Add(leaf.count);
      for (double v : leaf.mean) f.Add(v);
    }
    for (int leaf : tree.training_leaves()) f.Add(leaf);
    f.Add(m.event_tree(s).num_nodes());
    f.Add(m.event_tree(s).Depth());
    f.Add(m.event_tree(s).training_accuracy());
  }
  return f.value();
}

/// ClassifyEvent for every state and EventUtility, per test event.
uint64_t FoldEventClasses(const CostModel& m, const EventStream& test) {
  Fingerprint f;
  for (const EventPtr& e : test) {
    for (int s = 0; s < m.num_states(); ++s) f.Add(m.ClassifyEvent(*e, s));
    f.Add(m.EventUtility(*e));
  }
  return f.value();
}

/// Classify and pSPICE LeafOf for every partial match a replay of the test
/// stream creates, and ClassifyPrefix for every prefix of every match.
uint64_t FoldPmClasses(const std::shared_ptr<const Nfa>& nfa, const CostModel& m,
                       const PspiceModel& pspice, const EventStream& test) {
  Fingerprint f;
  Engine engine(nfa, EngineOptions{});
  engine.set_classifier([&](const PartialMatch& pm) {
    const int32_t cls = m.Classify(pm);
    f.Add(pm.id);
    f.Add(cls);
    f.Add(pspice.LeafOf(pm));
    return cls;
  });
  engine.set_match_hook([&](const Match& match, const PartialMatch*) {
    for (size_t j = 1; j < match.slot_end.size(); ++j) {
      f.Add(m.ClassifyPrefix(match, static_cast<int>(j)));
    }
  });
  std::vector<Match> sink;
  for (const EventPtr& e : test) {
    engine.Process(e, &sink);
    sink.clear();
  }
  return f.value();
}

uint64_t FoldDoubles(const std::vector<double>& values) {
  Fingerprint f;
  f.Add(values.size());
  for (double v : values) f.Add(v);
  return f.value();
}

uint64_t FoldPositional(const PositionalUtility& u, const EventStream& test) {
  Fingerprint f;
  for (const EventPtr& e : test) f.Add(u.Utility(e->type(), e->timestamp()));
  f.Add(FoldDoubles(u.sorted_utilities()));
  return f.value();
}

uint64_t FoldHspice(const HspiceTable& t) {
  Fingerprint f;
  for (int type = 0; type < t.num_types(); ++type) {
    for (int s = 0; s < t.num_states(); ++s) f.Add(t.Utility(type, s));
  }
  return f.value();
}

uint64_t FoldPspice(const PspiceModel& p) {
  Fingerprint f;
  for (int s = 0; s < p.num_states(); ++s) {
    f.Add(p.NumLeaves(s));
    for (size_t l = 0; l < p.NumLeaves(s); ++l) {
      f.Add(p.LeafValue(s, static_cast<int>(l)));
    }
    f.Add(p.LeafValue(s, -1));  // the state prior
  }
  return f.value();
}

TrainingPrints Fold(const ExperimentHarness& h, const EventStream& train,
                    const EventStream& test, size_t pm_events) {
  TrainingPrints p;
  p.offline = FoldOffline(h.offline());
  p.cost_model = FoldCostModel(h.model());
  p.event_classes = FoldEventClasses(h.model(), test);
  p.pm_classes =
      FoldPmClasses(h.nfa(), h.model(), h.pspice(), test.Prefix(pm_events));
  p.utilities = FoldDoubles(ComputeTrainingUtilities(h.model(), train));
  p.positional = FoldPositional(h.positional(), test);
  p.hspice = FoldHspice(h.hspice());
  p.pspice = FoldPspice(h.pspice());
  Fingerprint b;
  b.Add(h.BaselineLatency(LatencyStat::kAverage));
  b.Add(h.BaselineLatency(LatencyStat::kP95));
  b.Add(h.BaselineLatency(LatencyStat::kP99));
  p.baseline = b.value();
  return p;
}

void ExpectPrints(const TrainingPrints& got, const TrainingPrints& want) {
  auto check = [](const char* what, uint64_t g, uint64_t w) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%016llxULL", static_cast<unsigned long long>(g));
    EXPECT_EQ(g, w) << what << " fingerprint moved; actual " << buf;
  };
  check("offline", got.offline, want.offline);
  check("cost_model", got.cost_model, want.cost_model);
  check("event_classes", got.event_classes, want.event_classes);
  check("pm_classes", got.pm_classes, want.pm_classes);
  check("utilities", got.utilities, want.utilities);
  check("positional", got.positional, want.positional);
  check("hspice", got.hspice, want.hspice);
  check("pspice", got.pspice, want.pspice);
  check("baseline", got.baseline, want.baseline);
}

// --- the pinned values --------------------------------------------------
// Pinned from the sort-per-node trees and the two-replay Prepare; the
// EXPECT failures above print the actual value of every moved fingerprint.

TEST(TrainingGoldenTest, Ds1Q1Window8ms) {
  // The end-to-end benchmark's ds1_q1_hybrid shape: 30k training events,
  // 20k test events.
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 30000;
  gen.seed = 1201;
  const EventStream train = GenerateDs1(schema, gen);
  gen.num_events = 20000;
  gen.seed = 1202;
  const EventStream test = GenerateDs1(schema, gen);
  ExperimentHarness harness(&schema, *queries::Q1("8ms"), HarnessOptions{});
  ASSERT_TRUE(harness.Prepare(train, test).ok());
  ExpectPrints(Fold(harness, train, test, /*pm_events=*/5000),
               TrainingPrints{
                   /*offline=*/0x522360c7483794afULL,
                   /*cost_model=*/0xf420a20251df0dd4ULL,
                   /*event_classes=*/0xda25b05ca9045ba8ULL,
                   /*pm_classes=*/0xd6b66bfc2f268553ULL,
                   /*utilities=*/0xab3beee1404577f4ULL,
                   /*positional=*/0x4e92d4ac1278c056ULL,
                   /*hspice=*/0x66d47260a5198d62ULL,
                   /*pspice=*/0xc2aa5096ce720b6aULL,
                   /*baseline=*/0x71bbe2d17c512828ULL,
               });
}

TEST(TrainingGoldenTest, Ds1Q2Kleene) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 8000;
  gen.seed = 1203;
  const EventStream train = GenerateDs1(schema, gen);
  gen.num_events = 6000;
  gen.seed = 1204;
  const EventStream test = GenerateDs1(schema, gen);
  ExperimentHarness harness(&schema, *queries::Q2(3, "2ms"), HarnessOptions{});
  ASSERT_TRUE(harness.Prepare(train, test).ok());
  ExpectPrints(Fold(harness, train, test, /*pm_events=*/3000),
               TrainingPrints{
                   /*offline=*/0xdf3d40b9ecfce377ULL,
                   /*cost_model=*/0xe19cdeb1e1f4d6c5ULL,
                   /*event_classes=*/0x0e36b41e4df96d06ULL,
                   /*pm_classes=*/0xe72e7205a82f0d98ULL,
                   /*utilities=*/0x3b0dfcfa8334b6bfULL,
                   /*positional=*/0x32ce3c1d4b362075ULL,
                   /*hspice=*/0x51931800c238ef63ULL,
                   /*pspice=*/0xbe71c05849fdfff1ULL,
                   /*baseline=*/0x45ac30b5651c5baaULL,
               });
}

TEST(TrainingGoldenTest, CitibikeListing1) {
  const Schema schema = MakeCitibikeSchema();
  CitibikeOptions gen;
  gen.num_events = 12000;
  gen.seed = 1205;
  const EventStream train = GenerateCitibike(schema, gen);
  gen.seed = 1206;
  const EventStream test = GenerateCitibike(schema, gen);
  ExperimentHarness harness(&schema, *queries::CitibikeHotPaths(), HarnessOptions{});
  ASSERT_TRUE(harness.Prepare(train, test).ok());
  ExpectPrints(Fold(harness, train, test, /*pm_events=*/4000),
               TrainingPrints{
                   /*offline=*/0x65e80a6ad2b2db58ULL,
                   /*cost_model=*/0xd79f9a7fee9424dfULL,
                   /*event_classes=*/0x7d49e48049971e18ULL,
                   /*pm_classes=*/0xf4e8618d0c311a4aULL,
                   /*utilities=*/0x9cebf16c14e9282dULL,
                   /*positional=*/0x66773a4698cdcb14ULL,
                   /*hspice=*/0x8bb1244731b202bfULL,
                   /*pspice=*/0x0875f1e9c315287dULL,
                   /*baseline=*/0xf05f8371f46a8ce6ULL,
               });
}

TEST(TrainingGoldenTest, MultiQueryBaselineCost) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 6000;
  gen.seed = 1207;
  const EventStream train = GenerateDs1(schema, gen);
  MultiQueryRunner runner(&schema, {{*queries::Q1("8ms"), 1.0},
                                    {*queries::Q4("8ms"), 2.0},
                                    {*queries::Q2(2, "2ms"), 1.0}});
  ASSERT_TRUE(runner.Prepare(train).ok());
  Fingerprint f;
  for (size_t q = 0; q < runner.num_queries(); ++q) f.Add(runner.BaselineCost(q));
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(f.value()));
  EXPECT_EQ(f.value(), 0xcaefcd7e879d96d2ULL)
      << "baseline cost fingerprint moved; actual " << buf;
}

}  // namespace
}  // namespace cepshed
