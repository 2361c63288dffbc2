// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Probe-loop golden: the engine's exact accounting, frozen. Every case
// folds all EngineStats fields, the bit pattern of total_cost, the bit
// pattern of every per-event cost, and a digest of the emitted matches
// (order, event sequence numbers, slot ends, detection time, source pm)
// into one string. The strings were recorded from the engine whose probe
// loop dereferenced every index entry and evaluated every predicate, so
// any probe-loop shortcut (run-length tombstones, index-implied join
// predicates) must reproduce that engine's cost units, counters, and
// matches bit for bit. The cases cover the paths a shortcut can disturb:
// tombstones left by shedder kills between events, probe-path expiry,
// compaction followed by an index rebuild, migration extract/adopt,
// count windows, next-match kills, negation, Kleene closure, the tree
// interpreter, and a sharded run.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cep/engine.h"
#include "src/cep/nfa.h"
#include "src/common/rng.h"
#include "src/runtime/shard_runtime.h"
#include "src/shed/baselines.h"
#include "src/shed/controller.h"
#include "src/workload/ds1.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fold(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string StatsDigest(const EngineStats& s) {
  return "ev=" + std::to_string(s.events_processed) +
         " created=" + std::to_string(s.pms_created) +
         " wit=" + std::to_string(s.witnesses_created) +
         " emit=" + std::to_string(s.matches_emitted) +
         " veto=" + std::to_string(s.matches_vetoed) +
         " evict=" + std::to_string(s.pms_evicted) +
         " preds=" + std::to_string(s.predicate_evals) +
         " scan=" + std::to_string(s.candidates_scanned) +
         " probes=" + std::to_string(s.index_probes) +
         " peak=" + std::to_string(s.peak_pms) + " cost=" + Hex(Bits(s.total_cost));
}

std::string MatchDigest(const std::vector<Match>& matches) {
  uint64_t h = kFnvOffset;
  for (const Match& m : matches) {
    h = Fold(h, static_cast<uint64_t>(m.detected_at));
    h = Fold(h, m.from_pm);
    h = Fold(h, m.events.size());
    for (const EventPtr& e : m.events) h = Fold(h, e->seq());
    for (uint32_t end : m.slot_end) h = Fold(h, end);
  }
  return "matches=" + std::to_string(matches.size()) + "/" + Hex(h);
}

/// Accumulates one engine's per-event cost bits and its matches.
struct Recorder {
  uint64_t cost_hash = kFnvOffset;
  std::vector<Match> matches;

  void Step(Engine* engine, const EventPtr& e) {
    cost_hash = Fold(cost_hash, Bits(engine->Process(e, &matches)));
  }
  std::string Digest(const Engine& engine) const {
    return StatsDigest(engine.stats()) + " steps=" + Hex(cost_hash) + " " +
           MatchDigest(matches);
  }
};

class ProbeGoldenTest : public ::testing::Test {
 protected:
  ProbeGoldenTest() : schema_(MakeDs1Schema()) {}

  EventStream Stream(size_t n, uint64_t seed, int num_ids = 10) const {
    Ds1Options o;
    o.num_events = n;
    o.seed = seed;
    o.num_ids = num_ids;
    return GenerateDs1(schema_, o);
  }

  std::shared_ptr<const Nfa> Compile(Result<Query> q) const {
    EXPECT_TRUE(q.ok()) << q.status();
    auto nfa = Nfa::Compile(std::move(q).value(), &schema_);
    EXPECT_TRUE(nfa.ok()) << nfa.status();
    return *nfa;
  }

  std::string RunEngine(const std::shared_ptr<const Nfa>& nfa, const EventStream& stream,
                        EngineOptions options = {}) const {
    Engine engine(nfa, options);
    Recorder rec;
    for (const EventPtr& e : stream) rec.Step(&engine, e);
    return rec.Digest(engine);
  }

  Schema schema_;
};

// Q1 WITHIN 500us on one engine: the ingest workload's shape, where most
// scanned candidates are tombstones and probe-path expiry kills the rest.
TEST_F(ProbeGoldenTest, Q1ShortWindowOneEngine) {
  EXPECT_EQ(RunEngine(Compile(queries::Q1("500us")), Stream(20000, 11)),
            "ev=20000 created=10967 wit=0 emit=162 veto=0 evict=10923 "
            "preds=13719 scan=945817 probes=10007 peak=67 "
            "cost=41140d01fffffddc steps=615859cb9c7972cf "
            "matches=162/7ae377a474aa467b");
}

// Frequent compaction: every rebuild must drop exactly the dead entries.
TEST_F(ProbeGoldenTest, Q1CompactionAndRebuild) {
  EngineOptions o;
  o.compact_min_dead = 64;
  o.compact_dead_fraction = 0.05;
  EXPECT_EQ(RunEngine(Compile(queries::Q1("500us")), Stream(20000, 12), o),
            "ev=20000 created=11095 wit=0 emit=162 veto=0 evict=11062 "
            "preds=13650 scan=29577 probes=9974 peak=66 "
            "cost=40f83798000002ad steps=28435f7dfa86c0c6 "
            "matches=162/73c0fa42d73850be");
}

// No compaction at all: tombstones accumulate for the whole run.
TEST_F(ProbeGoldenTest, Q1NeverCompacts) {
  EngineOptions o;
  o.compact_min_dead = static_cast<size_t>(1) << 40;
  EXPECT_EQ(RunEngine(Compile(queries::Q1("2ms")), Stream(12000, 13, 4), o),
            "ev=12000 created=39328 wit=0 emit=10044 veto=0 evict=38830 "
            "preds=494072 scan=15041405 probes=6030 peak=619 "
            "cost=415613f433333265 steps=c8ae4683af2c4884 "
            "matches=10044/95268cd44965d270");
}

// The tree interpreter path (no compiled predicates).
TEST_F(ProbeGoldenTest, Q1Interpreter) {
  EngineOptions o;
  o.use_pred_vm = false;
  EXPECT_EQ(RunEngine(Compile(queries::Q1("500us")), Stream(12000, 14), o),
            "ev=12000 created=6721 wit=0 emit=104 veto=0 evict=6685 "
            "preds=8154 scan=536047 probes=5960 peak=66 "
            "cost=41071417999998e6 steps=4ed7a3b2c2c2b1c5 "
            "matches=104/ee5cba80a65b892c");
}

// Without join indexes every candidate comes from the unkeyed list.
TEST_F(ProbeGoldenTest, Q1WithoutJoinIndex) {
  EngineOptions o;
  o.use_join_index = false;
  EXPECT_EQ(RunEngine(Compile(queries::Q1("500us")), Stream(8000, 15), o),
            "ev=8000 created=4433 wit=0 emit=54 veto=0 evict=4396 "
            "preds=41233 scan=3926494 probes=0 peak=52 "
            "cost=413123eb0ccccd2e steps=75a4912e397fafac "
            "matches=54/0ba906a5758e239b");
}

// Q1 on a 2-shard hash-partitioned RunSequential.
TEST_F(ProbeGoldenTest, Q1TwoShardsSequential) {
  ShardRuntimeOptions opts;
  opts.num_shards = 2;
  opts.partition_attr = schema_.AttributeIndex("ID");
  auto rt = ShardRuntime::Create(Compile(queries::Q1("500us")), opts);
  ASSERT_TRUE(rt.ok()) << rt.status();
  auto r = (*rt)->RunSequential(Stream(20000, 11));
  ASSERT_TRUE(r.ok()) << r.status();
  std::string digest = StatsDigest(r->stats) + " " + MatchDigest(r->matches);
  for (const ShardResult& s : r->shards) digest += " | " + StatsDigest(s.stats);
  EXPECT_EQ(digest,
            "ev=20000 created=10967 wit=0 emit=162 veto=0 evict=10915 "
            "preds=13719 scan=1829619 probes=10007 peak=93 "
            "cost=4120c10ee66665e5 matches=162/65f97c716adb9be9 | ev=7974 "
            "created=4443 wit=0 emit=48 veto=0 evict=4412 preds=5388 "
            "scan=954281 probes=3968 peak=40 cost=4110c4c899999943 | "
            "ev=12026 created=6524 wit=0 emit=114 veto=0 evict=6503 "
            "preds=8331 scan=875338 probes=6039 peak=53 "
            "cost=4110bd5533333287");
}

// Q2: Kleene closure (fresh, extension and proceed indexes).
TEST_F(ProbeGoldenTest, Q2Kleene) {
  EXPECT_EQ(RunEngine(Compile(queries::Q2(3, "1ms")), Stream(12000, 16, 5)),
            "ev=12000 created=10181 wit=0 emit=1875 veto=0 evict=10128 "
            "preds=84365 scan=3540372 probes=12218 peak=168 "
            "cost=41331541cccccd34 steps=4b1a5bf50c2aafcd "
            "matches=1875/bc2dcd5134c1c213");
}

// Q4: a negated component (witnesses and vetoes).
TEST_F(ProbeGoldenTest, Q4Negation) {
  EXPECT_EQ(RunEngine(Compile(queries::Q4("1ms")), Stream(12000, 17, 6)),
            "ev=12000 created=3018 wit=2984 emit=11409 veto=1026 "
            "evict=5943 preds=181383 scan=437088 probes=3002 peak=90 "
            "cost=412916438000014d steps=fda683784e89a67c "
            "matches=11409/26a72f8be675f976");
}

// A count window: expiry by sequence distance on the probe path.
TEST_F(ProbeGoldenTest, Q1CountWindow) {
  EXPECT_EQ(RunEngine(Compile(queries::Q1("60 EVENTS")), Stream(12000, 18)),
            "ev=12000 created=7439 wit=0 emit=134 veto=0 evict=7392 "
            "preds=11332 scan=561676 probes=6090 peak=84 "
            "cost=410971793333326a steps=859c95c43f371d9d "
            "matches=134/acba21d4fbbdb9d6");
}

// Skip-till-next-match kills a match the moment it binds.
TEST_F(ProbeGoldenTest, Q1SkipTillNextMatch) {
  auto q = queries::Q1("1ms");
  ASSERT_TRUE(q.ok());
  q->policy = SelectionPolicy::kSkipTillNextMatch;
  EXPECT_EQ(RunEngine(Compile(std::move(q)), Stream(12000, 19)),
            "ev=12000 created=5619 wit=0 emit=183 veto=0 evict=2709 "
            "preds=11892 scan=511691 probes=6071 peak=51 "
            "cost=41081f03ffffff16 steps=a431239a6ca8206a "
            "matches=183/c7a30a0cf7136c94");
}

// Seeded state kills between events, straight on the store: tombstones
// that no expiry or compaction put there.
TEST_F(ProbeGoldenTest, Q1KillsBetweenEvents) {
  Engine engine(Compile(queries::Q1("1ms")), EngineOptions{});
  Recorder rec;
  Rng rng(21);
  const EventStream stream = Stream(16000, 20);
  for (size_t i = 0; i < stream.size(); ++i) {
    rec.Step(&engine, stream[i]);
    if (i % 37 == 36) {
      engine.store().ForEachAlive([&](PartialMatch* pm) {
        if (rng.Bernoulli(0.4)) engine.store().Kill(pm);
      });
    }
  }
  EXPECT_EQ(rec.Digest(engine),
            "ev=16000 created=9290 wit=0 emit=244 veto=0 evict=2686 "
            "preds=15308 scan=761362 probes=8010 peak=72 "
            "cost=41112a85333331ef steps=5c6c164abd12180c "
            "matches=244/dadf208133730e17");
}

// Q1 under the rs shedder's kills, through the per-event step.
TEST_F(ProbeGoldenTest, Q1RandomStateShedding) {
  Engine engine(Compile(queries::Q1("1ms")), EngineOptions{});
  RandomStateShedder shedder(FixedRatioMode{0.4, 200}, 5);
  ShedRunner runner(&engine, &shedder, LatencyMonitor::Options{});
  const RunResult r = runner.Run(Stream(16000, 22));
  EXPECT_EQ(StatsDigest(r.engine_stats) + " " + MatchDigest(r.matches) +
                " shed=" + std::to_string(r.shed_pms) +
                " avg=" + Hex(Bits(r.avg_latency)) + " p99=" + Hex(Bits(r.p99_latency)),
            "ev=16000 created=13525 wit=0 emit=474 veto=0 evict=11082 "
            "preds=30286 scan=789985 probes=7938 peak=145 "
            "cost=411564a799999801 matches=474/76e1bcf2559ffec8 shed=2400 "
            "avg=4035e8182a992f1c p99=405f100000000000");
}

// Migration: half the stream on one engine, then every even-ID match
// moves to a second engine that takes the even IDs from there on. The
// donor's indexes are rebuilt by the extraction and the recipient's by
// the adoption, both with tombstones present.
TEST_F(ProbeGoldenTest, Q1MigrationExtractAdopt) {
  auto nfa = Compile(queries::Q1("1ms"));
  Engine donor(nfa, EngineOptions{});
  Engine recipient(nfa, EngineOptions{});
  Recorder rd;
  Recorder rr;
  const int id = schema_.AttributeIndex("ID");
  const EventStream stream = Stream(16000, 23);
  const size_t half = stream.size() / 2;
  for (size_t i = 0; i < half; ++i) rd.Step(&donor, stream[i]);
  MigratedState moved = donor.ExtractPartialMatches([id](const PartialMatch& pm) {
    return pm.LastEvent()->attr(id).AsInt() % 2 == 0;
  });
  const size_t moved_count = moved.size();
  recipient.AdoptPartialMatches(std::move(moved));
  for (size_t i = half; i < stream.size(); ++i) {
    const bool even = stream[i]->attr(id).AsInt() % 2 == 0;
    (even ? rr : rd).Step(even ? &recipient : &donor, stream[i]);
  }
  EXPECT_EQ("moved=" + std::to_string(moved_count) + " | " + rd.Digest(donor) + " | " +
                rr.Digest(recipient),
            "moved=41 | ev=11983 created=10296 wit=0 emit=422 veto=0 "
            "evict=10225 preds=25925 scan=564714 probes=6099 peak=132 "
            "cost=41106670cccccbdb steps=d5a790d104db6b44 "
            "matches=422/d5d753ef01433706 | ev=4017 created=3477 wit=0 "
            "emit=137 veto=0 evict=3464 preds=8926 scan=348310 "
            "probes=2050 peak=97 cost=40ffe1fd999999ff "
            "steps=cb9ea08e806605da matches=137/ff9b81ecb4e127b1");
}

}  // namespace
}  // namespace cepshed
