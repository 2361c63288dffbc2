// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Chaos suite: replays the differential harness's seeded DS1 stream through
// the sharded runtime under injected faults (src/fault) and the overload
// guard (src/runtime/overload_guard.h) and checks the degradation
// contract:
//
//  - semantically benign faults (stall, slowdown, burst, skew — with the
//    guard off) change *nothing*: the match set equals the fault-free one;
//  - lossy faults (queue saturation, worker death) and guard shedding
//    degrade the output to a *subset* of the fault-free match set, emitted
//    in the same canonical (detected_at, key) order — faults may lose
//    matches but never invent or reorder them;
//  - every run completes (the ctest-level TIMEOUT catches deadlocks),
//    accounting stays consistent (routed == processed + dropped + lost),
//    and fault outcomes are reproducible: the same schedule produces the
//    same result on every run, parallel or sequential;
//  - a shard worker death is survived: restarted within budget (losing
//    exactly the poisoned event) or abandoned (losing its tail), with the
//    run degrading recall instead of failing — unless *every* shard is
//    gone, which surfaces as Status::Unavailable;
//  - the guard escalates under pressure, enforces the partial-match
//    memory budget, and steps back down to normal once the faults clear.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/cep/engine.h"
#include "src/cep/nfa.h"
#include "src/cep/stream.h"
#include "src/fault/fault_injector.h"
#include "src/runtime/overload_guard.h"
#include "src/runtime/shard_runtime.h"
#include "src/shed/controller.h"
#include "src/shed/shedder.h"
#include "src/workload/ds1.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace {

constexpr int kShardCounts[] = {1, 2, 4, 8};

struct CanonMatch {
  Timestamp ts;
  std::string key;
  bool operator==(const CanonMatch& o) const = default;
  bool operator<(const CanonMatch& o) const {
    if (ts != o.ts) return ts < o.ts;
    return key < o.key;
  }
};

std::vector<CanonMatch> Canon(const std::vector<Match>& matches) {
  std::vector<CanonMatch> out;
  out.reserve(matches.size());
  for (const Match& m : matches) out.push_back({m.detected_at, m.Key()});
  std::sort(out.begin(), out.end());
  return out;
}

/// The merge contract: matches arrive already in canonical order.
void ExpectCanonicalOrder(const std::vector<Match>& matches) {
  std::vector<CanonMatch> in_order;
  in_order.reserve(matches.size());
  for (const Match& m : matches) in_order.push_back({m.detected_at, m.Key()});
  EXPECT_TRUE(std::is_sorted(in_order.begin(), in_order.end()))
      << "merged matches are not in (detected_at, key) order";
}

/// Degraded runs lose matches, never invent them.
void ExpectSubsetOf(const std::vector<Match>& degraded,
                    const std::vector<CanonMatch>& reference_canon) {
  const std::vector<CanonMatch> canon = Canon(degraded);
  EXPECT_TRUE(std::includes(reference_canon.begin(), reference_canon.end(),
                            canon.begin(), canon.end()))
      << "degraded run produced a match absent from the fault-free run";
}

/// Per-shard and aggregate accounting that must survive any fault.
void ExpectAccountingConsistent(const ShardRunResult& r) {
  uint64_t routed = 0;
  uint64_t handled = 0;
  for (const ShardResult& s : r.shards) {
    EXPECT_EQ(s.events_routed, s.events_processed + s.events_dropped + s.events_lost);
    routed += s.events_routed;
    handled += s.events_processed + s.events_dropped + s.events_lost +
               s.events_rejected;
  }
  // Hash routing delivers each event to exactly one shard, so every stream
  // event is processed, deliberately dropped, lost, or rejected — no event
  // simply vanishes, however ugly the fault schedule.
  EXPECT_EQ(handled, r.total_events);
  // Every successfully pushed event is eventually consumed or drained.
  EXPECT_EQ(routed, r.routed_events);
}

/// Everything that must be bit-identical between two runs of the same
/// deterministic configuration (wall time excluded).
void ExpectSameOutcome(const ShardRunResult& a, const ShardRunResult& b) {
  EXPECT_EQ(Canon(a.matches), Canon(b.matches));
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.dropped_events, b.dropped_events);
  EXPECT_EQ(a.lost_events, b.lost_events);
  EXPECT_EQ(a.worker_restarts, b.worker_restarts);
  EXPECT_EQ(a.shards_abandoned, b.shards_abandoned);
  EXPECT_EQ(a.resizes, b.resizes);
  EXPECT_EQ(a.migrated_pms, b.migrated_pms);
  EXPECT_EQ(a.migrated_bytes, b.migrated_bytes);
  EXPECT_EQ(a.final_live_shards, b.final_live_shards);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (size_t i = 0; i < a.shards.size(); ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    EXPECT_EQ(a.shards[i].events_processed, b.shards[i].events_processed);
    EXPECT_EQ(a.shards[i].events_dropped, b.shards[i].events_dropped);
    EXPECT_EQ(a.shards[i].abandoned, b.shards[i].abandoned);
    EXPECT_EQ(a.shards[i].pms_migrated_in, b.shards[i].pms_migrated_in);
    EXPECT_EQ(a.shards[i].pms_migrated_out, b.shards[i].pms_migrated_out);
  }
}

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    schema_ = new Schema(MakeDs1Schema());
    Ds1Options ds1;
    ds1.num_events = 3000;
    ds1.event_gap = 10;
    ds1.seed = 7;
    stream_ = new EventStream(GenerateDs1(*schema_, ds1));

    auto q = queries::Q1();
    ASSERT_TRUE(q.ok());
    auto nfa = Nfa::Compile(*q, schema_);
    ASSERT_TRUE(nfa.ok()) << nfa.status().message();
    nfa_ = new std::shared_ptr<const Nfa>(*nfa);

    // Fault-free ground truth from the plain sequential engine.
    Engine engine(*nfa_, EngineOptions{});
    NoShedder none;
    ShedRunner runner(&engine, &none, LatencyMonitor::Options{});
    reference_ = new std::vector<CanonMatch>(Canon(runner.Run(*stream_).matches));
    ASSERT_GT(reference_->size(), 0u) << "degenerate reference";
  }

  static void TearDownTestSuite() {
    delete reference_;
    delete nfa_;
    delete stream_;
    delete schema_;
  }

  static ShardRuntimeOptions BaseOptions(int num_shards) {
    ShardRuntimeOptions opts;
    opts.num_shards = num_shards;
    opts.partition_attr = schema_->AttributeIndex("ID");
    // Short enough that dead-worker detection happens within test budget.
    opts.push_timeout_us = 5'000;
    return opts;
  }

  static FaultInjector ParseFaults(const std::string& spec, uint64_t seed = 0) {
    auto f = FaultInjector::Parse(spec, seed);
    EXPECT_TRUE(f.ok()) << f.status().message();
    return f.ok() ? *f : FaultInjector();
  }

  static Result<ShardRunResult> RunWith(const ShardRuntimeOptions& opts) {
    auto runtime = ShardRuntime::Create(*nfa_, opts);
    EXPECT_TRUE(runtime.ok()) << runtime.status().message();
    return (*runtime)->Run(*stream_);
  }

  static Schema* schema_;
  static EventStream* stream_;
  static std::shared_ptr<const Nfa>* nfa_;
  static std::vector<CanonMatch>* reference_;
};

Schema* ChaosTest::schema_ = nullptr;
EventStream* ChaosTest::stream_ = nullptr;
std::shared_ptr<const Nfa>* ChaosTest::nfa_ = nullptr;
std::vector<CanonMatch>* ChaosTest::reference_ = nullptr;

// ---------------------------------------------------------------------------
// Schedule DSL.

TEST(FaultDslTest, ParsesAndRoundTrips) {
  auto f = FaultInjector::Parse(
      "stall:shard=0,at=200,ms=30; slow:at=10,count=50,us=100;"
      "burst:shard=1,at=5,count=20,factor=8.5;saturate:shard=2,at=7,count=3;"
      "skew:at=0,count=10,us=-500;death:shard=1,at=500",
      42);
  ASSERT_TRUE(f.ok()) << f.status().message();
  EXPECT_EQ(f->specs().size(), 6u);
  EXPECT_EQ(f->seed(), 42u);
  EXPECT_EQ(f->specs()[0].kind, FaultKind::kStall);
  EXPECT_EQ(f->specs()[0].micros, 30'000);
  EXPECT_EQ(f->specs()[4].micros, -500);
  EXPECT_EQ(f->specs()[4].shard, -1);

  // The canonical rendering reparses to the same schedule.
  auto again = FaultInjector::Parse(f->ToString(), 42);
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(again->ToString(), f->ToString());

  auto empty = FaultInjector::Parse("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(FaultDslTest, RejectsMalformedSchedules) {
  EXPECT_FALSE(FaultInjector::Parse("meteor:at=1").ok());
  EXPECT_FALSE(FaultInjector::Parse("stall:when=1").ok());
  EXPECT_FALSE(FaultInjector::Parse("stall:at=banana").ok());
  EXPECT_FALSE(FaultInjector::Parse("stall:at=-3").ok());
  EXPECT_FALSE(FaultInjector::Parse("stall:at").ok());
  EXPECT_FALSE(FaultInjector::Parse("slow:at=1,count=0,us=5").ok());
  EXPECT_FALSE(FaultInjector::Parse("slow:at=1,us=-5").ok());
  EXPECT_FALSE(FaultInjector::Parse("burst:at=1,factor=0").ok());
  EXPECT_FALSE(FaultInjector::Parse("burst:at=1,factor=1").ok());
}

TEST(FaultDslTest, QueriesAreAnchoredAndScoped) {
  auto f = FaultInjector::Parse("death:shard=1,at=5;slow:at=2,count=3,us=40");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f->OnConsume(1, 5).die);
  EXPECT_FALSE(f->OnConsume(0, 5).die);  // scoped to shard 1
  EXPECT_FALSE(f->OnConsume(1, 4).die);  // anchored to ordinal 5
  EXPECT_EQ(f->OnConsume(3, 2).stall_us, 40);   // shard=-1 hits every shard
  EXPECT_EQ(f->OnConsume(3, 4).stall_us, 40);   // window [2, 5)
  EXPECT_EQ(f->OnConsume(3, 5).stall_us, 0);

  auto sat = FaultInjector::Parse("saturate:shard=0,at=100,count=10");
  ASSERT_TRUE(sat.ok());
  EXPECT_TRUE(sat->SaturatePush(0, 100));
  EXPECT_TRUE(sat->SaturatePush(0, 109));
  EXPECT_FALSE(sat->SaturatePush(0, 110));
  EXPECT_FALSE(sat->SaturatePush(1, 100));
}

// ---------------------------------------------------------------------------
// Benign faults: timing changes, semantics must not.

TEST_F(ChaosTest, BenignFaultsPreserveTheMatchSet) {
  const struct {
    const char* name;
    const char* spec;
  } kBenign[] = {
      {"stall", "stall:shard=0,at=100,ms=2"},
      {"slowdown", "slow:at=50,count=100,us=20"},
      {"burst", "burst:at=200,count=400,factor=25"},
      {"skew", "skew:at=0,count=1000,us=-2000"},
  };
  for (const auto& fault : kBenign) {
    const FaultInjector faults = ParseFaults(fault.spec);
    for (const int num_shards : kShardCounts) {
      SCOPED_TRACE(std::string(fault.name) + " shards=" + std::to_string(num_shards));
      ShardRuntimeOptions opts = BaseOptions(num_shards);
      opts.faults = &faults;
      auto run = RunWith(opts);
      ASSERT_TRUE(run.ok()) << run.status().message();
      EXPECT_EQ(Canon(run->matches), *reference_);
      ExpectCanonicalOrder(run->matches);
      ExpectAccountingConsistent(*run);
      EXPECT_EQ(run->lost_events, 0u);
      EXPECT_EQ(run->worker_restarts, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Lossy faults: bounded, deterministic degradation.

TEST_F(ChaosTest, SaturationLosesExactlyTheRefusedWindow) {
  const FaultInjector faults = ParseFaults("saturate:shard=0,at=300,count=200");
  for (const int num_shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardRuntimeOptions opts = BaseOptions(num_shards);
    opts.faults = &faults;
    auto run = RunWith(opts);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_GT(run->lost_events, 0u);
    // Only stream sequences [300, 500) routed to shard 0 can be refused.
    EXPECT_LE(run->lost_events, 200u);
    ExpectSubsetOf(run->matches, *reference_);
    ExpectCanonicalOrder(run->matches);
    ExpectAccountingConsistent(*run);

    // Saturation is anchored to stream sequence numbers: replaying the
    // schedule reproduces the loss exactly, in parallel and sequentially.
    auto again = RunWith(opts);
    ASSERT_TRUE(again.ok());
    ExpectSameOutcome(*run, *again);
    auto runtime = ShardRuntime::Create(*nfa_, opts);
    ASSERT_TRUE(runtime.ok());
    auto sequential = (*runtime)->RunSequential(*stream_);
    ASSERT_TRUE(sequential.ok());
    ExpectSameOutcome(*run, *sequential);
  }
}

TEST_F(ChaosTest, WorkerDeathIsRestartedLosingOneEvent) {
  const FaultInjector faults = ParseFaults("death:shard=0,at=50");
  for (const int num_shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardRuntimeOptions opts = BaseOptions(num_shards);
    opts.faults = &faults;
    opts.max_worker_restarts = 1;
    auto run = RunWith(opts);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->worker_restarts, 1u);
    EXPECT_EQ(run->shards_abandoned, 0);
    EXPECT_EQ(run->lost_events, 1u);  // exactly the poisoned event
    ExpectSubsetOf(run->matches, *reference_);
    ExpectCanonicalOrder(run->matches);
    ExpectAccountingConsistent(*run);

    auto again = RunWith(opts);
    ASSERT_TRUE(again.ok());
    ExpectSameOutcome(*run, *again);
    auto runtime = ShardRuntime::Create(*nfa_, opts);
    ASSERT_TRUE(runtime.ok());
    auto sequential = (*runtime)->RunSequential(*stream_);
    ASSERT_TRUE(sequential.ok());
    ExpectSameOutcome(*run, *sequential);
  }
}

TEST_F(ChaosTest, RepeatedDeathAbandonsTheShardButTheRunCompletes) {
  const FaultInjector faults = ParseFaults("death:shard=0,at=50;death:shard=0,at=120");
  for (const int num_shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardRuntimeOptions opts = BaseOptions(num_shards);
    opts.faults = &faults;
    opts.max_worker_restarts = 1;
    auto run = RunWith(opts);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->worker_restarts, 1u);
    EXPECT_EQ(run->shards_abandoned, 1);
    EXPECT_TRUE(run->shards[0].abandoned);
    EXPECT_GT(run->lost_events, 1u);  // the tail of shard 0 is gone
    // The surviving shards still deliver their share.
    EXPECT_GT(run->matches.size(), 0u);
    ExpectSubsetOf(run->matches, *reference_);
    ExpectCanonicalOrder(run->matches);
    ExpectAccountingConsistent(*run);

    auto again = RunWith(opts);
    ASSERT_TRUE(again.ok());
    ExpectSameOutcome(*run, *again);
    auto runtime = ShardRuntime::Create(*nfa_, opts);
    ASSERT_TRUE(runtime.ok());
    auto sequential = (*runtime)->RunSequential(*stream_);
    ASSERT_TRUE(sequential.ok());
    ExpectSameOutcome(*run, *sequential);
  }
}

TEST_F(ChaosTest, EveryShardDeadIsUnavailableNotADeadlock) {
  const FaultInjector faults = ParseFaults("death:at=0;death:at=1");
  for (const int num_shards : {1, 2}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardRuntimeOptions opts = BaseOptions(num_shards);
    opts.faults = &faults;
    opts.max_worker_restarts = 1;
    auto run = RunWith(opts);
    ASSERT_FALSE(run.ok());
    EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);

    auto runtime = ShardRuntime::Create(*nfa_, opts);
    ASSERT_TRUE(runtime.ok());
    auto sequential = (*runtime)->RunSequential(*stream_);
    ASSERT_FALSE(sequential.ok());
    EXPECT_EQ(sequential.status().code(), StatusCode::kUnavailable);
  }
}

// ---------------------------------------------------------------------------
// Overload guard under fault pressure.

ShardRuntimeOptions DeterministicGuardOptions(ShardRuntimeOptions opts) {
  opts.guard.enabled = true;
  // A short monitor window so mu tracks the burst (and its end) quickly.
  opts.latency.window = 64;
  opts.guard.trigger_delay = 16;
  opts.guard.check_every = 16;
  opts.guard.escalate_after = 2;
  opts.guard.recover_after = 4;
  // Neutralize the (timing-sensitive) queue signal: the run becomes a
  // pure function of the schedule, reproducible bit for bit.
  opts.guard.queue_high = 1.5;
  opts.guard.queue_low = 1.0;
  return opts;
}

TEST_F(ChaosTest, GuardEscalatesUnderBurstAndRecovers) {
  // Baseline latency of this stream/query, from an undisturbed run.
  auto baseline = RunWith(BaseOptions(1));
  ASSERT_TRUE(baseline.ok());
  const double base_mu = baseline->shards[0].avg_latency;
  ASSERT_GT(base_mu, 0.0);

  // The burst makes events 40x as expensive mid-stream, after the engine's
  // per-event cost has reached its windowed steady state (early-stream
  // events are much cheaper than the run average, so an early burst could
  // stay under any theta derived from it). Theta sits at 2x the run
  // average: far below the burst, comfortably above the steady state, so
  // the guard must escalate during the burst and fully recover in the
  // quiet tail.
  const FaultInjector faults = ParseFaults("burst:at=1500,count=600,factor=40");
  ShardRuntimeOptions opts = DeterministicGuardOptions(BaseOptions(1));
  opts.faults = &faults;
  opts.guard.theta = 2.0 * base_mu;
  auto run = RunWith(opts);
  ASSERT_TRUE(run.ok()) << run.status().message();

  const ShardResult& s = run->shards[0];
  EXPECT_GT(s.guard_escalations, 0u);
  EXPECT_GE(s.guard_peak_level, static_cast<int>(GuardLevel::kShedding));
  // Recovery: pressure is long gone by end of stream.
  EXPECT_EQ(s.guard_final_level, static_cast<int>(GuardLevel::kNormal));
  EXPECT_GT(run->guard_input_drops, 0u);
  EXPECT_GE(run->dropped_events, run->guard_input_drops);
  ExpectSubsetOf(run->matches, *reference_);
  ExpectCanonicalOrder(run->matches);
  ExpectAccountingConsistent(*run);

  // With the queue signal neutral the guard sees only deterministic
  // inputs (cost-unit latency, engine memory): exact replayability, in
  // parallel and sequentially, also across shard counts.
  for (const int num_shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardRuntimeOptions sharded = DeterministicGuardOptions(BaseOptions(num_shards));
    sharded.faults = &faults;
    sharded.guard.theta = 2.0 * base_mu;
    auto first = RunWith(sharded);
    ASSERT_TRUE(first.ok()) << first.status().message();
    ExpectSubsetOf(first->matches, *reference_);
    ExpectCanonicalOrder(first->matches);
    ExpectAccountingConsistent(*first);
    auto again = RunWith(sharded);
    ASSERT_TRUE(again.ok());
    ExpectSameOutcome(*first, *again);
    auto runtime = ShardRuntime::Create(*nfa_, sharded);
    ASSERT_TRUE(runtime.ok());
    auto sequential = (*runtime)->RunSequential(*stream_);
    ASSERT_TRUE(sequential.ok());
    ExpectSameOutcome(*first, *sequential);
  }
}

TEST_F(ChaosTest, GuardEnforcesThePartialMatchMemoryBudget) {
  // Measure the natural state footprint, then budget a quarter of it.
  const ShardRuntimeOptions probe = DeterministicGuardOptions(BaseOptions(1));
  auto unbounded = RunWith(probe);
  ASSERT_TRUE(unbounded.ok());
  const size_t natural_peak = unbounded->shards[0].guard_peak_state_bytes;
  ASSERT_GT(natural_peak, 0u);

  ShardRuntimeOptions opts = probe;
  opts.guard.memory_budget_bytes = natural_peak / 4;
  auto run = RunWith(opts);
  ASSERT_TRUE(run.ok()) << run.status().message();
  // The ladder escalates off the memory watermark and relieves pressure
  // with shedding-level trims; the hard per-event eviction backstops it.
  // Either way, partial matches must have been killed for the budget...
  EXPECT_GT(run->guard_trims + run->guard_evictions, 0u);
  // ...and the state estimate must stay bounded, nowhere near the natural
  // footprint.
  EXPECT_LT(run->shards[0].guard_peak_state_bytes, natural_peak / 2);
  ExpectSubsetOf(run->matches, *reference_);
  ExpectCanonicalOrder(run->matches);
  ExpectAccountingConsistent(*run);

  auto again = RunWith(opts);
  ASSERT_TRUE(again.ok());
  ExpectSameOutcome(*run, *again);
}

TEST_F(ChaosTest, PanickingGuardKeepsExpiringStateAndRecovers) {
  // Expiry runs inside Engine::Process, so a guard that drops every input
  // at kPanic would freeze the engine's window: state never expires, the
  // memory signal never cools, and the guard never steps down — unless
  // the per-event step vacuums at the dropped events' watermark. Covered
  // for a time window and for a count window (whose watermark is the
  // dropped event's sequence number, not the last processed one).
  for (const char* window : {"8ms", "800 EVENTS"}) {
    SCOPED_TRACE(window);
    auto q = queries::Q1(window);
    ASSERT_TRUE(q.ok());
    auto nfa = Nfa::Compile(*q, schema_);
    ASSERT_TRUE(nfa.ok()) << nfa.status().message();
    Engine engine(*nfa, EngineOptions{});
    NoShedder none;
    ShedRunner reference(&engine, &none, LatencyMonitor::Options{});
    const std::vector<CanonMatch> expected = Canon(reference.Run(*stream_).matches);

    const auto run_with = [&](const ShardRuntimeOptions& opts, bool parallel) {
      auto runtime = ShardRuntime::Create(*nfa, opts);
      EXPECT_TRUE(runtime.ok()) << runtime.status().message();
      return parallel ? (*runtime)->Run(*stream_) : (*runtime)->RunSequential(*stream_);
    };
    const ShardRuntimeOptions probe = DeterministicGuardOptions(BaseOptions(1));
    auto unbounded = run_with(probe, true);
    ASSERT_TRUE(unbounded.ok());
    const size_t natural_peak = unbounded->shards[0].guard_peak_state_bytes;
    ASSERT_GT(natural_peak, 0u);

    ShardRuntimeOptions opts = probe;
    opts.guard.memory_budget_bytes = natural_peak * 3 / 5;
    auto run = run_with(opts, true);
    ASSERT_TRUE(run.ok()) << run.status().message();
    const ShardResult& s = run->shards[0];
    EXPECT_GE(s.guard_peak_level, static_cast<int>(GuardLevel::kPanic));
    EXPECT_EQ(s.guard_final_level, static_cast<int>(GuardLevel::kNormal));
    // The guard sheds the pressure and then lets the stream back in: most
    // events are processed, not dropped for the rest of the run.
    EXPECT_LT(run->dropped_events, stream_->size() / 2);
    EXPECT_GT(run->matches.size(), expected.size() / 4);
    ExpectSubsetOf(run->matches, expected);
    ExpectCanonicalOrder(run->matches);
    ExpectAccountingConsistent(*run);

    auto sequential = run_with(opts, false);
    ASSERT_TRUE(sequential.ok()) << sequential.status().message();
    ExpectSameOutcome(*run, *sequential);
  }
}

// ---------------------------------------------------------------------------
// Everything at once.

TEST_F(ChaosTest, CombinedChaosStillDegradesGracefully) {
  const FaultInjector faults = ParseFaults(
      "stall:shard=0,at=100,ms=2;"
      "slow:at=200,count=100,us=10;"
      "burst:at=400,count=300,factor=30;"
      "skew:at=500,count=200,us=-1500;"
      "saturate:shard=0,at=900,count=100;"
      "death:shard=0,at=100",
      7);
  for (const int num_shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardRuntimeOptions opts = BaseOptions(num_shards);
    opts.faults = &faults;
    opts.max_worker_restarts = 1;
    opts.guard.enabled = true;
    opts.guard.theta = 0.0;  // pressure arrives via queue + memory here
    opts.guard.memory_budget_bytes = 1u << 20;
    auto run = RunWith(opts);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->shards_abandoned, 0);
    EXPECT_LE(run->worker_restarts, 1u);
    ExpectSubsetOf(run->matches, *reference_);
    ExpectCanonicalOrder(run->matches);
    ExpectAccountingConsistent(*run);
  }
}

// ---------------------------------------------------------------------------
// Elastic resharding: scripted and dynamic scale-up/down with deterministic
// partial-match migration.

TEST(FaultDslTest, ResizeEntriesParseScopeAndRoundTrip) {
  auto f = FaultInjector::Parse(
      "resize:at=900,delta=+2;resize:shard=1,at=40,delta=-1");
  ASSERT_TRUE(f.ok()) << f.status().message();
  ASSERT_EQ(f->specs().size(), 2u);
  EXPECT_TRUE(f->has_resizes());
  EXPECT_EQ(f->specs()[0].kind, FaultKind::kResize);
  EXPECT_EQ(f->specs()[0].delta, 2);
  EXPECT_EQ(f->specs()[0].shard, -1);
  EXPECT_EQ(f->specs()[1].delta, -1);
  EXPECT_EQ(f->specs()[1].shard, 1);

  auto again = FaultInjector::Parse(f->ToString());
  ASSERT_TRUE(again.ok()) << again.status().message();
  EXPECT_EQ(again->ToString(), f->ToString());

  // Resize is a router-side anchor, never a consume-time fault.
  EXPECT_FALSE(f->OnConsume(1, 40).die);
  EXPECT_EQ(f->OnConsume(1, 40).stall_us, 0);

  EXPECT_FALSE(FaultInjector::Parse("resize:at=10").ok());          // no delta
  EXPECT_FALSE(FaultInjector::Parse("resize:at=10,delta=0").ok());  // no-op
}

TEST_F(ChaosTest, ScheduledResizeGrowAndShrinkPreservesTheMatchSet) {
  // Grow by two mid-stream, shrink by one later: the resize is semantically
  // invisible — in-flight partial matches follow their keys to the new
  // owners, so the match set equals the fault-free reference exactly.
  const FaultInjector faults =
      ParseFaults("resize:at=600,delta=+2;resize:at=1800,delta=-1");
  for (const int num_shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardRuntimeOptions opts = BaseOptions(num_shards);
    opts.faults = &faults;
    opts.reshard.max_shards = 12;  // headroom so +2 is never clamped
    auto run = RunWith(opts);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(Canon(run->matches), *reference_);
    ExpectCanonicalOrder(run->matches);
    ExpectAccountingConsistent(*run);
    EXPECT_EQ(run->resizes, 2u);
    EXPECT_EQ(run->final_live_shards, num_shards + 1);
    EXPECT_EQ(run->lost_events, 0u);
    EXPECT_EQ(run->worker_restarts, 0u);
    // Rehashing the key space moves state both times.
    EXPECT_GT(run->migrated_pms, 0u);
    uint64_t in = 0, out = 0;
    for (const ShardResult& s : run->shards) {
      in += s.pms_migrated_in;
      out += s.pms_migrated_out;
    }
    EXPECT_EQ(in, run->migrated_pms);
    EXPECT_EQ(out, run->migrated_pms);

    // The resize points are stream-sequence anchors: bit-for-bit
    // reproducible, in parallel and sequentially.
    auto again = RunWith(opts);
    ASSERT_TRUE(again.ok());
    ExpectSameOutcome(*run, *again);
    auto runtime = ShardRuntime::Create(*nfa_, opts);
    ASSERT_TRUE(runtime.ok());
    auto sequential = (*runtime)->RunSequential(*stream_);
    ASSERT_TRUE(sequential.ok());
    ExpectSameOutcome(*run, *sequential);
  }
}

TEST_F(ChaosTest, ShardScopedResizeAnchorsToTheDonorsDeliveries) {
  // shard=0,at=120 fires once shard 0 has accepted its 120th event — a
  // per-shard anchor, deterministic under hash routing.
  const FaultInjector faults = ParseFaults("resize:shard=0,at=120,delta=+1");
  ShardRuntimeOptions opts = BaseOptions(2);
  opts.faults = &faults;
  opts.reshard.max_shards = 4;
  auto run = RunWith(opts);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->resizes, 1u);
  EXPECT_EQ(run->final_live_shards, 3);
  EXPECT_EQ(Canon(run->matches), *reference_);
  ExpectAccountingConsistent(*run);

  auto runtime = ShardRuntime::Create(*nfa_, opts);
  ASSERT_TRUE(runtime.ok());
  auto sequential = (*runtime)->RunSequential(*stream_);
  ASSERT_TRUE(sequential.ok());
  ExpectSameOutcome(*run, *sequential);
}

TEST_F(ChaosTest, ResizeClampsAtTheProvisionedBounds) {
  // Shrink below min_shards and grow above max_shards are clamped to
  // no-ops: no resize executes, nothing migrates, the run is untouched.
  const FaultInjector faults =
      ParseFaults("resize:at=300,delta=-5;resize:at=700,delta=+9");
  ShardRuntimeOptions opts = BaseOptions(2);
  opts.faults = &faults;
  opts.reshard.min_shards = 2;
  opts.reshard.max_shards = 2;
  auto run = RunWith(opts);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->resizes, 0u);
  EXPECT_EQ(run->migrated_pms, 0u);
  EXPECT_EQ(run->final_live_shards, 2);
  EXPECT_EQ(Canon(run->matches), *reference_);
}

TEST_F(ChaosTest, DeathDuringMigrationDrainIsResolvedAtTheBarrier) {
  // The donor's worker dies on its 40th consume; whether the router first
  // notices at a push timeout or at the migration barrier's drain, the
  // outcome is the same: one restart, exactly the poisoned event lost, and
  // the resize then completes normally.
  const FaultInjector faults =
      ParseFaults("death:shard=0,at=40;resize:at=600,delta=+1");
  for (const int num_shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardRuntimeOptions opts = BaseOptions(num_shards);
    opts.faults = &faults;
    opts.reshard.max_shards = 12;
    opts.max_worker_restarts = 1;
    auto run = RunWith(opts);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_EQ(run->worker_restarts, 1u);
    EXPECT_EQ(run->shards_abandoned, 0);
    EXPECT_EQ(run->lost_events, 1u);
    EXPECT_EQ(run->resizes, 1u);
    EXPECT_EQ(run->final_live_shards, num_shards + 1);
    ExpectSubsetOf(run->matches, *reference_);
    ExpectCanonicalOrder(run->matches);
    ExpectAccountingConsistent(*run);

    auto again = RunWith(opts);
    ASSERT_TRUE(again.ok());
    ExpectSameOutcome(*run, *again);
    auto runtime = ShardRuntime::Create(*nfa_, opts);
    ASSERT_TRUE(runtime.ok());
    auto sequential = (*runtime)->RunSequential(*stream_);
    ASSERT_TRUE(sequential.ok());
    ExpectSameOutcome(*run, *sequential);
  }
}

TEST_F(ChaosTest, DeathOnTheRecipientAfterResumeIsRestarted) {
  // Shard 2 exists only after the grow at seq 600; it adopts migrated
  // state, then its worker dies on its 10th delivered event. The restart
  // must not disturb the adopted partial matches beyond the one poisoned
  // event.
  const FaultInjector faults =
      ParseFaults("resize:at=600,delta=+1;death:shard=2,at=10");
  ShardRuntimeOptions opts = BaseOptions(2);
  opts.faults = &faults;
  opts.reshard.max_shards = 4;
  opts.max_worker_restarts = 1;
  auto run = RunWith(opts);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->resizes, 1u);
  EXPECT_EQ(run->final_live_shards, 3);
  EXPECT_EQ(run->worker_restarts, 1u);
  EXPECT_EQ(run->shards[2].worker_restarts, 1u);
  EXPECT_EQ(run->lost_events, 1u);
  EXPECT_GT(run->shards[2].pms_migrated_in, 0u);
  ExpectSubsetOf(run->matches, *reference_);
  ExpectAccountingConsistent(*run);

  auto again = RunWith(opts);
  ASSERT_TRUE(again.ok());
  ExpectSameOutcome(*run, *again);
  auto runtime = ShardRuntime::Create(*nfa_, opts);
  ASSERT_TRUE(runtime.ok());
  auto sequential = (*runtime)->RunSequential(*stream_);
  ASSERT_TRUE(sequential.ok());
  ExpectSameOutcome(*run, *sequential);
}

TEST_F(ChaosTest, AbandonedDonorStillDonatesItsFrozenState) {
  // Shard 0 exhausts its restart budget long before the resize. The grow
  // must still complete: the abandoned shard's engine state is frozen, and
  // whatever partial matches rehash to the new shard move there — keys
  // that leave the dead shard resume matching.
  const FaultInjector faults = ParseFaults(
      "death:shard=0,at=40;death:shard=0,at=90;resize:at=600,delta=+1");
  ShardRuntimeOptions opts = BaseOptions(2);
  opts.faults = &faults;
  opts.reshard.max_shards = 4;
  opts.max_worker_restarts = 1;
  auto run = RunWith(opts);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_EQ(run->shards_abandoned, 1);
  EXPECT_TRUE(run->shards[0].abandoned);
  EXPECT_EQ(run->resizes, 1u);
  EXPECT_EQ(run->final_live_shards, 3);
  EXPECT_GT(run->matches.size(), 0u);
  ExpectSubsetOf(run->matches, *reference_);
  ExpectCanonicalOrder(run->matches);
  ExpectAccountingConsistent(*run);

  auto runtime = ShardRuntime::Create(*nfa_, opts);
  ASSERT_TRUE(runtime.ok());
  auto sequential = (*runtime)->RunSequential(*stream_);
  ASSERT_TRUE(sequential.ok());
  ExpectSameOutcome(*run, *sequential);
}

TEST_F(ChaosTest, DynamicScaleUpRecordsAndReplaysAsAScript) {
  // Baseline latency for a guard theta, as in GuardEscalatesUnderBurst.
  auto baseline = RunWith(BaseOptions(1));
  ASSERT_TRUE(baseline.ok());
  const double base_mu = baseline->shards[0].avg_latency;
  ASSERT_GT(base_mu, 0.0);

  // A long 40x burst drives the guard to shedding; the controller watches
  // the guard ladder (the queue signal is neutralized: grow fraction above
  // 1 is unreachable, shrink below 0 never idles) and grows. Dynamic
  // decisions read a racy guard level, so the run itself is not replay-
  // deterministic — instead the resize tap records every executed resize
  // and the recorded schedule must replay bit for bit, parallel and
  // sequential.
  const FaultInjector burst = ParseFaults("burst:at=1200,count=900,factor=40");
  ShardRuntimeOptions opts = DeterministicGuardOptions(BaseOptions(1));
  opts.faults = &burst;
  opts.guard.theta = 2.0 * base_mu;
  // A queue smaller than the stream: the router is paced by the burdened
  // worker, so its periodic checks observe the published guard level
  // while the burst is actually in progress.
  opts.queue_capacity = 256;
  opts.reshard.enabled = true;
  opts.reshard.max_shards = 4;
  opts.reshard.check_every = 64;
  opts.reshard.grow_after = 2;
  opts.reshard.min_dwell = 256;
  opts.reshard.queue_grow_fraction = 1.5;
  opts.reshard.queue_shrink_fraction = -1.0;
  opts.reshard.guard_hot_level = static_cast<int>(GuardLevel::kShedding);
  std::vector<std::pair<uint64_t, int>> recorded;  // (seq, delta)
  opts.resize_tap = [&recorded](uint64_t seq, int old_live, int new_live) {
    recorded.push_back({seq, new_live - old_live});
  };
  auto run = RunWith(opts);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_GE(run->resizes, 1u);
  EXPECT_GT(run->final_live_shards, 1);
  EXPECT_EQ(run->resizes, recorded.size());
  ExpectSubsetOf(run->matches, *reference_);
  ExpectCanonicalOrder(run->matches);
  ExpectAccountingConsistent(*run);

  // Fold the recorded resizes into a scripted schedule and replay with the
  // controller off.
  std::string spec = burst.ToString();
  for (const auto& [seq, delta] : recorded) {
    spec += ";resize:at=" + std::to_string(seq) +
            ",delta=" + std::to_string(delta);
  }
  const FaultInjector replay_faults = ParseFaults(spec);
  ShardRuntimeOptions replay = opts;
  replay.faults = &replay_faults;
  replay.reshard.enabled = false;
  replay.resize_tap = nullptr;
  auto replayed = RunWith(replay);
  ASSERT_TRUE(replayed.ok()) << replayed.status().message();
  ExpectSameOutcome(*run, *replayed);
  auto runtime = ShardRuntime::Create(*nfa_, replay);
  ASSERT_TRUE(runtime.ok());
  auto sequential = (*runtime)->RunSequential(*stream_);
  ASSERT_TRUE(sequential.ok());
  ExpectSameOutcome(*run, *sequential);
}

TEST_F(ChaosTest, ElasticPlansAreValidated) {
  const FaultInjector resize = ParseFaults("resize:at=100,delta=+1");

  // Window-slice routing pins slices to their owners — resizes are
  // rejected at plan time.
  ShardRuntimeOptions slice = BaseOptions(2);
  slice.routing = ShardRouting::kWindowSlice;
  slice.faults = &resize;
  EXPECT_EQ(ShardRuntime::Create(*nfa_, slice).status().code(),
            StatusCode::kInvalidArgument);

  // Elastic hash routing needs a partition attribute even for a run that
  // starts single-sharded: it can grow.
  ShardRuntimeOptions no_attr = BaseOptions(1);
  no_attr.partition_attr = -1;
  no_attr.faults = &resize;
  EXPECT_EQ(ShardRuntime::Create(*nfa_, no_attr).status().code(),
            StatusCode::kInvalidArgument);

  // min_shards must stay positive.
  ShardRuntimeOptions bad_min = BaseOptions(2);
  bad_min.faults = &resize;
  bad_min.reshard.min_shards = 0;
  EXPECT_EQ(ShardRuntime::Create(*nfa_, bad_min).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace cepshed
