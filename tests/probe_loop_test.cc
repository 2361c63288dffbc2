// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The probe loop's two shortcuts (DESIGN.md §3.12), tested on their own
// terms; probe_golden_test pins their end-to-end bit identity.
//  - AddRepeated, the closed-form charge of a ghost run, must equal n
//    sequential adds bit for bit: seeded property over power-of-two and
//    other addends, binade crossings, and sums up to and past 2^52.
//  - The index-implied join predicate fires only under an int or string
//    node key, never changes a match, and charges what evaluation would.
//  - PartialMatch keeps its size: ghost runs live in the index buckets,
//    not in the match.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cep/engine.h"
#include "src/cep/event.h"
#include "src/cep/nfa.h"
#include "src/cep/partial_match.h"
#include "src/cep/schema.h"
#include "src/common/rng.h"
#include "src/query/parser.h"

namespace cepshed {
namespace {

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

double Sequential(double sum, double addend, uint64_t n) {
  for (; n > 0; --n) sum += addend;
  return sum;
}

void ExpectExact(double sum, double addend, uint64_t n) {
  EXPECT_EQ(Bits(AddRepeated(sum, addend, n)), Bits(Sequential(sum, addend, n)))
      << "sum=" << sum << " addend=" << addend << " n=" << n;
}

TEST(AddRepeatedTest, MatchesSequentialAddsOnSeededCases) {
  Rng rng(1234);
  const double addends[] = {0.25, 0.5, 1.0, 2.0, 0.125, 1.0 / 1024, 64.0, 0x1p-30,
                            0.05, 0.1, 0.3, 0.75, 3.0, 1.0 / 3.0};
  for (int i = 0; i < 20000; ++i) {
    const double addend = addends[rng.Next() % (sizeof(addends) / sizeof(addends[0]))];
    // Sums spread over binades from 2^-20 to 2^52, with random mantissas.
    const int e = static_cast<int>(rng.Next() % 73) - 20;
    double sum = std::ldexp(rng.UniformDouble(1.0, 2.0), e);
    if (rng.Bernoulli(0.3)) {
      // A few adds below a binade boundary, with random low bits: the run
      // crosses it, and the crossing add may have to round.
      const double ulp = std::ldexp(1.0, e - 52);
      sum = std::ldexp(1.0, e + 1) - addend * static_cast<double>(rng.Next() % 64) -
            ulp * static_cast<double>(rng.Next() % 16);
      if (!(sum >= 0.0)) sum = 0.0;
    }
    const uint64_t n = rng.Next() % 3000;
    ExpectExact(sum, addend, n);
  }
}

TEST(AddRepeatedTest, LongRunsCrossManyBinades) {
  for (double addend : {0.25, 0.5, 1.0 / 64, 0.1}) {
    for (double sum : {0.0, 1.0, 3.1, 1000.37, 12345.678}) {
      ExpectExact(sum, addend, 1u << 22);
    }
  }
}

TEST(AddRepeatedTest, HugeSumsAbsorbOrRoundLikeTheLoop) {
  // At and past 2^52 the addend falls to or below half an ulp: each add
  // rounds (ties to even) or is absorbed outright.
  for (double addend : {0.25, 0.5, 1.0, 2.0}) {
    for (double sum : {0x1p52, 0x1p52 + 1.0, 0x1p53, 0x1p53 + 2.0, 0x1p54 + 4.0,
                       0x1p52 - 0.75, 0x1p51 + 0.5}) {
      for (uint64_t n : {1u, 2u, 3u, 17u, 1000u, 100000u}) ExpectExact(sum, addend, n);
    }
  }
}

TEST(AddRepeatedTest, EdgeInputsFallBackToTheLoop) {
  ExpectExact(0.0, 0.25, 0);
  ExpectExact(5.0, 0.25, 1);
  ExpectExact(-3.0, 0.25, 100);  // negative sum
  ExpectExact(3.0, -0.25, 100);  // negative addend
  ExpectExact(1e300, 0x1p970, 100);
  ExpectExact(0x1p-1070, 0x1p-1074, 100);  // subnormals
  EXPECT_TRUE(std::isnan(AddRepeated(std::nan(""), 0.25, 20)));
}

// --- index-implied join predicate ---------------------------------------

class ImpliedPredicateTest : public ::testing::Test {
 protected:
  ImpliedPredicateTest() {
    (void)schema_.AddEventType("A");
    (void)schema_.AddEventType("B");
    (void)schema_.AddAttribute("K", ValueType::kInt);
    (void)schema_.AddAttribute("S", ValueType::kString);
  }

  void Add(const std::string& type, Value k, Value s = Value()) {
    std::vector<Value> attrs(schema_.num_attributes());
    attrs[static_cast<size_t>(schema_.AttributeIndex("K"))] = std::move(k);
    attrs[static_cast<size_t>(schema_.AttributeIndex("S"))] = std::move(s);
    const uint64_t seq = events_.size();
    events_.push_back(std::make_shared<Event>(schema_.EventTypeId(type),
                                              static_cast<Timestamp>(seq), seq,
                                              std::move(attrs)));
  }

  struct Run {
    std::vector<std::string> keys;
    EngineStats stats;
    uint64_t implied = 0;
  };

  Run Execute(const std::string& where, EngineOptions options) const {
    auto q = ParseQuery("PATTERN SEQ(A a, B b) WHERE " + where + " WITHIN 1s");
    EXPECT_TRUE(q.ok()) << q.status();
    auto nfa = Nfa::Compile(std::move(q).value(), &schema_);
    EXPECT_TRUE(nfa.ok()) << nfa.status();
    Engine engine(*nfa, options);
    std::vector<Match> out;
    for (const EventPtr& e : events_) engine.Process(e, &out);
    Run r;
    for (const Match& m : out) r.keys.push_back(m.Key());
    r.stats = engine.stats();
    r.implied = engine.ImpliedPredicates();
    return r;
  }

  /// Runs `where` three ways: indexed on the VM (the elision may fire),
  /// indexed on the tree interpreter (it never does), and unindexed.
  /// Matches agree across all three; the two indexed runs agree on every
  /// counter and on the cost bits, so the elided charge is the evaluated
  /// one. Returns the elision count of the VM run.
  uint64_t CheckAgainstReferences(const std::string& where) const {
    EngineOptions vm;
    EngineOptions interp;
    interp.use_pred_vm = false;
    EngineOptions unindexed;
    unindexed.use_join_index = false;
    const Run a = Execute(where, vm);
    const Run b = Execute(where, interp);
    const Run c = Execute(where, unindexed);
    EXPECT_EQ(a.keys, c.keys);
    EXPECT_EQ(b.keys, c.keys);
    EXPECT_EQ(b.implied, 0u);
    EXPECT_EQ(a.stats.predicate_evals, b.stats.predicate_evals);
    EXPECT_EQ(a.stats.candidates_scanned, b.stats.candidates_scanned);
    EXPECT_EQ(a.stats.pms_created, b.stats.pms_created);
    EXPECT_EQ(Bits(a.stats.total_cost), Bits(b.stats.total_cost));
    return a.implied;
  }

  Schema schema_;
  std::vector<EventPtr> events_;
};

TEST_F(ImpliedPredicateTest, IntNodeKeysElide) {
  for (int i = 0; i < 6; ++i) Add("A", Value(static_cast<int64_t>(i % 3)));
  for (int i = 0; i < 3; ++i) Add("B", Value(static_cast<int64_t>(i)));
  // Each B hits a bucket of two As under an int node key.
  EXPECT_EQ(CheckAgainstReferences("a.K = b.K"), 6u);
}

TEST_F(ImpliedPredicateTest, DoubleNodeKeyBeyond2Pow53DoesNotElide) {
  const int64_t big = int64_t{1} << 54;
  // The first insert makes the node key a double; the int that Equals it
  // (exactly representable, so it hashes alike) joins the same bucket.
  Add("A", Value(static_cast<double>(big)));
  Add("A", Value(big));
  // An int node past 2^53 that a double joins: this one may elide.
  Add("A", Value(big + 4));
  Add("A", Value(static_cast<double>(big + 4)));
  Add("B", Value(big));                        // hits the double node
  Add("B", Value(static_cast<double>(big)));   // hits the double node
  Add("B", Value(big + 4));                    // hits the int node
  Add("B", Value(static_cast<double>(big + 4)));  // hits the int node
  // Only the two int-node probes (two candidates each) elide.
  EXPECT_EQ(CheckAgainstReferences("a.K = b.K"), 4u);
}

// Past 2^53 not every int has a double of its own: Equals() compares the
// int 2^53 + 1 with a double by rounding it to 2^53. Such an int never
// keys a bucket; as a probe it looks up the bucket of the double it
// rounds to, without elision, since that bucket's ints need not Equal it.
TEST_F(ImpliedPredicateTest, InexactIntProbeFindsTheDoubleItRoundsTo) {
  const int64_t two53 = int64_t{1} << 53;
  Add("A", Value(two53));  // an int node; the double joins its bucket
  Add("A", Value(static_cast<double>(two53)));
  Add("B", Value(two53 + 1));  // Equals the double, not the int
  EXPECT_EQ(CheckAgainstReferences("a.K = b.K"), 0u);
  EXPECT_EQ(Execute("a.K = b.K", EngineOptions()).keys.size(), 1u);
}

TEST_F(ImpliedPredicateTest, InexactIntBuildKeyIsFoundByADoubleProbe) {
  const int64_t two53 = int64_t{1} << 53;
  Add("A", Value(two53 + 1));
  Add("A", Value(two53 + 3));  // rounds to 2^53 + 4
  Add("B", Value(static_cast<double>(two53)));  // Equals the first A
  Add("B", Value(two53 + 1));                   // so does this int
  CheckAgainstReferences("a.K = b.K");
  EXPECT_EQ(Execute("a.K = b.K", EngineOptions()).keys.size(), 2u);
}

TEST_F(ImpliedPredicateTest, StringKeysElide) {
  for (const char* s : {"x", "y", "x", "z"}) Add("A", Value(), Value(std::string(s)));
  for (const char* s : {"x", "z", "w"}) Add("B", Value(), Value(std::string(s)));
  EXPECT_EQ(CheckAgainstReferences("a.S = b.S"), 3u);
}

TEST_F(ImpliedPredicateTest, NullKeysStayUnkeyed) {
  // Null build keys go to the unkeyed list, whose candidates are always
  // evaluated; a null probe skips the map entirely.
  Add("A", Value());
  Add("A", Value(int64_t{5}));
  Add("A", Value());
  Add("B", Value(int64_t{5}));
  Add("B", Value());
  EXPECT_EQ(CheckAgainstReferences("a.K = b.K"), 1u);
}

TEST_F(ImpliedPredicateTest, OnlyTheSourcePredicateElidesInOrder) {
  // A failing predicate ahead of the join key stops evaluation before the
  // elided one is reached; one after it still runs.
  for (int i = 0; i < 8; ++i) {
    Add("A", Value(static_cast<int64_t>(i % 2)), Value(std::string(i % 4 < 2 ? "p" : "q")));
  }
  for (int i = 0; i < 4; ++i) {
    Add("B", Value(static_cast<int64_t>(i % 2)), Value(std::string(i < 2 ? "p" : "q")));
  }
  CheckAgainstReferences("b.S = 'p' AND a.K = b.K AND a.S = b.S");
  CheckAgainstReferences("a.K = b.K AND a.S = b.S");
}

TEST(PartialMatchLayoutTest, SizeAndFixedBytesUnchanged) {
  // Ghost runs are tagged index entries, not fields of the match: the
  // match stays 144 bytes on LP64 and its accounted footprint with it
  // (cep.state_bytes_peak derives from FixedBytes).
  if constexpr (sizeof(void*) == 8) {
    EXPECT_EQ(sizeof(PartialMatch), 144u);
    PartialMatch pm;
    pm.slot_end.reserve(3);
    // 32: the store's per-entry allocator/indirection allowance.
    EXPECT_EQ(PartialMatchStore::FixedBytes(pm),
              144u + pm.slot_end.capacity() * sizeof(uint32_t) + 32u);
  }
}

}  // namespace
}  // namespace cepshed
