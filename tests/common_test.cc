// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Unit tests for the common substrate: Status/Result, Value, Rng.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/value.h"

namespace cepshed {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad window");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad window");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    CEPSHED_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::OutOfRange("too big"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool ok) -> Result<int> {
    if (ok) return 7;
    return Status::Internal("no");
  };
  auto use = [&](bool ok) -> Result<int> {
    int v = 0;
    CEPSHED_ASSIGN_OR_RETURN(v, produce(ok));
    return v + 1;
  };
  EXPECT_EQ(*use(true), 8);
  EXPECT_EQ(use(false).status().code(), StatusCode::kInternal);
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(3).type(), ValueType::kInt);
  EXPECT_EQ(Value(3.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value("abc").type(), ValueType::kString);
  EXPECT_EQ(Value(3).AsInt(), 3);
  EXPECT_DOUBLE_EQ(Value(3.5).AsDouble(), 3.5);
  EXPECT_EQ(Value("abc").AsString(), "abc");
}

TEST(ValueTest, NumericPromotionInEquality) {
  EXPECT_TRUE(Value(2).Equals(Value(2.0)));
  EXPECT_FALSE(Value(2).Equals(Value(2.5)));
  EXPECT_TRUE(Value(2).Equals(Value(2)));
}

TEST(ValueTest, NullComparesUnequalToEverything) {
  EXPECT_FALSE(Value().Equals(Value()));
  EXPECT_FALSE(Value().Equals(Value(0)));
  EXPECT_EQ(Value().Compare(Value(1)), -2);
}

TEST(ValueTest, CompareOrdersNumbersAndStrings) {
  EXPECT_EQ(Value(1).Compare(Value(2)), -1);
  EXPECT_EQ(Value(2).Compare(Value(2)), 0);
  EXPECT_EQ(Value(3.5).Compare(Value(2)), 1);
  EXPECT_EQ(Value("a").Compare(Value("b")), -1);
  EXPECT_EQ(Value("a").Compare(Value(1)), -2);  // incomparable
}

TEST(ValueTest, EqualValuesHashEqually) {
  EXPECT_EQ(Value(2).Hash(), Value(2.0).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
}

TEST(ValueTest, HashAgreesWithEqualsPast2Pow53) {
  // The int 2^53 + 1 Equals the double 2^53 it rounds to.
  const int64_t two53 = int64_t{1} << 53;
  ASSERT_TRUE(Value(two53 + 1).Equals(Value(static_cast<double>(two53))));
  EXPECT_EQ(Value(two53 + 1).Hash(), Value(static_cast<double>(two53)).Hash());
  // The extremes round to +-2^63; hashing them casts nothing back to int.
  EXPECT_EQ(Value(std::numeric_limits<int64_t>::max()).Hash(), Value(0x1p63).Hash());
  EXPECT_EQ(Value(std::numeric_limits<int64_t>::min()).Hash(), Value(-0x1p63).Hash());
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(6);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(1, 10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(7);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(8);
  double sum = 0;
  double sq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(5.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.2);
}

TEST(RngTest, PoissonMean) {
  Rng rng(9);
  for (double lambda : {0.5, 5.0, 50.0}) {
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.Poisson(lambda));
    EXPECT_NEAR(sum / n, lambda, lambda * 0.1 + 0.1);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(10);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(11);
  std::vector<double> w = {1.0, 3.0};
  int ones = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    if (rng.Categorical(w) == 1) ++ones;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(12);
  Rng b = a.Fork();
  EXPECT_NE(a.Next(), b.Next());
}

}  // namespace
}  // namespace cepshed
