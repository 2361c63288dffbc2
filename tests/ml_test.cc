// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Unit tests for the ML substrate: k-means, gap statistic, decision tree,
// regression tree.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/common/rng.h"
#include "src/ml/decision_tree.h"
#include "src/ml/gap_statistic.h"
#include "src/ml/kmeans.h"
#include "src/ml/regression_tree.h"
#include "tests/cart_oracle.h"

namespace cepshed {
namespace {

// Three well-separated 2D blobs.
std::vector<std::vector<double>> MakeBlobs(Rng* rng, int per_blob = 60) {
  std::vector<std::vector<double>> points;
  const double centers[3][2] = {{0, 0}, {10, 0}, {5, 10}};
  for (const auto& c : centers) {
    for (int i = 0; i < per_blob; ++i) {
      points.push_back({c[0] + rng->Normal(0, 0.5), c[1] + rng->Normal(0, 0.5)});
    }
  }
  return points;
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  Rng rng(1);
  auto points = MakeBlobs(&rng);
  auto result = KMeans(points, 3, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->centroids.size(), 3u);
  // All points of one blob share a label.
  for (int blob = 0; blob < 3; ++blob) {
    const int label = result->labels[static_cast<size_t>(blob * 60)];
    for (int i = 0; i < 60; ++i) {
      EXPECT_EQ(result->labels[static_cast<size_t>(blob * 60 + i)], label);
    }
  }
  EXPECT_LT(result->inertia, 200.0);
}

TEST(KMeansTest, KClampedToPointCount) {
  Rng rng(2);
  std::vector<std::vector<double>> points = {{0.0}, {1.0}};
  auto result = KMeans(points, 10, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->centroids.size(), 2u);
}

TEST(KMeansTest, RejectsBadInput) {
  Rng rng(3);
  EXPECT_FALSE(KMeans({}, 2, &rng).ok());
  EXPECT_FALSE(KMeans({{1.0}}, 0, &rng).ok());
  EXPECT_FALSE(KMeans({{1.0}, {1.0, 2.0}}, 1, &rng).ok());
}

TEST(KMeansTest, WeightedPullsCentroidTowardHeavyPoint) {
  Rng rng(4);
  // Two points, one with 99x the weight; k=1 centroid must sit close to it.
  std::vector<std::vector<double>> points = {{0.0}, {10.0}};
  auto result = KMeansWeighted(points, {99.0, 1.0}, 1, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->centroids[0][0], 1.0);
}

TEST(GapStatisticTest, FindsThreeBlobs) {
  Rng rng(5);
  auto points = MakeBlobs(&rng);
  GapStatisticOptions opts;
  opts.k_min = 1;
  opts.k_max = 6;
  auto result = EstimateClusters(points, opts, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->best_k, 2);
  EXPECT_LE(result->best_k, 4);
}

TEST(GapStatisticTest, SingleBlobYieldsOneCluster) {
  Rng rng(6);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back({rng.Normal(0, 1), rng.Normal(0, 1)});
  }
  GapStatisticOptions opts;
  opts.k_min = 1;
  opts.k_max = 5;
  auto result = EstimateClusters(points, opts, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->best_k, 2);
}

TEST(DecisionTreeTest, LearnsAxisAlignedBoundary) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.UniformDouble(0, 10);
    const double b = rng.UniformDouble(0, 10);
    x.push_back({a, b});
    y.push_back(a + b <= 10.0 ? 0 : 1);
  }
  DecisionTree tree;
  DecisionTree::Options opts;
  opts.max_depth = 8;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  EXPECT_GT(tree.training_accuracy(), 0.95);
  EXPECT_EQ(tree.Predict({1.0, 1.0}), 0);
  EXPECT_EQ(tree.Predict({9.0, 9.0}), 1);
}

TEST(DecisionTreeTest, DepthIsBounded) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    x.push_back({rng.UniformDouble(0, 1)});
    y.push_back(static_cast<int>(rng.UniformInt(0, 3)));
  }
  DecisionTree tree;
  DecisionTree::Options opts;
  opts.max_depth = 3;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  EXPECT_LE(tree.Depth(), 4);  // depth counts nodes on path incl. leaf
}

TEST(DecisionTreeTest, PathsToClassAreConsistentWithPredict) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    const double v = static_cast<double>(i);
    x.push_back({v});
    y.push_back(v < 50 ? 0 : 1);
  }
  DecisionTree tree;
  ASSERT_TRUE(tree.Fit(x, y, DecisionTree::Options{}).ok());
  const auto paths = tree.PathsToClass(0);
  ASSERT_FALSE(paths.empty());
  // A point satisfying a class-0 path must predict class 0.
  for (const auto& path : paths) {
    double probe = 25.0;
    bool satisfied = true;
    for (const auto& cond : path) {
      satisfied &= cond.less_equal ? probe <= cond.threshold : probe > cond.threshold;
    }
    if (satisfied) {
      EXPECT_EQ(tree.Predict({probe}), 0);
    }
  }
}

TEST(DecisionTreeTest, RejectsBadInput) {
  DecisionTree tree;
  EXPECT_FALSE(tree.Fit({}, {}, DecisionTree::Options{}).ok());
  EXPECT_FALSE(tree.Fit({{1.0}}, {0, 1}, DecisionTree::Options{}).ok());
  EXPECT_FALSE(tree.Fit({{1.0}}, {-1}, DecisionTree::Options{}).ok());
}

TEST(RegressionTreeTest, RecoversPiecewiseMeans) {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
  Rng rng(9);
  for (int i = 0; i < 600; ++i) {
    const double a = rng.UniformDouble(0, 10);
    x.push_back({a});
    y.push_back({a < 5 ? 100.0 : 200.0});
  }
  RegressionTree tree;
  RegressionTree::Options opts;
  opts.min_samples_leaf = 20;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  EXPECT_NEAR(tree.Predict({2.0})[0], 100.0, 1.0);
  EXPECT_NEAR(tree.Predict({8.0})[0], 200.0, 1.0);
}

TEST(RegressionTreeTest, IgnoresIrrelevantFeature) {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
  Rng rng(10);
  for (int i = 0; i < 800; ++i) {
    const double useful = rng.UniformDouble(0, 10);
    const double noise = rng.UniformDouble(0, 10);
    x.push_back({noise, useful});
    y.push_back({useful < 5 ? 1.0 : 2.0});
  }
  RegressionTree tree;
  RegressionTree::Options opts;
  opts.max_depth = 2;
  opts.min_samples_leaf = 50;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  // With a single split available, it must pick the informative feature:
  // leaves separated by the useful dimension.
  EXPECT_NEAR(tree.Predict({0.0, 2.0})[0], 1.0, 0.2);
  EXPECT_NEAR(tree.Predict({9.9, 8.0})[0], 2.0, 0.2);
}

TEST(RegressionTreeTest, MultiTargetLeavesCarryBothMeans) {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
  for (int i = 0; i < 200; ++i) {
    const double a = static_cast<double>(i % 2);
    x.push_back({a});
    y.push_back({a * 10.0, 5.0 - a * 5.0});
  }
  RegressionTree tree;
  RegressionTree::Options opts;
  opts.min_samples_leaf = 10;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  const auto& lo = tree.Predict({0.0});
  const auto& hi = tree.Predict({1.0});
  EXPECT_NEAR(lo[0], 0.0, 0.01);
  EXPECT_NEAR(lo[1], 5.0, 0.01);
  EXPECT_NEAR(hi[0], 10.0, 0.01);
  EXPECT_NEAR(hi[1], 0.0, 0.01);
}

TEST(RegressionTreeTest, TrainingLeavesMatchPredictLeaf) {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const double a = rng.UniformDouble(0, 10);
    x.push_back({a});
    y.push_back({a});
  }
  RegressionTree tree;
  RegressionTree::Options opts;
  opts.min_samples_leaf = 10;
  ASSERT_TRUE(tree.Fit(x, y, opts).ok());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(tree.PredictLeaf(x[i]), tree.training_leaves()[i]);
  }
}

// --- Presorted CART vs the sort-per-node oracle ---------------------------

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// One random CART training set: a mix of tie-heavy small-integer columns
/// (like DS1's ID/V with the -1 sentinel), constant columns and continuous
/// float-rounded columns, with targets and labels that depend on them.
struct CartCase {
  std::vector<std::vector<double>> x;
  std::vector<std::vector<double>> y;
  std::vector<int> labels;
  int max_depth = 10;
  int min_samples_leaf = 1;
};

CartCase MakeCartCase(uint64_t seed) {
  Rng rng(seed);
  CartCase c;
  // Tiny sets and the depth / leaf-size edges are drawn often enough to be
  // covered, while most cases still grow multi-level trees.
  static const size_t kSizes[] = {1, 2, 3, 7, 40, 150, 400, 600, 1000, 1500};
  const size_t n = kSizes[rng.UniformInt(0, 9)];
  const size_t d = static_cast<size_t>(rng.UniformInt(1, 6));
  const size_t m = static_cast<size_t>(rng.UniformInt(1, 3));
  enum Kind { kTies, kConstant, kContinuous };
  std::vector<Kind> kinds(d);
  std::vector<int64_t> levels(d);
  for (size_t f = 0; f < d; ++f) {
    const int64_t draw = rng.UniformInt(0, 9);
    kinds[f] = draw < 6 ? kTies : (draw < 8 ? kConstant : kContinuous);
    levels[f] = rng.UniformInt(2, 12);
  }
  const int classes = static_cast<int>(rng.UniformInt(1, 5));
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(d);
    for (size_t f = 0; f < d; ++f) {
      switch (kinds[f]) {
        case kTies:
          row[f] = static_cast<double>(rng.UniformInt(-1, levels[f]));
          break;
        case kConstant:
          row[f] = 3.0;
          break;
        case kContinuous:
          row[f] = static_cast<double>(static_cast<float>(rng.Normal(0, 5)));
          break;
      }
    }
    std::vector<double> target(m);
    for (size_t t = 0; t < m; ++t) {
      // Targets are tie-heavy too (counts, like Gamma+), sometimes constant.
      const double signal = row[t % d] + (t == 0 ? row[(t + 1) % d] : 0.0);
      target[t] = t == 2 ? 1.0 : std::floor(std::fabs(signal) + rng.UniformDouble(0, 2));
    }
    int label = static_cast<int>(std::fabs(row[0])) % classes;
    if (rng.Bernoulli(0.1)) label = static_cast<int>(rng.UniformInt(0, classes - 1));
    c.x.push_back(std::move(row));
    c.y.push_back(std::move(target));
    c.labels.push_back(label);
  }
  static const int kDepths[] = {0, 1, 2, 4, 6, 10, 10, 10};
  c.max_depth = kDepths[rng.UniformInt(0, 7)];
  const size_t leaf_choices[] = {1, 1, 2, 3, 8, 8, std::max<size_t>(1, n / 2),
                                 n / 2 + 1, n};
  c.min_samples_leaf = static_cast<int>(leaf_choices[rng.UniformInt(0, 8)]);
  return c;
}

/// Rows to descend: the training rows, plus up to 200 of them with every
/// feature moved by up to +-1, so that probes land between training values
/// and a threshold placed elsewhere would route some of them differently.
std::vector<std::vector<double>> ProbeRows(const CartCase& c, Rng* rng) {
  std::vector<std::vector<double>> probes = c.x;
  for (size_t i = 0; i < c.x.size() && i < 200; ++i) {
    std::vector<double> row = c.x[i];
    for (double& v : row) v += rng->UniformDouble(-1.0, 1.0);
    probes.push_back(std::move(row));
  }
  return probes;
}

TEST(CartOracleTest, RegressionTreeMatchesSortPerNodeOracle) {
  int split_cases = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const CartCase c = MakeCartCase(seed);
    RegressionTree::Options opts;
    opts.max_depth = c.max_depth;
    opts.min_samples_leaf = c.min_samples_leaf;
    RegressionTree tree;
    ASSERT_TRUE(tree.Fit(c.x, c.y, opts).ok()) << "seed " << seed;
    oracle::RegressionTreeOracle ref;
    ref.Fit(c.x, c.y, opts.max_depth, opts.min_samples_leaf, opts.min_gain);

    ASSERT_EQ(tree.num_nodes(), ref.nodes.size()) << "seed " << seed;
    ASSERT_EQ(tree.num_leaves(), ref.leaves.size()) << "seed " << seed;
    if (tree.num_leaves() > 2) ++split_cases;
    for (size_t l = 0; l < ref.leaves.size(); ++l) {
      const RegressionTree::Leaf& leaf = tree.leaf(static_cast<int>(l));
      EXPECT_EQ(leaf.count, ref.leaves[l].count) << "seed " << seed;
      ASSERT_EQ(leaf.mean.size(), ref.leaves[l].mean.size());
      for (size_t t = 0; t < leaf.mean.size(); ++t) {
        EXPECT_EQ(Bits(leaf.mean[t]), Bits(ref.leaves[l].mean[t]))
            << "seed " << seed << " leaf " << l << " target " << t;
      }
    }
    EXPECT_EQ(tree.training_leaves(), ref.training_leaves) << "seed " << seed;
    Rng probe_rng(seed + 1000);
    for (const auto& row : ProbeRows(c, &probe_rng)) {
      const int leaf = ref.PredictLeaf(row);
      ASSERT_EQ(tree.PredictLeaf(row), leaf) << "seed " << seed;
      const std::vector<double>& mean = tree.Predict(row);
      for (size_t t = 0; t < mean.size(); ++t) {
        EXPECT_EQ(Bits(mean[t]), Bits(ref.leaves[static_cast<size_t>(leaf)].mean[t]));
      }
    }
  }
  // The generator must exercise real multi-level trees, not only stumps.
  EXPECT_GT(split_cases, 60);
}

TEST(CartOracleTest, DecisionTreeMatchesSortPerNodeOracle) {
  int split_cases = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const CartCase c = MakeCartCase(seed);
    DecisionTree::Options opts;
    opts.max_depth = c.max_depth;
    opts.min_samples_leaf = c.min_samples_leaf;
    DecisionTree tree;
    ASSERT_TRUE(tree.Fit(c.x, c.labels, opts).ok()) << "seed " << seed;
    oracle::DecisionTreeOracle ref;
    ref.Fit(c.x, c.labels, opts.max_depth, opts.min_samples_leaf, opts.purity_stop);

    ASSERT_EQ(tree.num_nodes(), ref.nodes.size()) << "seed " << seed;
    if (tree.num_nodes() > 3) ++split_cases;
    Rng probe_rng(seed + 2000);
    size_t correct = 0;
    for (size_t i = 0; i < c.x.size(); ++i) {
      if (ref.Predict(c.x[i]) == c.labels[i]) ++correct;
    }
    EXPECT_EQ(Bits(tree.training_accuracy()),
              Bits(static_cast<double>(correct) / static_cast<double>(c.x.size())))
        << "seed " << seed;
    for (const auto& row : ProbeRows(c, &probe_rng)) {
      ASSERT_EQ(tree.Predict(row), ref.Predict(row)) << "seed " << seed;
    }
  }
  EXPECT_GT(split_cases, 40);
}

}  // namespace
}  // namespace cepshed
