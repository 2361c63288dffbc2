// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Reference CART fits for tests: the straightforward sort-per-node
// construction of RegressionTree and DecisionTree. Every node sorts its
// rows' (value, ...) pairs per feature and scans the split points. The
// production trees presort each feature once and partition the orders per
// split; they must build the same trees bit for bit, which ml_test checks
// against these oracles.

#ifndef CEPSHED_TESTS_CART_ORACLE_H_
#define CEPSHED_TESTS_CART_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

namespace cepshed {
namespace oracle {

struct Node {
  int feature = -1;  // -1 for leaves
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  int leaf_index = -1;  // regression leaves
  int label = 0;        // classifier majority class
};

/// Walks `nodes` like the production trees' Predict/PredictLeaf.
inline int Descend(const std::vector<Node>& nodes, const std::vector<double>& x) {
  int node = 0;
  while (nodes[static_cast<size_t>(node)].feature >= 0) {
    const Node& nd = nodes[static_cast<size_t>(node)];
    if (static_cast<size_t>(nd.feature) >= x.size()) break;
    node = x[static_cast<size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
  return node;
}

/// Sort-per-node multi-target regression tree (RegressionTree semantics).
class RegressionTreeOracle {
 public:
  struct Leaf {
    size_t count = 0;
    std::vector<double> mean;
  };

  void Fit(const std::vector<std::vector<double>>& x,
           const std::vector<std::vector<double>>& y, int max_depth,
           int min_samples_leaf, double min_gain) {
    max_depth_ = max_depth;
    min_samples_leaf_ = min_samples_leaf;
    min_gain_ = min_gain;
    num_features_ = x[0].size();
    num_targets_ = y[0].size();
    std::vector<double> mean(num_targets_, 0.0);
    std::vector<double> scale(num_targets_, 1.0);
    for (const auto& row : y) {
      for (size_t t = 0; t < num_targets_; ++t) mean[t] += row[t];
    }
    for (auto& m : mean) m /= static_cast<double>(y.size());
    for (const auto& row : y) {
      for (size_t t = 0; t < num_targets_; ++t) {
        const double d = row[t] - mean[t];
        scale[t] += d * d;
      }
    }
    for (auto& s : scale) s = std::sqrt(s / static_cast<double>(y.size()));
    std::vector<std::vector<double>> y_norm(y.size(),
                                            std::vector<double>(num_targets_));
    for (size_t i = 0; i < y.size(); ++i) {
      for (size_t t = 0; t < num_targets_; ++t) {
        y_norm[i][t] = scale[t] > 0.0 ? y[i][t] / scale[t] : 0.0;
      }
    }
    nodes.clear();
    leaves.clear();
    training_leaves.assign(x.size(), 0);
    std::vector<uint32_t> indices(x.size());
    std::iota(indices.begin(), indices.end(), 0u);
    Build(x, y_norm, indices, 0, indices.size(), 0, y);
  }

  int PredictLeaf(const std::vector<double>& x) const {
    const int leaf = nodes[static_cast<size_t>(Descend(nodes, x))].leaf_index;
    return leaf >= 0 ? leaf : 0;
  }

  std::vector<Node> nodes;
  std::vector<Leaf> leaves;
  std::vector<int> training_leaves;

 private:
  int Build(const std::vector<std::vector<double>>& x,
            const std::vector<std::vector<double>>& y_norm,
            std::vector<uint32_t>& indices, size_t begin, size_t end, int depth,
            const std::vector<std::vector<double>>& y_raw) {
    const size_t n = end - begin;
    const int node_id = static_cast<int>(nodes.size());
    nodes.push_back(Node{});

    std::vector<double> sum(num_targets_, 0.0);
    std::vector<double> sum_sq(num_targets_, 0.0);
    for (size_t i = begin; i < end; ++i) {
      const auto& row = y_norm[indices[i]];
      for (size_t t = 0; t < num_targets_; ++t) {
        sum[t] += row[t];
        sum_sq[t] += row[t] * row[t];
      }
    }
    double node_sse = 0.0;
    for (size_t t = 0; t < num_targets_; ++t) {
      node_sse += sum_sq[t] - sum[t] * sum[t] / static_cast<double>(n);
    }

    auto make_leaf = [&]() {
      Leaf leaf;
      leaf.count = n;
      leaf.mean.assign(num_targets_, 0.0);
      for (size_t i = begin; i < end; ++i) {
        const auto& row = y_raw[indices[i]];
        for (size_t t = 0; t < num_targets_; ++t) leaf.mean[t] += row[t];
      }
      for (auto& m : leaf.mean) m /= static_cast<double>(n);
      const int leaf_index = static_cast<int>(leaves.size());
      for (size_t i = begin; i < end; ++i) training_leaves[indices[i]] = leaf_index;
      nodes[static_cast<size_t>(node_id)].leaf_index = leaf_index;
      leaves.push_back(std::move(leaf));
      return node_id;
    };

    if (depth >= max_depth_ || n < 2 * static_cast<size_t>(min_samples_leaf_) ||
        node_sse <= 1e-12) {
      return make_leaf();
    }

    int best_feature = -1;
    double best_threshold = 0.0;
    double best_sse = node_sse * (1.0 - min_gain_);
    std::vector<std::pair<double, uint32_t>> column(n);
    std::vector<double> left_sum(num_targets_);
    std::vector<double> left_sq(num_targets_);
    for (size_t f = 0; f < num_features_; ++f) {
      for (size_t i = 0; i < n; ++i) {
        const uint32_t idx = indices[begin + i];
        column[i] = {x[idx][f], idx};
      }
      std::sort(column.begin(), column.end());
      std::fill(left_sum.begin(), left_sum.end(), 0.0);
      std::fill(left_sq.begin(), left_sq.end(), 0.0);
      for (size_t i = 0; i + 1 < n; ++i) {
        const auto& row = y_norm[column[i].second];
        for (size_t t = 0; t < num_targets_; ++t) {
          left_sum[t] += row[t];
          left_sq[t] += row[t] * row[t];
        }
        if (column[i].first == column[i + 1].first) continue;
        const size_t nl = i + 1;
        const size_t nr = n - nl;
        if (nl < static_cast<size_t>(min_samples_leaf_) ||
            nr < static_cast<size_t>(min_samples_leaf_)) {
          continue;
        }
        double sse = 0.0;
        for (size_t t = 0; t < num_targets_; ++t) {
          const double rl =
              left_sq[t] - left_sum[t] * left_sum[t] / static_cast<double>(nl);
          const double rs = sum[t] - left_sum[t];
          const double rq = sum_sq[t] - left_sq[t];
          const double rr = rq - rs * rs / static_cast<double>(nr);
          sse += rl + rr;
        }
        if (sse < best_sse) {
          best_sse = sse;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (column[i].first + column[i + 1].first);
        }
      }
    }
    if (best_feature < 0) return make_leaf();

    auto mid_it = std::partition(
        indices.begin() + static_cast<ptrdiff_t>(begin),
        indices.begin() + static_cast<ptrdiff_t>(end), [&](uint32_t idx) {
          return x[idx][static_cast<size_t>(best_feature)] <= best_threshold;
        });
    const size_t mid = static_cast<size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end) return make_leaf();

    nodes[static_cast<size_t>(node_id)].feature = best_feature;
    nodes[static_cast<size_t>(node_id)].threshold = best_threshold;
    const int left = Build(x, y_norm, indices, begin, mid, depth + 1, y_raw);
    nodes[static_cast<size_t>(node_id)].left = left;
    const int right = Build(x, y_norm, indices, mid, end, depth + 1, y_raw);
    nodes[static_cast<size_t>(node_id)].right = right;
    return node_id;
  }

  int max_depth_ = 10;
  int min_samples_leaf_ = 50;
  double min_gain_ = 1e-4;
  size_t num_features_ = 0;
  size_t num_targets_ = 0;
};

/// Sort-per-node Gini classifier (DecisionTree semantics).
class DecisionTreeOracle {
 public:
  void Fit(const std::vector<std::vector<double>>& x, const std::vector<int>& y,
           int max_depth, int min_samples_leaf, double purity_stop) {
    max_depth_ = max_depth;
    min_samples_leaf_ = min_samples_leaf;
    purity_stop_ = purity_stop;
    num_features_ = x[0].size();
    num_classes_ = 0;
    for (int label : y) num_classes_ = std::max(num_classes_, label + 1);
    nodes.clear();
    std::vector<uint32_t> indices(x.size());
    std::iota(indices.begin(), indices.end(), 0u);
    Build(x, y, indices, 0, indices.size(), 0);
  }

  int Predict(const std::vector<double>& x) const {
    return nodes[static_cast<size_t>(Descend(nodes, x))].label;
  }

  std::vector<Node> nodes;

 private:
  static double Gini(const std::vector<double>& counts, double total) {
    if (total <= 0.0) return 0.0;
    double g = 1.0;
    for (double c : counts) {
      const double p = c / total;
      g -= p * p;
    }
    return g;
  }

  int Build(const std::vector<std::vector<double>>& x, const std::vector<int>& y,
            std::vector<uint32_t>& indices, size_t begin, size_t end, int depth) {
    const size_t n = end - begin;
    std::vector<double> counts(static_cast<size_t>(num_classes_), 0.0);
    for (size_t i = begin; i < end; ++i) {
      counts[static_cast<size_t>(y[indices[i]])] += 1.0;
    }
    int majority = 0;
    for (int c = 1; c < num_classes_; ++c) {
      if (counts[static_cast<size_t>(c)] > counts[static_cast<size_t>(majority)]) {
        majority = c;
      }
    }
    const double purity = counts[static_cast<size_t>(majority)] / static_cast<double>(n);

    const int node_id = static_cast<int>(nodes.size());
    nodes.push_back(Node{});
    nodes[static_cast<size_t>(node_id)].label = majority;

    if (depth >= max_depth_ || purity >= purity_stop_ ||
        n < 2 * static_cast<size_t>(min_samples_leaf_)) {
      return node_id;
    }

    const double parent_gini = Gini(counts, static_cast<double>(n));
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_score = parent_gini - 1e-9;
    std::vector<std::pair<double, int>> column(n);
    std::vector<double> left_counts(static_cast<size_t>(num_classes_));
    for (size_t f = 0; f < num_features_; ++f) {
      for (size_t i = 0; i < n; ++i) {
        const uint32_t idx = indices[begin + i];
        column[i] = {x[idx][f], y[idx]};
      }
      std::sort(column.begin(), column.end());
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      std::vector<double> right_counts = counts;
      for (size_t i = 0; i + 1 < n; ++i) {
        left_counts[static_cast<size_t>(column[i].second)] += 1.0;
        right_counts[static_cast<size_t>(column[i].second)] -= 1.0;
        if (column[i].first == column[i + 1].first) continue;
        const size_t nl = i + 1;
        const size_t nr = n - nl;
        if (nl < static_cast<size_t>(min_samples_leaf_) ||
            nr < static_cast<size_t>(min_samples_leaf_)) {
          continue;
        }
        const double score =
            (static_cast<double>(nl) * Gini(left_counts, static_cast<double>(nl)) +
             static_cast<double>(nr) * Gini(right_counts, static_cast<double>(nr))) /
            static_cast<double>(n);
        if (score < best_score) {
          best_score = score;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (column[i].first + column[i + 1].first);
        }
      }
    }
    if (best_feature < 0) return node_id;

    auto mid_it = std::partition(
        indices.begin() + static_cast<ptrdiff_t>(begin),
        indices.begin() + static_cast<ptrdiff_t>(end), [&](uint32_t idx) {
          return x[idx][static_cast<size_t>(best_feature)] <= best_threshold;
        });
    const size_t mid = static_cast<size_t>(mid_it - indices.begin());
    if (mid == begin || mid == end) return node_id;

    nodes[static_cast<size_t>(node_id)].feature = best_feature;
    nodes[static_cast<size_t>(node_id)].threshold = best_threshold;
    const int left = Build(x, y, indices, begin, mid, depth + 1);
    nodes[static_cast<size_t>(node_id)].left = left;
    const int right = Build(x, y, indices, mid, end, depth + 1);
    nodes[static_cast<size_t>(node_id)].right = right;
    return node_id;
  }

  int max_depth_ = 8;
  int min_samples_leaf_ = 2;
  double purity_stop_ = 0.999;
  size_t num_features_ = 0;
  int num_classes_ = 0;
};

}  // namespace oracle
}  // namespace cepshed

#endif  // CEPSHED_TESTS_CART_ORACLE_H_
