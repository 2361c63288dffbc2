// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/ml/regression_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "src/ml/presort.h"

namespace cepshed {

struct RegressionTree::FitScratch {
  PresortedColumns columns;
  const std::vector<std::vector<double>>& y;
  std::vector<double> y_norm;  // row * num_targets + t
  std::vector<uint32_t> indices;
  const Options& options;
};

Status RegressionTree::Fit(const std::vector<std::vector<double>>& x,
                           const std::vector<std::vector<double>>& y,
                           const Options& options) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("regression tree: empty or mismatched data");
  }
  num_features_ = x[0].size();
  num_targets_ = y[0].size();
  if (num_targets_ == 0) {
    return Status::InvalidArgument("regression tree: no targets");
  }
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != num_features_ || y[i].size() != num_targets_) {
      return Status::InvalidArgument("regression tree: ragged data");
    }
  }

  // Normalize targets to unit variance so each counts equally.
  const size_t n = x.size();
  const size_t m = num_targets_;
  std::vector<double> mean(m, 0.0);
  std::vector<double> scale(m, 1.0);
  for (const auto& row : y) {
    for (size_t t = 0; t < m; ++t) mean[t] += row[t];
  }
  for (auto& v : mean) v /= static_cast<double>(n);
  for (const auto& row : y) {
    for (size_t t = 0; t < m; ++t) {
      const double d = row[t] - mean[t];
      scale[t] += d * d;
    }
  }
  for (auto& v : scale) v = std::sqrt(v / static_cast<double>(n));

  FitScratch s{PresortedColumns(x), y, {}, {}, options};
  s.y_norm.resize(n * m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t t = 0; t < m; ++t) {
      s.y_norm[i * m + t] = scale[t] > 0.0 ? y[i][t] / scale[t] : 0.0;
    }
  }
  s.indices.resize(n);
  std::iota(s.indices.begin(), s.indices.end(), 0u);

  nodes_.clear();
  leaves_.clear();
  training_leaves_.assign(n, 0);
  Build(s, 0, n, 0);
  return Status::OK();
}

int RegressionTree::Build(FitScratch& s, size_t begin, size_t end, int depth) {
  const size_t n = end - begin;
  const size_t m = num_targets_;
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});

  // Node impurity: total SSE over normalized targets. Folded in `indices`
  // order, which the partition below keeps identical to the per-node-sort
  // construction's, so sums (and leaf means) are bit-identical to it.
  std::vector<double> sum(m, 0.0);
  std::vector<double> sum_sq(m, 0.0);
  for (size_t i = begin; i < end; ++i) {
    const double* row = &s.y_norm[s.indices[i] * m];
    for (size_t t = 0; t < m; ++t) {
      sum[t] += row[t];
      sum_sq[t] += row[t] * row[t];
    }
  }
  double node_sse = 0.0;
  for (size_t t = 0; t < m; ++t) {
    node_sse += sum_sq[t] - sum[t] * sum[t] / static_cast<double>(n);
  }

  auto make_leaf = [&]() {
    Leaf leaf;
    leaf.count = n;
    leaf.mean.assign(m, 0.0);
    for (size_t i = begin; i < end; ++i) {
      const std::vector<double>& row = s.y[s.indices[i]];
      for (size_t t = 0; t < m; ++t) leaf.mean[t] += row[t];
    }
    for (auto& v : leaf.mean) v /= static_cast<double>(n);
    const int leaf_index = static_cast<int>(leaves_.size());
    for (size_t i = begin; i < end; ++i) {
      training_leaves_[s.indices[i]] = leaf_index;
    }
    nodes_[static_cast<size_t>(node_id)].leaf_index = leaf_index;
    leaves_.push_back(std::move(leaf));
    return node_id;
  };

  const Options& options = s.options;
  const size_t min_leaf = static_cast<size_t>(options.min_samples_leaf);
  if (depth >= options.max_depth || n < 2 * min_leaf || node_sse <= 1e-12) {
    return make_leaf();
  }

  // Best split by SSE reduction, scanning each feature's presorted rows.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_sse = node_sse * (1.0 - options.min_gain);
  std::vector<double> left_sum(m);
  std::vector<double> left_sq(m);
  for (size_t f = 0; f < num_features_; ++f) {
    const double* col = s.columns.column(f);
    const uint32_t* ord = s.columns.order(f) + begin;
    if (col[ord[0]] == col[ord[n - 1]]) continue;  // constant here: no split
    std::fill(left_sum.begin(), left_sum.end(), 0.0);
    std::fill(left_sq.begin(), left_sq.end(), 0.0);
    for (size_t i = 0; i + 1 < n; ++i) {
      const double* row = &s.y_norm[ord[i] * m];
      for (size_t t = 0; t < m; ++t) {
        left_sum[t] += row[t];
        left_sq[t] += row[t] * row[t];
      }
      const double value = col[ord[i]];
      const double next = col[ord[i + 1]];
      if (value == next) continue;
      const size_t nl = i + 1;
      const size_t nr = n - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      double sse = 0.0;
      for (size_t t = 0; t < m; ++t) {
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
        best_threshold = 0.5 * (value + next);
      }
    }
  }
  if (best_feature < 0) return make_leaf();

  const size_t mid = s.columns.Split(&s.indices, begin, end,
                                     static_cast<size_t>(best_feature), best_threshold);
  if (mid == begin || mid == end) return make_leaf();

  nodes_[static_cast<size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
  const int left = Build(s, begin, mid, depth + 1);
  nodes_[static_cast<size_t>(node_id)].left = left;
  const int right = Build(s, mid, end, depth + 1);
  nodes_[static_cast<size_t>(node_id)].right = right;
  return node_id;
}

int RegressionTree::PredictLeaf(const double* x, size_t n) const {
  if (nodes_.empty()) return 0;
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& nd = nodes_[static_cast<size_t>(node)];
    if (static_cast<size_t>(nd.feature) >= n) break;
    node = x[static_cast<size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
  const int leaf = nodes_[static_cast<size_t>(node)].leaf_index;
  return leaf >= 0 ? leaf : 0;
}

int RegressionTree::Depth() const {
  if (nodes_.empty()) return 0;
  std::function<int(int)> depth_of = [&](int node_id) -> int {
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    if (node.feature < 0) return 1;
    return 1 + std::max(depth_of(node.left), depth_of(node.right));
  };
  return depth_of(0);
}

}  // namespace cepshed
