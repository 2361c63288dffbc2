// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "src/ml/presort.h"

namespace cepshed {

namespace {

double Gini(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double g = 1.0;
  for (double c : counts) {
    const double p = c / total;
    g -= p * p;
  }
  return g;
}

}  // namespace

struct DecisionTree::FitScratch {
  PresortedColumns columns;
  const std::vector<int>& y;
  std::vector<uint32_t> indices;
  const Options& options;
};

Status DecisionTree::Fit(const std::vector<std::vector<double>>& x,
                         const std::vector<int>& y, const Options& options) {
  if (x.empty() || x.size() != y.size()) {
    return Status::InvalidArgument("decision tree: empty or mismatched training data");
  }
  num_features_ = x[0].size();
  num_classes_ = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i].size() != num_features_) {
      return Status::InvalidArgument("decision tree: ragged features");
    }
    if (y[i] < 0) return Status::InvalidArgument("decision tree: negative label");
    num_classes_ = std::max(num_classes_, y[i] + 1);
  }
  FitScratch s{PresortedColumns(x), y, {}, options};
  s.indices.resize(x.size());
  std::iota(s.indices.begin(), s.indices.end(), 0u);
  nodes_.clear();
  Build(s, 0, x.size(), 0);

  size_t correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    if (Predict(x[i]) == y[i]) ++correct;
  }
  training_accuracy_ = static_cast<double>(correct) / static_cast<double>(x.size());
  return Status::OK();
}

int DecisionTree::Build(FitScratch& s, size_t begin, size_t end, int depth) {
  const size_t n = end - begin;
  const size_t k = static_cast<size_t>(num_classes_);
  std::vector<double> counts(k, 0.0);
  for (size_t i = begin; i < end; ++i) {
    counts[static_cast<size_t>(s.y[s.indices[i]])] += 1.0;
  }
  int majority = 0;
  for (int c = 1; c < num_classes_; ++c) {
    if (counts[static_cast<size_t>(c)] > counts[static_cast<size_t>(majority)]) majority = c;
  }
  const double purity = counts[static_cast<size_t>(majority)] / static_cast<double>(n);

  const int node_id = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<size_t>(node_id)].label = majority;

  const Options& options = s.options;
  const size_t min_leaf = static_cast<size_t>(options.min_samples_leaf);
  if (depth >= options.max_depth || purity >= options.purity_stop || n < 2 * min_leaf) {
    return node_id;
  }

  // Best (feature, threshold) by Gini impurity decrease, scanning each
  // feature's presorted rows. Split points fall only between distinct
  // values, where the class counts on either side do not depend on the
  // order of equal-valued rows.
  const double parent_gini = Gini(counts, static_cast<double>(n));
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = parent_gini - 1e-9;
  std::vector<double> left_counts(k);
  std::vector<double> right_counts(k);
  for (size_t f = 0; f < num_features_; ++f) {
    const double* col = s.columns.column(f);
    const uint32_t* ord = s.columns.order(f) + begin;
    if (col[ord[0]] == col[ord[n - 1]]) continue;  // constant here: no split
    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    right_counts = counts;
    for (size_t i = 0; i + 1 < n; ++i) {
      const size_t label = static_cast<size_t>(s.y[ord[i]]);
      left_counts[label] += 1.0;
      right_counts[label] -= 1.0;
      const double value = col[ord[i]];
      const double next = col[ord[i + 1]];
      if (value == next) continue;
      const size_t nl = i + 1;
      const size_t nr = n - nl;
      if (nl < min_leaf || nr < min_leaf) continue;
      const double score =
          (static_cast<double>(nl) * Gini(left_counts, static_cast<double>(nl)) +
           static_cast<double>(nr) * Gini(right_counts, static_cast<double>(nr))) /
          static_cast<double>(n);
      if (score < best_score) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (value + next);
      }
    }
  }
  if (best_feature < 0) return node_id;

  const size_t mid = s.columns.Split(&s.indices, begin, end,
                                     static_cast<size_t>(best_feature), best_threshold);
  if (mid == begin || mid == end) return node_id;  // degenerate split

  nodes_[static_cast<size_t>(node_id)].feature = best_feature;
  nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
  const int left = Build(s, begin, mid, depth + 1);
  nodes_[static_cast<size_t>(node_id)].left = left;
  const int right = Build(s, mid, end, depth + 1);
  nodes_[static_cast<size_t>(node_id)].right = right;
  return node_id;
}

int DecisionTree::Predict(const double* x, size_t n) const {
  if (nodes_.empty()) return 0;
  int node = 0;
  while (nodes_[static_cast<size_t>(node)].feature >= 0) {
    const Node& nd = nodes_[static_cast<size_t>(node)];
    if (static_cast<size_t>(nd.feature) >= n) return nd.label;
    node = x[static_cast<size_t>(nd.feature)] <= nd.threshold ? nd.left : nd.right;
  }
  return nodes_[static_cast<size_t>(node)].label;
}

std::vector<std::vector<DecisionTree::PathCondition>> DecisionTree::PathsToClass(
    int label) const {
  std::vector<std::vector<PathCondition>> paths;
  if (nodes_.empty()) return paths;
  std::vector<PathCondition> current;
  // Depth-first traversal carrying the condition chain.
  std::function<void(int)> walk = [&](int node_id) {
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    if (node.feature < 0) {
      if (node.label == label) paths.push_back(current);
      return;
    }
    current.push_back(PathCondition{node.feature, node.threshold, true});
    walk(node.left);
    current.back().less_equal = false;
    walk(node.right);
    current.pop_back();
  };
  walk(0);
  return paths;
}

int DecisionTree::Depth() const {
  if (nodes_.empty()) return 0;
  std::function<int(int)> depth_of = [&](int node_id) -> int {
    const Node& node = nodes_[static_cast<size_t>(node_id)];
    if (node.feature < 0) return 1;
    return 1 + std::max(depth_of(node.left), depth_of(node.right));
  };
  return depth_of(0);
}

}  // namespace cepshed
