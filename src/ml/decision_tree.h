// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// A CART-style decision-tree classifier. The paper trains one balanced
// decision tree per NFA state, mapping the query-predicate attributes of a
// partial match to its cost-model class ("we employ balanced decision
// trees, setting the maximal depths to the number of clusters", §V-B).
// The root-to-leaf paths double as the class predicates used to derive the
// input-based shedding filter rho_I (§V-A).

#ifndef CEPSHED_ML_DECISION_TREE_H_
#define CEPSHED_ML_DECISION_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace cepshed {

/// \brief Decision-tree classifier over dense double features.
class DecisionTree {
 public:
  struct Options {
    int max_depth = 8;
    int min_samples_leaf = 2;
    /// Stop splitting once a node is this pure (majority fraction).
    double purity_stop = 0.999;
  };

  /// One condition along a root-to-leaf path: feature <= threshold if
  /// `less_equal`, else feature > threshold.
  struct PathCondition {
    int feature = -1;
    double threshold = 0.0;
    bool less_equal = true;
  };

  DecisionTree() = default;

  /// Fits the tree on X (n x d) with integer labels y (n). Labels must be
  /// in [0, num_classes).
  Status Fit(const std::vector<std::vector<double>>& x, const std::vector<int>& y,
             const Options& options);

  /// Predicted class for a feature vector. Requires a fitted tree.
  int Predict(const double* x, size_t n) const;
  int Predict(const std::vector<double>& x) const { return Predict(x.data(), x.size()); }

  /// All root-to-leaf condition chains whose leaf predicts `label` — the
  /// disjunction of these conjunctions is the class predicate.
  std::vector<std::vector<PathCondition>> PathsToClass(int label) const;

  /// True once Fit succeeded.
  bool fitted() const { return !nodes_.empty(); }
  size_t num_nodes() const { return nodes_.size(); }
  int num_classes() const { return num_classes_; }
  /// Depth of the deepest leaf.
  int Depth() const;

  /// Fraction of training samples classified correctly (set by Fit).
  double training_accuracy() const { return training_accuracy_; }

 private:
  struct Node {
    int feature = -1;      // -1 for leaves
    double threshold = 0.0;
    int left = -1;         // feature <= threshold
    int right = -1;        // feature > threshold
    int label = 0;         // majority class (valid for all nodes)
  };

  /// Fit-local data: presorted feature orders and the row partition.
  struct FitScratch;

  int Build(FitScratch& s, size_t begin, size_t end, int depth);

  std::vector<Node> nodes_;
  int num_classes_ = 0;
  size_t num_features_ = 0;
  double training_accuracy_ = 0.0;
};

}  // namespace cepshed

#endif  // CEPSHED_ML_DECISION_TREE_H_
