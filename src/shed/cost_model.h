// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The paper's cost model for hybrid load shedding (§IV-A, §V):
//  - partial matches are abstracted into classes: per NFA state, k-means
//    clusters over their (contribution, consumption) ground truth, with k
//    chosen by the gap statistic;
//  - a decision tree per state maps a match's predicate attributes to its
//    class immediately at creation;
//  - class estimates (90th-percentile contribution/consumption) are kept
//    per time slice of the match's age, and adapted online by streaming
//    counts folded as Gamma_new = (1-w) Gamma_old + w Gamma_incremented.
//
// The consumption side Gamma- is measured in the abstract work units that
// Expr::Eval accumulates. The predicate bytecode VM (src/cep/pred_vm.h)
// charges exactly the same units on every path — that parity is a hard
// contract (fuzzed in tests/expr_vm_test.cc), so estimates trained with
// either evaluator stay valid under the other and the Fig. 11 Omega
// ablation is unaffected by EngineOptions::use_pred_vm.

#ifndef CEPSHED_SHED_COST_MODEL_H_
#define CEPSHED_SHED_COST_MODEL_H_

#include <memory>
#include <vector>

#include "src/cep/engine.h"
#include "src/cep/nfa.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/ml/decision_tree.h"
#include "src/ml/regression_tree.h"
#include "src/shed/offline_estimator.h"
#include "src/sketch/count_min.h"

namespace cepshed {

/// \brief Cost model configuration.
struct CostModelOptions {
  /// Temporal abstraction: slices the query window is split into (§V-A).
  int num_time_slices = 4;
  /// Gap-statistic search range for the per-state cluster count.
  int k_min = 2;
  int k_max = 10;
  /// Explicit per-state cluster counts (bypasses the gap statistic; used
  /// by the Fig. 13 sensitivity grid). Empty = estimate.
  std::vector<int> fixed_k_per_state;
  /// Class value = this percentile of the member matches' values (§V-B).
  double percentile = 0.90;
  /// Online adaptation weight w.
  double adapt_w = 0.5;
  /// Explicit resource cost Omega vs. plain counting (Fig. 11 ablation).
  bool use_resource_cost = true;
  /// Decision tree depth; 0 = number of clusters of the state (the
  /// paper's §V-B balanced-tree rule). The default follows the paper's
  /// §VI-G experiment setting (max length 10): class boundaries such as
  /// a.V + b.V = c.V need a staircase of axis-aligned splits, which a
  /// clusters-deep tree is too shallow to express.
  int tree_max_depth = 10;
  /// Count-min sketch geometry for the streaming increment counts.
  size_t sketch_width = 2048;
  size_t sketch_depth = 3;
  /// Disable to freeze the trained estimates (ablations).
  bool enable_online_adaptation = true;
  /// Cap on records per state used for clustering / gap statistic
  /// (deterministic stride subsampling keeps training fast).
  size_t max_cluster_samples = 8000;
  /// Cap on records per state used for classifier training.
  size_t max_tree_samples = 60000;
};

/// \brief The trained, adaptable cost model.
class CostModel {
 public:
  CostModel(std::shared_ptr<const Nfa> nfa, CostModelOptions options);

  /// Trains clusters, class estimates, and classifiers from offline stats.
  Status Train(const OfflineStats& stats, Rng* rng);

  bool trained() const { return trained_; }
  int num_states() const { return nfa_->num_states(); }
  int num_slices() const { return options_.num_time_slices; }
  /// Clusters (classes) of the given state.
  int NumClasses(int state) const {
    return trained_ ? static_cast<int>(states_[static_cast<size_t>(state)].num_classes)
                    : 1;
  }

  /// Classifies a partial match (used as the engine's classifier hook).
  int32_t Classify(const PartialMatch& pm) const;

  /// Classifies the prefix of a complete match that was a partial match at
  /// `state` (1..slot_end.size() and below num_states(); any other state
  /// classifies as 0): same features and tree as Classify on
  /// the materialized prefix, but read directly off the match — the
  /// online-adaptation path must not rebuild per-ancestor event vectors.
  int32_t ClassifyPrefix(const Match& match, int state) const;

  /// Classifies an incoming event as the hypothetical partial match it
  /// would create/extend into `state` (used by the input filter rho_I).
  int32_t ClassifyEvent(const Event& event, int state) const;

  /// Age slice of a duration since a match's first event.
  int SliceOfAge(Duration age) const;

  /// Estimated future contribution of a class at an age slice (the
  /// paper's percentile-based class value).
  double Contribution(int state, int32_t cls, int slice) const;
  /// Estimated future consumption of a class at an age slice.
  double Consumption(int state, int32_t cls, int slice) const;
  /// Maximum future contribution observed for the class in training: zero
  /// means *provably* worthless on historic data. Shedding decisions that
  /// claim to be recall-free (standing filters) must check this, not the
  /// percentile, or classes whose value sits in a rare minority of
  /// members get starved.
  double ContributionMax(int state, int32_t cls, int slice) const;

  /// A single utility score for an incoming event: the best contribution
  /// estimate among the states the event could create state in. Drives the
  /// fixed-ratio HyI strategy.
  double EventUtility(const Event& event) const;

  /// The NFA states a new partial match would be at after consuming an
  /// event of `type` (fill -> state+1, Kleene -> same state).
  std::vector<int> ResultStatesForType(int type) const;

  // --- Online adaptation (§V-B) -------------------------------------------

  /// Wires the model into an engine: the classifier stamps class labels
  /// onto partial matches, and the creation/match hooks below feed online
  /// adaptation. The model must outlive the engine's use of the hooks.
  void AttachTo(Engine* engine);

  /// Engine hook: a partial match was created; charge consumption
  /// increments to its parent's class.
  void OnPmCreated(const PartialMatch& pm, const PartialMatch* parent, Timestamp now);
  /// Engine hook: a complete match was emitted; credit contribution to the
  /// parent's class.
  void OnMatch(const Match& match, const PartialMatch* parent, Timestamp now);
  /// Folds the streaming increments into the estimates at slice
  /// boundaries. `engine` supplies the live class populations.
  void MaybeFold(Timestamp now, Engine* engine);

  /// Seconds spent in Train (the paper reports 0.75 - 4.5 s).
  double train_seconds() const { return train_seconds_; }
  /// Chosen cluster count per state (diagnostics).
  std::vector<int> ChosenClusterCounts() const;
  /// Match-partition tree accessor (diagnostics/tests).
  const RegressionTree& pm_tree(int state) const {
    return states_[static_cast<size_t>(state)].pm_tree;
  }
  /// Event classifier accessor (diagnostics/tests).
  const DecisionTree& event_tree(int state) const {
    return states_[static_cast<size_t>(state)].event_tree;
  }

  const Nfa& nfa() const { return *nfa_; }
  const CostModelOptions& options() const { return options_; }

 private:
  struct StateModel {
    size_t num_classes = 1;
    /// Partition of the feature space into cost-homogeneous groups: a
    /// regression tree on (features) -> (contribution, consumption).
    RegressionTree pm_tree;
    /// Cluster (= class) of each pm_tree leaf.
    std::vector<int> class_of_leaf;
    /// Event classifier over last-event features (for rho_I class checks).
    DecisionTree event_tree;
    /// Event-value regressor: expected contribution of a match created by
    /// an event with these attributes. Class-level estimates are too
    /// coarse for rho_I at mid-pattern states (every event-attribute
    /// bucket can be majority-worthless while carrying all the value).
    RegressionTree event_value_tree;
    /// cls * num_slices + slice -> estimate.
    std::vector<double> contrib;
    std::vector<double> consum;
    /// cls * num_slices + slice -> maximum training contribution.
    std::vector<double> contrib_max;
  };

  /// Shared tail of Classify/ClassifyPrefix: feature vector -> class.
  int32_t ClassifyFeatures(const StateModel& sm, const std::vector<double>& f) const;

  size_t TableIndex(int32_t cls, int slice) const {
    return static_cast<size_t>(cls) * static_cast<size_t>(options_.num_time_slices) +
           static_cast<size_t>(slice);
  }
  uint64_t SketchKey(int state, int32_t cls, int slice) const {
    return (static_cast<uint64_t>(state) * 1024 + static_cast<uint64_t>(cls)) * 64 +
           static_cast<uint64_t>(slice);
  }

  std::shared_ptr<const Nfa> nfa_;
  CostModelOptions options_;
  Duration slice_len_;
  bool trained_ = false;
  /// Per event type: offline probability of participating in a match.
  /// Completing event types carry no stored-state class, so their utility
  /// for the input filter comes from here.
  std::vector<double> type_utility_;
  /// Event types that can complete the pattern directly.
  std::vector<bool> completing_type_;
  double train_seconds_ = 0.0;
  std::vector<StateModel> states_;
  CountMinSketch contrib_inc_;
  CountMinSketch consum_inc_;
  /// Partial matches created per key during the current fold interval —
  /// normalizes the increments to per-match averages.
  CountMinSketch created_inc_;
  Timestamp next_fold_ts_ = 0;
};

}  // namespace cepshed

#endif  // CEPSHED_SHED_COST_MODEL_H_
