// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/shed/cost_model.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "src/ml/gap_statistic.h"
#include "src/ml/kmeans.h"

namespace cepshed {

namespace {

double Percentile(std::vector<double>* values, double pct) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const size_t idx = std::min(
      values->size() - 1,
      static_cast<size_t>(pct * static_cast<double>(values->size() - 1) + 0.5));
  return (*values)[idx];
}

}  // namespace

CostModel::CostModel(std::shared_ptr<const Nfa> nfa, CostModelOptions options)
    : nfa_(std::move(nfa)),
      options_(options),
      contrib_inc_(options.sketch_width, options.sketch_depth, /*seed=*/0xc0),
      consum_inc_(options.sketch_width, options.sketch_depth, /*seed=*/0xc1),
      created_inc_(options.sketch_width, options.sketch_depth, /*seed=*/0xc2) {
  if (options_.num_time_slices < 1) options_.num_time_slices = 1;
  slice_len_ = std::max<Duration>(
      1, nfa_->window() / static_cast<Duration>(options_.num_time_slices));
  states_.resize(static_cast<size_t>(nfa_->num_states()));
  // Initialize one catch-all class per state so the model is usable (as a
  // uniform prior) before training.
  for (auto& sm : states_) {
    sm.num_classes = 1;
    sm.contrib.assign(static_cast<size_t>(options_.num_time_slices), 1.0);
    sm.consum.assign(static_cast<size_t>(options_.num_time_slices), 1.0);
  }
}

int CostModel::SliceOfAge(Duration age) const {
  int s = static_cast<int>(age / slice_len_);
  if (s < 0) s = 0;
  if (s >= options_.num_time_slices) s = options_.num_time_slices - 1;
  return s;
}

Status CostModel::Train(const OfflineStats& stats, Rng* rng) {
  const auto t0 = std::chrono::steady_clock::now();
  if (stats.num_slices != options_.num_time_slices) {
    return Status::InvalidArgument(
        "offline stats were collected with a different number of time slices");
  }

  // Group record indices by state.
  std::vector<std::vector<size_t>> by_state(states_.size());
  for (size_t i = 0; i < stats.records.size(); ++i) {
    by_state[static_cast<size_t>(stats.records[i].state)].push_back(i);
  }

  const int slices = options_.num_time_slices;
  for (int s = 0; s < nfa_->num_states(); ++s) {
    StateModel& sm = states_[static_cast<size_t>(s)];
    const auto& idxs = by_state[static_cast<size_t>(s)];
    if (idxs.empty()) {
      sm.num_classes = 1;
      sm.contrib.assign(static_cast<size_t>(slices), 0.0);
      sm.consum.assign(static_cast<size_t>(slices), 0.0);
      sm.pm_tree = RegressionTree();
      sm.event_tree = DecisionTree();
      continue;
    }

    // --- Data abstraction (§V-A): partition the matches of this state by
    // their predicate attributes into groups with homogeneous expected
    // contribution/consumption (a multi-target regression tree — the
    // decision-tree classifier of §V-B fitted directly to the cost
    // values; irrelevant attributes produce no variance reduction and are
    // ignored), then cluster the groups into the cost-model classes.
    const size_t tree_stride = std::max<size_t>(
        1, idxs.size() / std::max<size_t>(1, options_.max_tree_samples));
    std::vector<std::vector<double>> x_full;
    std::vector<std::vector<double>> y;
    std::vector<size_t> sampled;  // index into idxs
    for (size_t j = 0; j < idxs.size(); j += tree_stride) {
      const PmRecord& rec = stats.records[idxs[j]];
      x_full.emplace_back(rec.features.begin(), rec.features.end());
      double c = 0.0;
      double w = 0.0;
      for (float v : rec.contrib_by_slice) c += v;
      for (float v : rec.consum_by_slice) w += v;
      y.push_back({c, w});
      sampled.push_back(j);
    }
    RegressionTree::Options ropts;
    ropts.max_depth = options_.tree_max_depth > 0 ? options_.tree_max_depth : 10;
    ropts.min_samples_leaf = static_cast<int>(
        std::max<size_t>(8, x_full.size() / 2048));
    CEPSHED_RETURN_NOT_OK(sm.pm_tree.Fit(x_full, y, ropts));

    // Cluster the leaves by (mean contribution, mean consumption),
    // weighted by leaf population.
    std::vector<std::vector<double>> points;
    std::vector<double> weights;
    double max_contrib = 1e-12;
    double max_consum = 1e-12;
    for (size_t l = 0; l < sm.pm_tree.num_leaves(); ++l) {
      const RegressionTree::Leaf& leaf = sm.pm_tree.leaf(static_cast<int>(l));
      points.push_back({leaf.mean[0], leaf.mean[1]});
      weights.push_back(static_cast<double>(leaf.count));
      max_contrib = std::max(max_contrib, leaf.mean[0]);
      max_consum = std::max(max_consum, leaf.mean[1]);
    }
    for (auto& p : points) {
      p[0] /= max_contrib;
      p[1] /= max_consum;
    }

    // Number of clusters: fixed override or gap statistic.
    int k;
    if (static_cast<size_t>(s) < options_.fixed_k_per_state.size() &&
        options_.fixed_k_per_state[static_cast<size_t>(s)] > 0) {
      k = options_.fixed_k_per_state[static_cast<size_t>(s)];
    } else {
      GapStatisticOptions gopts;
      gopts.k_min = options_.k_min;
      gopts.k_max = options_.k_max;
      CEPSHED_ASSIGN_OR_RETURN(GapStatisticResult gap,
                               EstimateClusters(points, gopts, rng));
      k = gap.best_k;
    }
    CEPSHED_ASSIGN_OR_RETURN(KMeansResult km, KMeansWeighted(points, weights, k, rng));
    sm.num_classes = km.centroids.size();
    sm.class_of_leaf.assign(points.size(), 0);
    for (size_t l = 0; l < points.size(); ++l) {
      sm.class_of_leaf[l] = km.labels[l];
    }

    // Label of each sampled training record = its leaf's cluster.
    std::vector<int> labels(sampled.size(), 0);
    for (size_t j = 0; j < sampled.size(); ++j) {
      labels[j] = sm.class_of_leaf[static_cast<size_t>(sm.pm_tree.training_leaves()[j])];
    }

    // Class estimates: percentile of the *future* (suffix) contribution and
    // consumption per age slice.
    sm.contrib.assign(sm.num_classes * static_cast<size_t>(slices), 0.0);
    sm.consum.assign(sm.num_classes * static_cast<size_t>(slices), 0.0);
    sm.contrib_max.assign(sm.num_classes * static_cast<size_t>(slices), 0.0);
    for (size_t cls = 0; cls < sm.num_classes; ++cls) {
      for (int sl = 0; sl < slices; ++sl) {
        std::vector<double> contribs;
        std::vector<double> consums;
        double c_max = 0.0;
        for (size_t j = 0; j < sampled.size(); ++j) {
          if (labels[j] != static_cast<int>(cls)) continue;
          const PmRecord& rec = stats.records[idxs[sampled[j]]];
          double c = 0.0;
          double w = 0.0;
          for (int sl2 = sl; sl2 < slices; ++sl2) {
            c += rec.contrib_by_slice[static_cast<size_t>(sl2)];
            w += rec.consum_by_slice[static_cast<size_t>(sl2)];
          }
          contribs.push_back(c);
          consums.push_back(w);
          c_max = std::max(c_max, c);
        }
        sm.contrib[TableIndex(static_cast<int32_t>(cls), sl)] =
            Percentile(&contribs, options_.percentile);
        sm.consum[TableIndex(static_cast<int32_t>(cls), sl)] =
            Percentile(&consums, options_.percentile);
        sm.contrib_max[TableIndex(static_cast<int32_t>(cls), sl)] = c_max;
      }
    }

    // Event classifier for rho_I class checks: last-event features ->
    // class label; plus an event-value regressor for per-event utility.
    std::vector<std::vector<double>> x_event;
    std::vector<std::vector<double>> y_event;
    x_event.reserve(sampled.size());
    y_event.reserve(sampled.size());
    for (size_t j = 0; j < sampled.size(); ++j) {
      const PmRecord& rec = stats.records[idxs[sampled[j]]];
      x_event.emplace_back(rec.event_features.begin(), rec.event_features.end());
      y_event.push_back({y[j][0]});
    }
    DecisionTree::Options topts;
    topts.max_depth = options_.tree_max_depth > 0 ? options_.tree_max_depth : 10;
    CEPSHED_RETURN_NOT_OK(sm.event_tree.Fit(x_event, labels, topts));
    RegressionTree::Options evopts;
    evopts.max_depth = topts.max_depth;
    evopts.min_samples_leaf = ropts.min_samples_leaf;
    CEPSHED_RETURN_NOT_OK(sm.event_value_tree.Fit(x_event, y_event, evopts));
  }

  type_utility_ = stats.type_utility;
  completing_type_.assign(nfa_->schema().num_event_types(), false);
  for (size_t t = 0; t < completing_type_.size(); ++t) {
    for (int st2 : nfa_->StatesForType(static_cast<int>(t))) {
      if (!nfa_->state(st2).kleene && st2 + 1 == nfa_->num_states()) {
        completing_type_[t] = true;
      }
      if (nfa_->state(st2).kleene && st2 + 1 == nfa_->num_states()) {
        completing_type_[t] = true;  // trailing Kleene emits on extension
      }
    }
  }

  trained_ = true;
  next_fold_ts_ = 0;
  train_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return Status::OK();
}

int32_t CostModel::Classify(const PartialMatch& pm) const {
  if (!trained_ || pm.Length() == 0) return 0;
  thread_local std::vector<double> features;
  ExtractStateFeatures(pm, *nfa_, &features);
  return ClassifyFeatures(states_[static_cast<size_t>(pm.state)], features);
}

int32_t CostModel::ClassifyPrefix(const Match& match, int state) const {
  if (!trained_ || state < 1 ||
      static_cast<size_t>(state) > match.slot_end.size() ||
      state >= nfa_->num_states()) {
    return 0;
  }
  // Features of the prefix partial match at `state`: the last event of
  // each closed slot 0..state-1, with the (empty) in-progress slot left
  // at the -1 sentinel — identical to ExtractStateFeatures on the
  // materialized prefix, without rebuilding a PartialMatch per ancestor.
  const size_t per_event = nfa_->PredicateAttrs().size();
  const size_t slots = static_cast<size_t>(state) + 1;
  thread_local std::vector<double> features;
  features.assign(slots * per_event, -1.0);
  uint32_t begin = 0;
  for (size_t slot = 0; slot + 1 < slots; ++slot) {
    const uint32_t end = match.slot_end[slot];
    if (end > begin) {
      ExtractFeatures(*match.events[end - 1], *nfa_, features.data() + slot * per_event);
    }
    begin = end;
  }
  return ClassifyFeatures(states_[static_cast<size_t>(state)], features);
}

int32_t CostModel::ClassifyFeatures(const StateModel& sm,
                                    const std::vector<double>& f) const {
  if (!sm.pm_tree.fitted()) return 0;
  const int leaf = sm.pm_tree.PredictLeaf(f);
  if (leaf < 0 || static_cast<size_t>(leaf) >= sm.class_of_leaf.size()) return 0;
  return sm.class_of_leaf[static_cast<size_t>(leaf)];
}

int32_t CostModel::ClassifyEvent(const Event& event, int state) const {
  if (!trained_) return 0;
  if (state < 0 || state >= nfa_->num_states()) return 0;
  const StateModel& sm = states_[static_cast<size_t>(state)];
  if (!sm.event_tree.fitted()) return 0;
  thread_local std::vector<double> features;
  features.resize(nfa_->PredicateAttrs().size());
  ExtractFeatures(event, *nfa_, features.data());
  return sm.event_tree.Predict(features);
}

double CostModel::Contribution(int state, int32_t cls, int slice) const {
  const StateModel& sm = states_[static_cast<size_t>(state)];
  if (cls < 0 || static_cast<size_t>(cls) >= sm.num_classes) cls = 0;
  if (slice < 0) slice = 0;
  if (slice >= options_.num_time_slices) slice = options_.num_time_slices - 1;
  return sm.contrib[TableIndex(cls, slice)];
}

double CostModel::Consumption(int state, int32_t cls, int slice) const {
  const StateModel& sm = states_[static_cast<size_t>(state)];
  if (cls < 0 || static_cast<size_t>(cls) >= sm.num_classes) cls = 0;
  if (slice < 0) slice = 0;
  if (slice >= options_.num_time_slices) slice = options_.num_time_slices - 1;
  return sm.consum[TableIndex(cls, slice)];
}

double CostModel::ContributionMax(int state, int32_t cls, int slice) const {
  const StateModel& sm = states_[static_cast<size_t>(state)];
  if (sm.contrib_max.empty()) return trained_ ? 0.0 : 1.0;
  if (cls < 0 || static_cast<size_t>(cls) >= sm.num_classes) cls = 0;
  if (slice < 0) slice = 0;
  if (slice >= options_.num_time_slices) slice = options_.num_time_slices - 1;
  return sm.contrib_max[TableIndex(cls, slice)];
}

std::vector<int> CostModel::ResultStatesForType(int type) const {
  std::vector<int> out;
  for (int s : nfa_->StatesForType(type)) {
    if (nfa_->state(s).kleene) {
      out.push_back(s);
    } else if (s + 1 < nfa_->num_states()) {
      out.push_back(s + 1);
    }
  }
  return out;
}

double CostModel::EventUtility(const Event& event) const {
  double best = 0.0;
  thread_local std::vector<double> features;
  bool extracted = false;
  for (int s : ResultStatesForType(event.type())) {
    const StateModel& sm = states_[static_cast<size_t>(s)];
    if (!sm.event_value_tree.fitted()) continue;
    if (!extracted) {
      features.resize(nfa_->PredicateAttrs().size());
      ExtractFeatures(event, *nfa_, features.data());
      extracted = true;
    }
    // Blend the (static) trained event-value prediction with the *adapted*
    // estimate of the class the event maps to: after a distribution
    // change, the class estimates carry the updated signal while the tree
    // provides the fine-grained ranking within the trained regime.
    best = std::max(best, sm.event_value_tree.Predict(features)[0]);
    const int32_t cls =
        trained_ && sm.event_tree.fitted() ? sm.event_tree.Predict(features) : 0;
    best = std::max(best, Contribution(s, cls, 0));
  }
  // An event that can complete the pattern converts already-paid work into
  // results directly; dropping it forfeits finished matches. Rank such
  // events far above any stored-state class (scaled by how often the type
  // participates in matches at all).
  const size_t t = static_cast<size_t>(event.type());
  if (t < completing_type_.size() && completing_type_[t] &&
      t < type_utility_.size() && type_utility_[t] > 0.0) {
    constexpr double kCompletionBoost = 1e6;
    best = std::max(best, kCompletionBoost * type_utility_[t]);
  }
  return best;
}

void CostModel::AttachTo(Engine* engine) {
  engine->set_classifier([this](const PartialMatch& pm) { return Classify(pm); });
  engine->set_pm_created_hook([this](const PartialMatch& pm, const PartialMatch* parent) {
    OnPmCreated(pm, parent, pm.last_ts);
  });
  engine->set_match_hook([this](const Match& m, const PartialMatch* parent) {
    OnMatch(m, parent, m.detected_at);
  });
}

void CostModel::OnPmCreated(const PartialMatch& pm, const PartialMatch* parent,
                            Timestamp now) {
  if (!options_.enable_online_adaptation || !trained_) return;
  if (pm.is_witness) return;
  // The new match itself is an instance of its class (normalizer).
  const int32_t own_cls = pm.class_label < 0 ? 0 : pm.class_label;
  created_inc_.Add(SketchKey(pm.state, own_cls, SliceOfAge(now - pm.start_ts)), 1.0);
  if (parent == nullptr) return;
  const int slice = SliceOfAge(now - parent->start_ts);
  const double omega =
      options_.use_resource_cost
          ? 1.0 + nfa_->state(pm.state).bind_cost + 0.1 * pm.Length()
          : 1.0;
  consum_inc_.Add(SketchKey(parent->state, parent->class_label, slice), omega);
}

void CostModel::OnMatch(const Match& match, const PartialMatch* parent, Timestamp now) {
  if (!options_.enable_online_adaptation || !trained_) return;
  (void)parent;
  // Credit every ancestor of the completing chain (Gamma+ of Eq. 3). The
  // ancestors are exactly the match's prefixes; their classes follow from
  // the (deterministic) classifier, their age slices from the shared
  // window anchor.
  if (match.events.empty() || match.slot_end.empty()) return;
  const Timestamp start_ts = match.events.front()->timestamp();
  const int slice = SliceOfAge(now - start_ts);
  for (size_t j = 1; j < match.slot_end.size(); ++j) {
    const int32_t cls = ClassifyPrefix(match, static_cast<int>(j));
    contrib_inc_.Add(SketchKey(static_cast<int>(j), cls, slice), 1.0);
  }
}

void CostModel::MaybeFold(Timestamp now, Engine* engine) {
  if (!options_.enable_online_adaptation || !trained_) return;
  if (next_fold_ts_ == 0) {
    next_fold_ts_ = now + slice_len_;
    return;
  }
  if (now < next_fold_ts_) return;
  next_fold_ts_ = now + slice_len_;

  // Live population per (state, class, slice) normalizes the increments to
  // per-match averages.
  std::vector<std::vector<double>> population(states_.size());
  for (size_t s = 0; s < states_.size(); ++s) {
    population[s].assign(
        states_[s].num_classes * static_cast<size_t>(options_.num_time_slices), 0.0);
  }
  engine->store().ForEachAlive([&](PartialMatch* pm) {
    const size_t s = static_cast<size_t>(pm->state);
    int32_t cls = pm->class_label;
    if (cls < 0 || static_cast<size_t>(cls) >= states_[s].num_classes) cls = 0;
    const int slice = SliceOfAge(now - pm->start_ts);
    population[s][TableIndex(cls, slice)] += 1.0;
  });

  const double w = options_.adapt_w;
  const int slices = options_.num_time_slices;
  std::vector<double> c_avg(static_cast<size_t>(slices));
  std::vector<double> w_avg(static_cast<size_t>(slices));
  std::vector<double> obs(static_cast<size_t>(slices));
  for (int s = 0; s < nfa_->num_states(); ++s) {
    StateModel& sm = states_[static_cast<size_t>(s)];
    for (size_t cls = 0; cls < sm.num_classes; ++cls) {
      // Per-slice increment averages for this class over the interval.
      for (int sl = 0; sl < slices; ++sl) {
        const uint64_t key = SketchKey(s, static_cast<int32_t>(cls), sl);
        const double live = population[static_cast<size_t>(s)][TableIndex(
            static_cast<int32_t>(cls), sl)];
        const double created = created_inc_.Estimate(key);
        // Normalize by the larger of the live and freshly created
        // populations; a post-shedding instantaneous count alone would
        // inflate per-match increments arbitrarily.
        const double n = std::max({1.0, live, created});
        c_avg[static_cast<size_t>(sl)] = contrib_inc_.Estimate(key) / n;
        w_avg[static_cast<size_t>(sl)] = consum_inc_.Estimate(key) / n;
        obs[static_cast<size_t>(sl)] = live + created;
      }
      // The estimates are *future* (suffix) values: what a match of this
      // class at age slice sl will still contribute/consume. One fold
      // interval corresponds to one slice of aging, so the suffix sum of
      // the per-slice averages is scale-compatible with the offline
      // lifetime estimates.
      double c_suffix = 0.0;
      double w_suffix = 0.0;
      double obs_suffix = 0.0;
      for (int sl = slices - 1; sl >= 0; --sl) {
        c_suffix += c_avg[static_cast<size_t>(sl)];
        w_suffix += w_avg[static_cast<size_t>(sl)];
        obs_suffix += obs[static_cast<size_t>(sl)];
        if (obs_suffix == 0.0) continue;  // no signal: keep trained values
        const size_t t = TableIndex(static_cast<int32_t>(cls), sl);
        sm.contrib[t] = (1.0 - w) * sm.contrib[t] + w * c_suffix;
        sm.consum[t] = (1.0 - w) * sm.consum[t] + w * w_suffix;
      }
    }
  }
  contrib_inc_.Clear();
  consum_inc_.Clear();
  created_inc_.Clear();
}

std::vector<int> CostModel::ChosenClusterCounts() const {
  std::vector<int> out;
  out.reserve(states_.size());
  for (const auto& sm : states_) out.push_back(static_cast<int>(sm.num_classes));
  return out;
}

}  // namespace cepshed
