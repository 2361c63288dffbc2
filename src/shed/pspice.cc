// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/shed/pspice.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "src/cep/engine.h"
#include "src/shed/registry.h"

namespace cepshed {

// --- PspiceModel --------------------------------------------------------

Status PspiceModel::Train(std::shared_ptr<const Nfa> nfa,
                          const OfflineStats& stats) {
  if (nfa == nullptr) return Status::InvalidArgument("pspice: null nfa");
  nfa_ = std::move(nfa);
  const int num_states = nfa_->num_states();
  if (num_states <= 0) return Status::InvalidArgument("pspice: empty nfa");
  states_.assign(static_cast<size_t>(num_states), StateModel{});
  for (int s = 0; s < num_states; ++s) {
    states_[static_cast<size_t>(s)].prior =
        s < static_cast<int>(stats.state_completion.size())
            ? stats.state_completion[static_cast<size_t>(s)]
            : 0.0;
  }

  RegressionTree::Options tree_options;
  tree_options.max_depth = 6;
  tree_options.min_samples_leaf = 25;

  std::vector<std::vector<std::vector<double>>> x(
      static_cast<size_t>(num_states));
  std::vector<std::vector<std::vector<double>>> y(
      static_cast<size_t>(num_states));
  for (const PmRecord& rec : stats.records) {
    if (rec.state < 0 || rec.state >= num_states) continue;
    std::vector<double> features(rec.features.begin(), rec.features.end());
    const float contrib = std::accumulate(rec.contrib_by_slice.begin(),
                                          rec.contrib_by_slice.end(), 0.0f);
    x[static_cast<size_t>(rec.state)].push_back(std::move(features));
    y[static_cast<size_t>(rec.state)].push_back({contrib > 0.0f ? 1.0 : 0.0});
  }
  for (int s = 0; s < num_states; ++s) {
    auto& sx = x[static_cast<size_t>(s)];
    if (sx.size() < 2 * static_cast<size_t>(tree_options.min_samples_leaf)) {
      continue;  // too thin to split on: the prior carries the state
    }
    StateModel& sm = states_[static_cast<size_t>(s)];
    // A failed fit (e.g. constant features) is not an error: the state
    // simply keeps its prior.
    if (sm.tree.Fit(sx, y[static_cast<size_t>(s)], tree_options).ok()) {
      sm.leaf_override.assign(sm.tree.num_leaves(), -1.0);
    }
  }
  return Status::OK();
}

int PspiceModel::LeafOf(const PartialMatch& pm) const {
  if (pm.state < 0 || pm.state >= num_states()) return -1;
  const StateModel& sm = states_[static_cast<size_t>(pm.state)];
  if (!sm.tree.fitted()) return -1;
  thread_local std::vector<double> features;
  ExtractStateFeatures(pm, *nfa_, &features);
  return sm.tree.PredictLeaf(features);
}

size_t PspiceModel::NumLeaves(int state) const {
  if (state < 0 || state >= num_states()) return 0;
  return states_[static_cast<size_t>(state)].tree.num_leaves();
}

double PspiceModel::LeafValue(int state, int leaf) const {
  const StateModel& sm = states_[static_cast<size_t>(state)];
  if (leaf < 0 || static_cast<size_t>(leaf) >= sm.tree.num_leaves()) {
    return sm.prior;
  }
  const double override_p = sm.leaf_override[static_cast<size_t>(leaf)];
  return override_p >= 0.0 ? override_p : sm.tree.leaf(leaf).mean[0];
}

void PspiceModel::SetLeafValue(int state, int leaf, double p) {
  if (state < 0 || state >= num_states()) return;
  StateModel& sm = states_[static_cast<size_t>(state)];
  if (leaf < 0 || static_cast<size_t>(leaf) >= sm.leaf_override.size()) return;
  sm.leaf_override[static_cast<size_t>(leaf)] = p;
}

double PspiceModel::CompletionProbability(const PartialMatch& pm) const {
  if (pm.state < 0 || pm.state >= num_states()) return 0.0;
  const StateModel& sm = states_[static_cast<size_t>(pm.state)];
  if (!sm.tree.fitted()) return sm.prior;
  return LeafValue(pm.state, LeafOf(pm));
}

// --- PspiceShedder ------------------------------------------------------

PspiceShedder::PspiceShedder(const PspiceModel& model, LatencyBoundMode mode)
    : model_(model), trigger_(OverloadTrigger(mode.theta, mode.trigger_delay)) {
  created_.assign(static_cast<size_t>(model_.num_states()), {});
  completed_.assign(static_cast<size_t>(model_.num_states()), {});
}

PspiceShedder::PspiceShedder(const PspiceModel& model, FixedRatioMode mode)
    : model_(model),
      fixed_fraction_(mode.fraction),
      period_(mode.period == 0 ? 1 : mode.period) {
  created_.assign(static_cast<size_t>(model_.num_states()), {});
  completed_.assign(static_cast<size_t>(model_.num_states()), {});
}

double PspiceShedder::theta() const {
  return trigger_ ? trigger_->theta() : -1.0;
}

void PspiceShedder::Bind(Engine* engine) {
  Shedder::Bind(engine);
  for (int s = 0; s < model_.num_states(); ++s) {
    created_[static_cast<size_t>(s)].assign(
        std::max<size_t>(1, model_.NumLeaves(s)), 0.0);
    completed_[static_cast<size_t>(s)].assign(
        std::max<size_t>(1, model_.NumLeaves(s)), 0.0);
  }
  // The classifier stamps the tree leaf onto each partial match: the kill
  // audit's per-class counters then break down by leaf, and the hooks
  // below read the stamp back instead of re-extracting features.
  engine->set_classifier(
      [this](const PartialMatch& pm) { return model_.LeafOf(pm); });
  engine->set_pm_created_hook(
      [this](const PartialMatch& pm, const PartialMatch*) {
        if (pm.is_witness || pm.state < 0 || pm.state >= model_.num_states()) {
          return;
        }
        auto& row = created_[static_cast<size_t>(pm.state)];
        const size_t leaf =
            pm.class_label >= 0 &&
                    static_cast<size_t>(pm.class_label) < row.size()
                ? static_cast<size_t>(pm.class_label)
                : 0;
        row[leaf] += 1.0;
      });
  engine->set_match_hook([this](const Match&, const PartialMatch* parent) {
    if (parent == nullptr || parent->is_witness || parent->state < 0 ||
        parent->state >= model_.num_states()) {
      return;
    }
    auto& row = completed_[static_cast<size_t>(parent->state)];
    const size_t leaf =
        parent->class_label >= 0 &&
                static_cast<size_t>(parent->class_label) < row.size()
            ? static_cast<size_t>(parent->class_label)
            : 0;
    row[leaf] += 1.0;
  });
}

void PspiceShedder::ShedFraction(double fraction) {
  if (fraction <= 0.0 || engine_ == nullptr) return;
  PartialMatchStore& store = engine_->store();
  const size_t alive = store.NumAlive() + store.NumAliveWitnesses();
  // Same floor-and-clamp convention as the SS baseline: never exceed the
  // requested fraction by a whole match at tiny populations.
  size_t target =
      static_cast<size_t>(fraction * static_cast<double>(alive) + 1e-9);
  if (target > alive) target = alive;
  if (target == 0) return;

  // Witnesses cannot complete by construction: shed them first.
  store.ForEachAliveWitness([&](PartialMatch* pm) {
    if (target == 0) return;
    KillPm(pm, last_mu_, last_now_);
    --target;
  });
  if (target == 0) return;

  // Rank every live match by predicted completion probability, lowest
  // first; ties break on id so runs are deterministic.
  std::vector<std::pair<double, PartialMatch*>> ranked;
  ranked.reserve(store.NumAlive());
  store.ForEachAlive([&](PartialMatch* pm) {
    ranked.emplace_back(model_.CompletionProbability(*pm), pm);
  });
  if (obs_ != nullptr) obs_->pms_ranked.Add(ranked.size());
  std::sort(ranked.begin(), ranked.end(),
            [](const std::pair<double, PartialMatch*>& a,
               const std::pair<double, PartialMatch*>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second->id < b.second->id;
            });
  for (const auto& [p, pm] : ranked) {
    if (target == 0) break;
    KillPm(pm, last_mu_, last_now_);
    --target;
  }
}

void PspiceShedder::MaybeFold() {
  bool changed = false;
  for (int s = 0; s < model_.num_states(); ++s) {
    auto& created = created_[static_cast<size_t>(s)];
    auto& completed = completed_[static_cast<size_t>(s)];
    for (size_t leaf = 0; leaf < model_.NumLeaves(s); ++leaf) {
      if (leaf >= created.size() || created[leaf] < kMinFoldObservations) {
        continue;
      }
      const double p_online = std::min(1.0, completed[leaf] / created[leaf]);
      model_.SetLeafValue(
          s, static_cast<int>(leaf),
          (1.0 - kFoldWeight) * model_.LeafValue(s, static_cast<int>(leaf)) +
              kFoldWeight * p_online);
      created[leaf] = 0.0;
      completed[leaf] = 0.0;
      changed = true;
    }
  }
  if (changed && obs_ != nullptr) obs_->shed_adapt_folds.Add();
}

void PspiceShedder::AfterEvent(Timestamp now, double mu) {
  last_now_ = now;
  last_mu_ = mu;
  ++events_seen_;
  if (events_seen_ % kFoldPeriod == 0) MaybeFold();
  if (trigger_) {
    const double v = trigger_->Check(mu);
    if (v > 0.0) ShedFraction(v);
    return;
  }
  if (events_seen_ % period_ == 0) ShedFraction(fixed_fraction_);
}

void PspiceShedder::Reset() {
  Shedder::Reset();
  events_seen_ = 0;
  last_now_ = 0;
  last_mu_ = 0.0;
  for (auto& row : created_) std::fill(row.begin(), row.end(), 0.0);
  for (auto& row : completed_) std::fill(row.begin(), row.end(), 0.0);
  if (trigger_) trigger_->Reset();
}

// --- Registry ----------------------------------------------------------

CEPSHED_SHEDDER_LINK_TOKEN(Pspice)

namespace {

const ShedderRegistrar kPspiceRegistrar{
    "pspice", [](const ShedderConfig& config,
                 const ShedderContext& ctx) -> Result<std::unique_ptr<Shedder>> {
      CEPSHED_RETURN_NOT_OK(
          config.ExpectKeys({"theta", "fraction", "delay", "period"}));
      CEPSHED_ASSIGN_OR_RETURN(ResolvedMode mode, ResolveMode(config, ctx));
      if (!mode.fixed() && !mode.bound()) {
        return Status::InvalidArgument(
            "shedder \"pspice\" needs a latency bound (theta=...) or a "
            "fixed ratio (fraction=...)");
      }
      if (ctx.pspice == nullptr || !ctx.pspice->trained()) {
        return Status::InvalidArgument(
            "shedder \"pspice\" needs a trained completion-probability "
            "model (construct it through a prepared harness)");
      }
      if (mode.fixed()) {
        return std::unique_ptr<Shedder>(new PspiceShedder(
            *ctx.pspice, FixedRatioMode{mode.fraction, mode.period}));
      }
      return std::unique_ptr<Shedder>(new PspiceShedder(
          *ctx.pspice, LatencyBoundMode{mode.theta, mode.delay}));
    }};

}  // namespace

}  // namespace cepshed
