// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/shed/offline_estimator.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <unordered_set>

namespace cepshed {

bool OfflineStats::Participates(uint64_t seq) const {
  return std::binary_search(participating_seqs.begin(), participating_seqs.end(), seq);
}

template <typename T>
void ExtractFeatures(const Event& event, const Nfa& nfa, T* out) {
  for (int a : nfa.PredicateAttrs()) {
    const Value& v = event.attr(a);
    float f = -1.0f;
    switch (v.type()) {
      case ValueType::kInt:
        f = static_cast<float>(v.AsInt());
        break;
      case ValueType::kDouble:
        f = static_cast<float>(v.AsDouble());
        break;
      case ValueType::kString:
        // Categorical attributes enter the tree as stable hash buckets.
        f = static_cast<float>(v.Hash() % 1024);
        break;
      case ValueType::kNull:
        break;
    }
    *out++ = static_cast<T>(f);
  }
}

template <typename T>
void ExtractStateFeatures(const PartialMatch& pm, const Nfa& nfa, std::vector<T>* out) {
  const size_t per_event = nfa.PredicateAttrs().size();
  // Slots 0..state inclusive; the in-progress slot may be empty. Only the
  // *last* event of each slot feeds the features, and slot ends are
  // non-decreasing, so one reverse walk over the shared-prefix binding
  // chain visits every needed node (depth d holds flat index d-1) without
  // materializing the whole match.
  const size_t slots = static_cast<size_t>(pm.state) + 1;
  out->assign(slots * per_event, static_cast<T>(-1.0f));
  const BindingNode* node = pm.tail();
  for (size_t slot = slots; slot-- > 0;) {
    const uint32_t end =
        slot < pm.slot_end.size() ? pm.slot_end[slot] : pm.Length();
    const uint32_t begin =
        slot == 0 ? 0
                  : (slot - 1 < pm.slot_end.size() ? pm.slot_end[slot - 1]
                                                   : pm.Length());
    if (end <= begin) continue;
    while (node != nullptr && node->depth > end) node = node->prev;
    if (node == nullptr) break;
    ExtractFeatures(*node->event, nfa, out->data() + slot * per_event);
  }
}

template void ExtractFeatures<float>(const Event&, const Nfa&, float*);
template void ExtractFeatures<double>(const Event&, const Nfa&, double*);
template void ExtractStateFeatures<float>(const PartialMatch&, const Nfa&,
                                          std::vector<float>*);
template void ExtractStateFeatures<double>(const PartialMatch&, const Nfa&,
                                           std::vector<double>*);

Result<OfflineStats> EstimateOffline(std::shared_ptr<const Nfa> nfa,
                                     const EventStream& history, int num_slices,
                                     bool use_resource_cost,
                                     const EngineOptions& engine_options) {
  if (num_slices < 1) {
    return Status::InvalidArgument("offline estimation: num_slices must be >= 1");
  }
  const auto t0 = std::chrono::steady_clock::now();

  OfflineStats stats;
  stats.num_slices = num_slices;
  stats.slice_len =
      std::max<Duration>(1, nfa->window() / static_cast<Duration>(num_slices));
  stats.num_events = history.size();

  Engine engine(nfa, engine_options);
  // Engine pm ids are dense from 1, so records are found through a flat
  // id -> record table; witnesses keep kNoRecord. Each record's parent
  // record index is resolved once at creation, so the ancestor walks below
  // follow record indices without any id lookup.
  constexpr uint32_t kNoRecord = UINT32_MAX;
  std::vector<uint32_t> record_of;  // pm id -> records index
  std::vector<uint32_t> parent_of;  // records index -> parent records index
  auto find_record = [&](uint64_t id) {
    return id < record_of.size() ? record_of[id] : kNoRecord;
  };
  std::unordered_set<uint64_t> participating;

  auto slice_of = [&](Timestamp start_ts, Timestamp now) {
    const Duration age = now - start_ts;
    int s = static_cast<int>(age / stats.slice_len);
    if (s < 0) s = 0;
    if (s >= num_slices) s = num_slices - 1;
    return static_cast<size_t>(s);
  };

  engine.set_pm_created_hook([&](const PartialMatch& pm, const PartialMatch* parent) {
    if (pm.is_witness) return;
    PmRecord rec;
    rec.id = pm.id;
    rec.parent_id = parent != nullptr ? parent->id : 0;
    rec.state = pm.state;
    ExtractStateFeatures(pm, *nfa, &rec.features);
    rec.event_features.resize(nfa->PredicateAttrs().size());
    ExtractFeatures(*pm.LastEvent(), *nfa, rec.event_features.data());
    rec.last_event_type = static_cast<int>(pm.LastEvent()->type());
    rec.contrib_by_slice.assign(static_cast<size_t>(num_slices), 0.0f);
    rec.consum_by_slice.assign(static_cast<size_t>(num_slices), 0.0f);
    rec.own_omega =
        use_resource_cost
            ? static_cast<float>(engine_options.costs.per_clone_base +
                                 engine_options.costs.per_clone_event *
                                     static_cast<double>(pm.Length()))
            : 1.0f;
    rec.start_ts = pm.start_ts;
    rec.birth_ts = pm.last_ts;
    rec.consum_by_slice[0] = rec.own_omega;  // its own footprint
    if (record_of.size() <= pm.id) record_of.resize(pm.id + 1, kNoRecord);
    record_of[pm.id] = static_cast<uint32_t>(stats.records.size());
    parent_of.push_back(find_record(rec.parent_id));
    const float omega = rec.own_omega;
    stats.records.push_back(std::move(rec));

    // Charge the new match's creation cost to every ancestor, at the age
    // slice the ancestor had at this moment: shedding the ancestor before
    // that slice would have prevented the derivation (Gamma- of Eq. 4).
    const Timestamp now = pm.last_ts;
    for (uint32_t a = parent_of.back(); a != kNoRecord; a = parent_of[a]) {
      PmRecord& anc = stats.records[a];
      anc.consum_by_slice[slice_of(anc.start_ts, now)] += omega;
    }
  });

  if (use_resource_cost) {
    // The dominating share of Gamma-: the work spent evaluating query
    // predicates against a stored match every time an event probes it.
    // Charged to the match itself at its current age slice; ancestors are
    // charged at the slice they had when the probed match was *born* —
    // shedding an ancestor after the derivation no longer saves this work.
    engine.set_pm_probed_hook(
        [&](const PartialMatch& pm, double cost, Timestamp now) {
          const uint32_t self = find_record(pm.id);
          if (self == kNoRecord) return;
          PmRecord& rec = stats.records[self];
          rec.consum_by_slice[slice_of(rec.start_ts, now)] +=
              static_cast<float>(cost);
          const Timestamp birth = rec.birth_ts;
          for (uint32_t a = parent_of[self]; a != kNoRecord; a = parent_of[a]) {
            PmRecord& anc = stats.records[a];
            anc.consum_by_slice[slice_of(anc.start_ts, birth)] +=
                static_cast<float>(cost);
          }
        });
  }

  engine.set_match_hook([&](const Match& match, const PartialMatch* parent) {
    ++stats.num_matches;
    for (const EventPtr& e : match.events) participating.insert(e->seq());
    // Credit the complete match to every ancestor (the contribution
    // Gamma+ of Eq. 3).
    const Timestamp now = match.detected_at;
    for (uint32_t a = find_record(parent != nullptr ? parent->id : 0); a != kNoRecord;
         a = parent_of[a]) {
      PmRecord& anc = stats.records[a];
      anc.contrib_by_slice[slice_of(anc.start_ts, now)] += 1.0f;
    }
  });

  std::vector<Match> sink;
  for (const EventPtr& e : history) {
    engine.Process(e, &sink);
    sink.clear();
  }
  stats.total_cost = engine.stats().total_cost;
  stats.participating_seqs.assign(participating.begin(), participating.end());
  std::sort(stats.participating_seqs.begin(), stats.participating_seqs.end());

  // Per-type selectivity statistics for the SI baseline.
  const size_t num_types = nfa->schema().num_event_types();
  std::vector<size_t> type_count(num_types, 0);
  std::vector<size_t> type_hits(num_types, 0);
  for (const EventPtr& e : history) {
    ++type_count[static_cast<size_t>(e->type())];
    if (stats.Participates(e->seq())) {
      ++type_hits[static_cast<size_t>(e->type())];
    }
  }
  stats.type_utility.assign(num_types, 0.0);
  stats.type_share.assign(num_types, 0.0);
  for (size_t t = 0; t < num_types; ++t) {
    if (type_count[t] > 0) {
      stats.type_utility[t] =
          static_cast<double>(type_hits[t]) / static_cast<double>(type_count[t]);
    }
    if (!history.empty()) {
      stats.type_share[t] =
          static_cast<double>(type_count[t]) / static_cast<double>(history.size());
    }
  }

  // Per-state completion probability for the SS baseline.
  std::vector<size_t> state_pms(static_cast<size_t>(nfa->num_states()), 0);
  std::vector<size_t> state_completed(static_cast<size_t>(nfa->num_states()), 0);
  for (const PmRecord& rec : stats.records) {
    ++state_pms[static_cast<size_t>(rec.state)];
    float total = 0.0f;
    for (float c : rec.contrib_by_slice) total += c;
    if (total > 0.0f) ++state_completed[static_cast<size_t>(rec.state)];
  }
  stats.state_completion.assign(static_cast<size_t>(nfa->num_states()), 0.0);
  for (int s = 0; s < nfa->num_states(); ++s) {
    if (state_pms[static_cast<size_t>(s)] > 0) {
      stats.state_completion[static_cast<size_t>(s)] =
          static_cast<double>(state_completed[static_cast<size_t>(s)]) /
          static_cast<double>(state_pms[static_cast<size_t>(s)]);
    }
  }

  stats.replay_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return stats;
}

}  // namespace cepshed
