// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/cep/engine.h"

#include <algorithm>
#include <cassert>

namespace cepshed {

Engine::Engine(std::shared_ptr<const Nfa> nfa, EngineOptions options)
    : nfa_(std::move(nfa)),
      options_(options),
      store_(nfa_->num_states(), static_cast<int>(nfa_->query().elements.size())),
      indexes_(static_cast<size_t>(nfa_->num_states())) {
  ctx_.num_elements = static_cast<int>(nfa_->query().elements.size());
  // Aggregates fold every bound event, so queries containing one keep the
  // flatten-based evaluation context; everything else evaluates off the
  // chain's slot edges without ever materializing the bindings.
  for (int s = 0; s < nfa_->num_states() && !span_context_; ++s) {
    const NfaState& st = nfa_->state(s);
    auto any_agg = [](const std::vector<const CompiledPredicate*>& preds) {
      for (const CompiledPredicate* cp : preds) {
        if (cp->expr->HasAggregate()) return true;
      }
      return false;
    };
    span_context_ = any_agg(st.bind_preds) || any_agg(st.iter_preds) ||
                    any_agg(st.close_preds) ||
                    (st.fill_index.build_expr != nullptr &&
                     st.fill_index.build_expr->HasAggregate());
  }
  if (options_.use_pred_vm && nfa_->vm_module() != nullptr) {
    vm_ = nfa_->vm_module().get();
    vm_ctx_.Prepare(vm_->num_loads());
  }
  store_.ConfigureExpiry(nfa_->window(), nfa_->query().count_window,
                         options_.use_expiry_wheel);
  strict_gen_enabled_ = options_.use_strict_gen_list &&
                        nfa_->query().policy == SelectionPolicy::kStrictContiguity;
  BuildIndexLayout();
  BuildBatchPlan();
}

void Engine::BuildBatchPlan() {
  if (vm_ == nullptr) return;
  batch_plan_of_prog_.assign(static_cast<size_t>(vm_->num_programs()), 0);
  auto try_add = [&](const NfaState& st, const CompiledPredicate* cp) {
    if (cp->vm_program < 0) return;
    if (batch_plan_of_prog_[static_cast<size_t>(cp->vm_program)] != 0) return;
    PredVmModule::FusedAcSpec spec;
    if (!vm_->FusedAcProgram(cp->vm_program, &spec)) return;
    // Only loads that read the current event whenever this predicate runs
    // with current_elem == elem are precomputable per event. kFirst reads
    // the current event only on the first bind into a Kleene slot, and
    // kIterPrev never reads it.
    if (spec.elem != st.pattern_elem) return;
    if (spec.selector != RefSelector::kSingle &&
        spec.selector != RefSelector::kIterCurr &&
        spec.selector != RefSelector::kLast) {
      return;
    }
    if (spec.attr < 0) return;
    batch_plan_.push_back(
        {cp->vm_program, spec.elem, spec.attr, spec.op, spec.constant});
    batch_plan_of_prog_[static_cast<size_t>(cp->vm_program)] =
        static_cast<int>(batch_plan_.size());
  };
  for (int s = 0; s < nfa_->num_states(); ++s) {
    const NfaState& st = nfa_->state(s);
    for (const CompiledPredicate* cp : st.bind_preds) try_add(st, cp);
    for (const CompiledPredicate* cp : st.iter_preds) try_add(st, cp);
  }
}

void Engine::ComputeBatchMasks() {
  const size_t n = batch_n_;
  batch_masks_.resize(batch_plan_.size());
  // Attributes repeat across plan entries (several literal filters on one
  // column); extract each attribute's SoA column once and reuse it.
  int extracted_attr = -1;
  for (size_t k = 0; k < batch_plan_.size(); ++k) {
    const BatchProgram& bp = batch_plan_[k];
    if (bp.attr != extracted_attr) {
      batch_col_i_.resize(n);
      batch_col_d_.resize(n);
      batch_col_tag_.assign(n, VmSlot::kNull);
      for (size_t i = 0; i < n; ++i) {
        const Value& v = batch_events_[i]->attr(bp.attr);
        switch (v.type()) {
          case ValueType::kInt:
            batch_col_i_[i] = v.AsInt();
            batch_col_tag_[i] = VmSlot::kInt;
            break;
          case ValueType::kDouble:
            batch_col_d_[i] = v.AsDouble();
            batch_col_tag_[i] = VmSlot::kDouble;
            break;
          default:
            break;  // strings and nulls take the generic row path below
        }
      }
      extracted_attr = bp.attr;
    }
    std::vector<uint8_t>& mask = batch_masks_[k];
    mask.resize(n);
    bool all_int = bp.constant.tag == VmSlot::kInt;
    bool all_dbl = bp.constant.tag == VmSlot::kDouble;
    for (size_t i = 0; i < n && (all_int || all_dbl); ++i) {
      all_int = all_int && batch_col_tag_[i] == VmSlot::kInt;
      all_dbl = all_dbl && batch_col_tag_[i] == VmSlot::kDouble;
    }
    if (all_int) {
      const int64_t c = bp.constant.i;
      const int64_t* col = batch_col_i_.data();
      switch (bp.op) {
        case CmpOp::kEq: for (size_t i = 0; i < n; ++i) mask[i] = col[i] == c; break;
        case CmpOp::kNe: for (size_t i = 0; i < n; ++i) mask[i] = col[i] != c; break;
        case CmpOp::kLt: for (size_t i = 0; i < n; ++i) mask[i] = col[i] < c; break;
        case CmpOp::kLe: for (size_t i = 0; i < n; ++i) mask[i] = col[i] <= c; break;
        case CmpOp::kGt: for (size_t i = 0; i < n; ++i) mask[i] = col[i] > c; break;
        case CmpOp::kGe: for (size_t i = 0; i < n; ++i) mask[i] = col[i] >= c; break;
      }
    } else if (all_dbl) {
      const double c = bp.constant.d;
      const double* col = batch_col_d_.data();
      switch (bp.op) {
        case CmpOp::kEq: for (size_t i = 0; i < n; ++i) mask[i] = col[i] == c; break;
        case CmpOp::kNe: for (size_t i = 0; i < n; ++i) mask[i] = col[i] != c; break;
        case CmpOp::kLt: for (size_t i = 0; i < n; ++i) mask[i] = col[i] < c; break;
        case CmpOp::kLe: for (size_t i = 0; i < n; ++i) mask[i] = col[i] <= c; break;
        case CmpOp::kGt: for (size_t i = 0; i < n; ++i) mask[i] = col[i] > c; break;
        case CmpOp::kGe: for (size_t i = 0; i < n; ++i) mask[i] = col[i] >= c; break;
      }
    } else {
      // Mixed/null/string rows: the reference tag-dispatch per row, so the
      // verdicts stay bit-identical to FusedCompare's generic fallback.
      for (size_t i = 0; i < n; ++i) {
        VmSlot l;
        l.tag = batch_col_tag_[i];
        if (l.tag == VmSlot::kInt) {
          l.i = batch_col_i_[i];
        } else if (l.tag == VmSlot::kDouble) {
          l.d = batch_col_d_[i];
        } else {
          const Value& v = batch_events_[i]->attr(bp.attr);
          if (v.type() == ValueType::kString) {
            l.tag = VmSlot::kStr;
            l.s = &v.AsString();
          } else {
            l.tag = VmSlot::kNull;
            l.i = 0;
          }
        }
        mask[i] = PredVmModule::FusedAcResult(l, bp.constant, bp.op) ? 1 : 0;
      }
    }
  }
}

void Engine::BeginBatch(const EventPtr* events, size_t n) {
  batch_n_ = 0;
  batch_cursor_ = 0;
  batch_cur_ = -1;
  if (batch_plan_.empty() || n == 0) return;
  batch_events_.resize(n);
  for (size_t i = 0; i < n; ++i) batch_events_[i] = events[i].get();
  batch_n_ = n;
  // Mask precompute charges nothing: the full scalar cost (load + compare)
  // is charged at each consult in EvalPreds, preserving exact cost-unit
  // parity with unbatched execution.
  ComputeBatchMasks();
}

void Engine::EndBatch() {
  batch_n_ = 0;
  batch_cursor_ = 0;
  batch_cur_ = -1;
}

double Engine::ProcessBatch(const EventPtr* events, size_t n,
                            std::vector<Match>* out) {
  BeginBatch(events, n);
  double cost = 0.0;
  for (size_t i = 0; i < n; ++i) cost += Process(events[i], out);
  EndBatch();
  return cost;
}

void Engine::BuildIndexLayout() {
  const bool use = options_.use_join_index;
  auto usable = [&](const JoinIndexSpec& spec) {
    return use && spec.valid() &&
           (options_.index_expression_keys || !spec.expression_key);
  };
  for (int s = 0; s < nfa_->num_states(); ++s) {
    const NfaState& st = nfa_->state(s);
    StateIndexes& idx = indexes_[static_cast<size_t>(s)];
    if (usable(st.fill_index)) {
      idx.fresh.enabled = true;
      idx.fresh.spec = &st.fill_index;
    }
    if (st.kleene) {
      const JoinIndexSpec* ext_spec =
          usable(st.extend_index) ? &st.extend_index
                                  : (usable(st.fill_index) ? &st.fill_index : nullptr);
      if (ext_spec != nullptr) {
        idx.ext.enabled = true;
        idx.ext.spec = ext_spec;
      }
    }
    if (s > 0 && nfa_->state(s - 1).kleene && usable(st.fill_index)) {
      idx.proceed.enabled = true;
      idx.proceed.spec = &st.fill_index;
    }
  }
  // Distinct probe attributes, for the per-event hoist in Process.
  int max_attr = -1;
  auto note = [&](const HashIndex& hi) {
    if (!hi.enabled) return;
    const int attr = hi.spec->probe_attr;
    if (std::find(probe_attrs_.begin(), probe_attrs_.end(), attr) ==
        probe_attrs_.end()) {
      probe_attrs_.push_back(attr);
    }
    max_attr = std::max(max_attr, attr);
  };
  for (const StateIndexes& idx : indexes_) {
    note(idx.fresh);
    note(idx.ext);
    note(idx.proceed);
  }
  probe_keys_.assign(static_cast<size_t>(max_attr + 1), nullptr);
}

const std::vector<const Event*>& Engine::FlatEvents(const PartialMatch* pm) {
  auto it = flat_cache_.find(pm->id);
  if (it != flat_cache_.end() && it->second.size() == pm->Length()) {
    return it->second;
  }
  if (flat_cache_.size() >= kFlatCacheMaxEntries) flat_cache_.clear();
  std::vector<const Event*>& flat = flat_cache_[pm->id];
  pm->FlattenTo(&flat);
  return flat;
}

void Engine::FillContext(const PartialMatch* pm, const Event* current, int current_elem) {
  vm_ctx_.Invalidate();
  for (int e = 0; e < ctx_.num_elements; ++e) {
    ctx_.bindings[e] = ElemBinding{};
  }
  ctx_.current = current;
  ctx_.current_elem = current_elem;
  ctx_.negated = nullptr;
  ctx_.negated_elem = -1;
  if (pm == nullptr || pm->Length() == 0) return;
  const size_t closed = pm->slot_end.size();
  const uint32_t total = pm->Length();
  if (span_context_) {
    // Aggregate query: materialize full spans from the flattened view.
    const std::vector<const Event*>& flat = FlatEvents(pm);
    uint32_t begin = 0;
    for (size_t slot = 0; slot < closed; ++slot) {
      const uint32_t end = pm->slot_end[slot];
      const int elem = nfa_->ElemOfSlot(static_cast<int>(slot));
      ctx_.bindings[elem] = ElemBinding{flat.data() + begin, end - begin};
      begin = end;
    }
    if (begin < total) {
      // Open (in-progress Kleene) component.
      const int elem = nfa_->ElemOfSlot(static_cast<int>(closed));
      ctx_.bindings[elem] = ElemBinding{flat.data() + begin, total - begin};
    }
    return;
  }
  // Edge form: predicates only ever read the first, last, or second-to-last
  // event of a binding, all O(1) reachable from the chain via slot_start.
  // Walk the slot segments newest-to-oldest — O(#slots), independent of the
  // match length. Empty closed slots (zero-rep Kleene) have no segment and
  // keep their zeroed binding.
  const BindingNode* node = pm->tail();
  auto fill_one = [&](int slot, uint32_t begin, uint32_t end) {
    if (end == begin) return;
    const BindingNode* first = node->slot_start;
    ElemBinding& b = ctx_.bindings[nfa_->ElemOfSlot(slot)];
    b.count = end - begin;
    assert(b.count == node->depth - first->depth + 1);
    b.first = first->event.get();
    b.last = node->event.get();
    if (b.count >= 2) b.prev_last = node->prev->event.get();
    node = first->prev;
  };
  const uint32_t closed_end = closed == 0 ? 0 : pm->slot_end.back();
  if (closed_end < total) {
    fill_one(static_cast<int>(closed), closed_end, total);
  }
  for (int slot = static_cast<int>(closed) - 1; slot >= 0; --slot) {
    fill_one(slot, slot > 0 ? pm->slot_end[static_cast<size_t>(slot) - 1] : 0,
             pm->slot_end[static_cast<size_t>(slot)]);
  }
  assert(node == nullptr);
}

bool Engine::EvalPreds(const std::vector<const CompiledPredicate*>& preds, double* cost) {
  for (const CompiledPredicate* cp : preds) {
    double pred_cost = 0.0;
    bool pass;
    int plan;
    if (batch_cur_ >= 0 && cp->vm_program >= 0 &&
        (plan = batch_plan_of_prog_[static_cast<size_t>(cp->vm_program)]) !=
            0 &&
        ctx_.current == batch_events_[static_cast<size_t>(batch_cur_)] &&
        ctx_.current_elem == batch_plan_[static_cast<size_t>(plan - 1)].elem &&
        ctx_.negated == nullptr) {
      // Precomputed batch verdict. The scalar dispatch for this program is
      // a single fused AC compare: one register-cached load (basic, hit or
      // miss) plus the compare (basic) — charge exactly that.
      pass = batch_masks_[static_cast<size_t>(plan - 1)]
                         [static_cast<size_t>(batch_cur_)] != 0;
      pred_cost = 2.0 * kExprCostBasic;
    } else {
      pass = (vm_ != nullptr && cp->vm_program >= 0)
                 ? vm_->EvalBool(cp->vm_program, ctx_, &vm_ctx_, &pred_cost)
                 : cp->expr->EvalBool(ctx_, &pred_cost);
    }
    *cost += pred_cost * options_.costs.pred_weight;
    ++stats_.predicate_evals;
    if (!pass) return false;
  }
  return true;
}

Value Engine::BuildKey(const HashIndex& index, const PartialMatch& pm) {
  if (!index.enabled) return Value();
  FillContext(&pm, nullptr, -1);
  if (vm_ != nullptr && index.spec->vm_build_program >= 0) {
    return vm_->Eval(index.spec->vm_build_program, ctx_, &vm_ctx_, nullptr);
  }
  return index.spec->build_expr->Eval(ctx_, nullptr);
}

void Engine::IndexAdd(HashIndex* index, PartialMatch* pm, const Value& key) {
  if (!index->enabled || key.is_null()) {
    index->unkeyed.push_back(pm);
  } else {
    index->map[key].push_back(pm);
  }
}

void Engine::IndexInsert(PartialMatch* pm) {
  const int s = pm->state;
  const NfaState& st = nfa_->state(s);
  StateIndexes& idx = indexes_[static_cast<size_t>(s)];
  if (pm->OpenCount() == 0) {
    IndexAdd(&idx.fresh, pm, BuildKey(idx.fresh, *pm));
  } else {
    IndexAdd(&idx.ext, pm, BuildKey(idx.ext, *pm));
  }
  if (st.kleene && pm->OpenCount() >= static_cast<uint32_t>(st.min_reps) &&
      s + 1 < nfa_->num_states()) {
    StateIndexes& next = indexes_[static_cast<size_t>(s + 1)];
    IndexAdd(&next.proceed, pm, BuildKey(next.proceed, *pm));
  }
}

bool Engine::TryBind(PartialMatch* pm, int state, const EventPtr& event, bool is_proceed,
                     double* cost, std::vector<Match>* out) {
  const NfaState& st = nfa_->state(state);
  const int elem = st.pattern_elem;
  const uint32_t open_before = (pm != nullptr && !is_proceed) ? pm->OpenCount() : 0;
  const bool is_extension = st.kleene && !is_proceed && open_before >= 1;

  FillContext(pm, event.get(), elem);
  if (is_proceed) {
    // The previous (Kleene) component is closing: enforce its deferred
    // aggregate predicates over the finished binding.
    const NfaState& prev = nfa_->state(state - 1);
    if (!EvalPreds(prev.close_preds, cost)) return false;
  }
  if (!EvalPreds(st.bind_preds, cost)) return false;
  if (is_extension && !EvalPreds(st.iter_preds, cost)) return false;

  // Clone and bind: the clone shares the parent's entire binding chain
  // and adds exactly one node — O(1) regardless of match length. (The
  // *virtual* cost formula below is unchanged: it models the engine the
  // paper measures, and differential runs compare it exactly.)
  auto clone = std::make_unique<PartialMatch>();
  clone->id = next_pm_id_++;
  clone->parent_id = pm != nullptr ? pm->id : 0;
  clone->ExtendFrom(&store_.arena(), pm, event, /*new_slot=*/!is_extension);
  if (is_proceed) {
    // The newly closed (Kleene) slot ends just before the event bound here.
    clone->slot_end.push_back(clone->Length() - 1);
  }
  *cost += options_.costs.per_clone_base +
           options_.costs.per_clone_event * static_cast<double>(clone->Length());

  bool complete = false;
  bool store_clone = true;
  if (!st.kleene) {
    clone->CloseSlot();
    clone->state = state + 1;
    complete = clone->state == nfa_->num_states();
    store_clone = !complete;
  } else {
    clone->state = state;
    const uint32_t k = clone->OpenCount();
    const bool trailing = state + 1 == nfa_->num_states();
    if (trailing && k >= static_cast<uint32_t>(st.min_reps)) {
      bool close_ok = true;
      if (!st.close_preds.empty()) {
        FillContext(clone.get(), nullptr, -1);
        close_ok = EvalPreds(st.close_preds, cost);
      }
      if (close_ok) EmitMatch(*clone, pm, event, cost, out);
    }
    const bool can_extend = k < static_cast<uint32_t>(st.max_reps);
    const bool can_proceed = !trailing;
    store_clone = can_extend || can_proceed;
  }
  if (pm != nullptr) {
    // Same window anchor as the parent: the first bound event is shared.
    clone->start_ts = pm->start_ts;
    clone->start_seq = pm->start_seq;
  } else {
    clone->start_ts = event->timestamp();
    clone->start_seq = event->seq();
  }
  clone->last_ts = event->timestamp();

  if (complete) {
    EmitMatch(*clone, pm, event, cost, out);
    return true;
  }
  if (store_clone) {
    pending_.push_back(std::move(clone));
    pending_parents_.push_back(pm);
  }
  return true;
}

void Engine::EmitMatch(const PartialMatch& closed, const PartialMatch* parent,
                       const EventPtr& last_event, double* cost, std::vector<Match>* out) {
  Match match;
  closed.FlattenTo(&match.events);
  match.slot_end = closed.slot_end;
  if (match.slot_end.size() < static_cast<size_t>(nfa_->num_states())) {
    match.slot_end.push_back(static_cast<uint32_t>(match.events.size()));
  }
  match.detected_at = last_event->timestamp();
  match.from_pm = parent != nullptr ? parent->id : 0;
  *cost += options_.costs.per_match_emit;
  if (IsVetoed(match, cost)) {
    ++stats_.matches_vetoed;
    return;
  }
  ++stats_.matches_emitted;
  if (match_hook_) match_hook_(match, parent);
  if (out != nullptr) out->push_back(std::move(match));
}

bool Engine::IsVetoed(const Match& match, double* cost) {
  bool scratch_filled = false;
  for (const NegationSpec& neg : nfa_->negations()) {
    // Veto interval: strictly between the last event of the preceding slot
    // and the first event of the following slot.
    const uint32_t prev_end = match.slot_end[static_cast<size_t>(neg.prev_state)];
    const Timestamp t_lo = match.events[prev_end - 1]->timestamp();
    const uint32_t next_begin =
        neg.next_state == 0 ? 0 : match.slot_end[static_cast<size_t>(neg.next_state) - 1];
    const Timestamp t_hi = match.events[next_begin]->timestamp();
    if (t_hi <= t_lo) continue;

    const auto& bucket = store_.witnesses(neg.pattern_elem);
    // Witnesses are stored in arrival (= timestamp) order.
    auto it = std::partition_point(bucket.begin(), bucket.end(),
                                   [t_lo](const std::unique_ptr<PartialMatch>& w) {
                                     return w->last_ts <= t_lo;
                                   });
    for (; it != bucket.end() && (*it)->last_ts < t_hi; ++it) {
      const PartialMatch* w = it->get();
      if (!w->alive) continue;
      *cost += options_.costs.per_witness_check;
      // Evaluate negation predicates with the witness standing in for the
      // negated component.
      if (!scratch_filled) {
        veto_scratch_.clear();
        veto_scratch_.reserve(match.events.size());
        for (const EventPtr& e : match.events) veto_scratch_.push_back(e.get());
        scratch_filled = true;
      }
      // The context changes per witness without going through FillContext:
      // drop the VM's cached attribute loads explicitly.
      vm_ctx_.Invalidate();
      for (int e = 0; e < ctx_.num_elements; ++e) ctx_.bindings[e] = ElemBinding{};
      uint32_t begin = 0;
      for (size_t slot = 0; slot < match.slot_end.size(); ++slot) {
        const uint32_t end = match.slot_end[slot];
        const int elem = nfa_->ElemOfSlot(static_cast<int>(slot));
        ctx_.bindings[elem] = ElemBinding{veto_scratch_.data() + begin, end - begin};
        begin = end;
      }
      ctx_.current = nullptr;
      ctx_.current_elem = -1;
      ctx_.negated = w->LastEvent();
      ctx_.negated_elem = neg.pattern_elem;
      bool all_pass = true;
      for (const CompiledPredicate* cp : neg.preds) {
        double pred_cost = 0.0;
        const bool pass =
            (vm_ != nullptr && cp->vm_program >= 0)
                ? vm_->EvalBool(cp->vm_program, ctx_, &vm_ctx_, &pred_cost)
                : cp->expr->EvalBool(ctx_, &pred_cost);
        *cost += pred_cost * options_.costs.pred_weight;
        ++stats_.predicate_evals;
        if (!pass) {
          all_pass = false;
          break;
        }
      }
      if (all_pass) return true;
    }
  }
  return false;
}

void Engine::StorePending(std::vector<Match>* out, double* cost) {
  (void)out;
  (void)cost;
  for (size_t i = 0; i < pending_.size(); ++i) {
    std::unique_ptr<PartialMatch>& pm = pending_[i];
    const PartialMatch* parent = pending_parents_[i];
    PartialMatch* stored;
    if (pm->is_witness) {
      stored = store_.AddWitness(std::move(pm));
      ++stats_.witnesses_created;
    } else {
      if (classifier_) pm->class_label = classifier_(*pm);
      if (creation_filter_ && creation_filter_(*pm)) {
        ++stats_.pms_created;  // it existed; shedding discarded it
        continue;
      }
      stored = store_.Add(std::move(pm));
      ++stats_.pms_created;
      IndexInsert(stored);
      if (strict_gen_enabled_) strict_next_gen_.push_back(stored);
    }
    if (pm_created_hook_) pm_created_hook_(*stored, parent);
  }
  pending_.clear();
  pending_parents_.clear();
}

double Engine::Process(const EventPtr& event, std::vector<Match>* out) {
  if (batch_n_ != 0) {
    // Locate the event in the active batch. Events arrive in batch order,
    // possibly with gaps (shed or guard-dropped upstream), so a monotone
    // scan from the previous position suffices; an event not in the batch
    // (or a stale batch after a consumer restart) simply runs unmasked.
    while (batch_cursor_ < batch_n_ &&
           batch_events_[batch_cursor_] != event.get()) {
      ++batch_cursor_;
    }
    if (batch_cursor_ < batch_n_) {
      batch_cur_ = static_cast<int>(batch_cursor_);
      ++batch_cursor_;
    } else {
      batch_cur_ = -1;
    }
  }
  double cost = options_.costs.per_event_base;
  const Timestamp now = event->timestamp();
  const Duration window = nfa_->window();
  const uint64_t count_window = nfa_->query().count_window;
  const uint64_t seq = event->seq();
  auto expired = [&](const PartialMatch& pm) {
    return count_window > 0 ? pm.ExpiredByCount(seq, count_window)
                            : pm.Expired(now, window);
  };

  if (++events_since_evict_ >= options_.evict_interval) {
    events_since_evict_ = 0;
    // Cost parity: whichever mechanism finds the expired matches, the
    // sweep is booked as the state-size-proportional maintenance the cost
    // model charges — per_sweep_scan for every live match, taken from the
    // O(1) live counters. The wheel changes how the expired set is found
    // (O(expired) instead of O(live)), never what is killed, when, or
    // what is accounted (DESIGN.md §3.9).
    const size_t scanned = store_.NumAlive() + store_.NumAliveWitnesses();
    cost += options_.costs.per_sweep_scan * static_cast<double>(scanned);
    size_t evicted = 0;
    if (store_.wheel_enabled()) {
      evicted = store_.ReapExpired(now, seq);
    } else if (count_window > 0) {
      auto sweep = [&](PartialMatch* pm) {
        if (pm->ExpiredByCount(seq, count_window)) {
          store_.Kill(pm);
          ++evicted;
        }
      };
      store_.ForEachAlive(sweep);
      store_.ForEachAliveWitness(sweep);
    } else {
      evicted = store_.EvictExpired(now, window);
    }
    stats_.pms_evicted += evicted;
    cost += options_.costs.per_eviction * static_cast<double>(evicted);
    const size_t dead =
        store_.NumDead();
    if (dead >= options_.compact_min_dead &&
        store_.DeadFraction() >= options_.compact_dead_fraction) {
      store_.Compact();
      RebuildIndexes();
    }
  }

  const SelectionPolicy policy = nfa_->query().policy;
  auto probe = [&](HashIndex& index, int state, bool is_proceed) {
    const NfaState& st = nfa_->state(state);
    auto consider = [&](PartialMatch* pm) {
      ++stats_.candidates_scanned;
      cost += options_.costs.per_candidate;
      if (!pm->alive) return;
      if (expired(*pm)) {
        store_.Kill(pm);
        ++stats_.pms_evicted;
        return;
      }
      if (!is_proceed && st.kleene && pm->OpenCount() >= static_cast<uint32_t>(st.max_reps)) {
        return;
      }
      bool bound;
      if (pm_probed_hook_) {
        const double before = cost;
        bound = TryBind(pm, state, event, is_proceed, &cost, out);
        pm_probed_hook_(*pm, options_.costs.per_candidate + (cost - before), now);
      } else {
        bound = TryBind(pm, state, event, is_proceed, &cost, out);
      }
      if (bound && policy == SelectionPolicy::kSkipTillNextMatch) {
        // Selective: the match takes this event and does not branch.
        store_.Kill(pm);
      }
    };
    if (index.enabled) {
      ++stats_.index_probes;
      cost += options_.costs.per_index_probe;
      const Value& key = *probe_keys_[static_cast<size_t>(index.spec->probe_attr)];
      if (!key.is_null()) {
        auto it = index.map.find(key);
        if (it != index.map.end()) {
          for (PartialMatch* pm : it->second) consider(pm);
        }
      }
      for (PartialMatch* pm : index.unkeyed) consider(pm);
    } else {
      for (PartialMatch* pm : index.unkeyed) consider(pm);
    }
  };

  // Hoist the probe-key attribute reads: one reference per distinct
  // attribute per event, instead of a deep Value copy per probed state
  // (string keys made that copy an allocation on the hot path).
  for (int a : probe_attrs_) {
    probe_keys_[static_cast<size_t>(a)] = &event->attr(a);
  }

  for (int s : nfa_->StatesForType(event->type())) {
    StateIndexes& idx = indexes_[static_cast<size_t>(s)];
    probe(idx.fresh, s, /*is_proceed=*/false);
    if (nfa_->state(s).kleene) probe(idx.ext, s, /*is_proceed=*/false);
    if (s > 0 && nfa_->state(s - 1).kleene) probe(idx.proceed, s, /*is_proceed=*/true);
  }

  // Stream-created match at state 0.
  if (nfa_->state(0).event_type == event->type()) {
    cost += options_.costs.per_create;
    TryBind(nullptr, 0, event, /*is_proceed=*/false, &cost, out);
  }

  // Negation witnesses.
  for (int neg_elem : nfa_->NegationsForType(event->type())) {
    auto witness = std::make_unique<PartialMatch>();
    witness->id = next_pm_id_++;
    witness->state = 0;
    witness->is_witness = true;
    witness->negated_elem = neg_elem;
    witness->ExtendFrom(&store_.arena(), nullptr, event);
    witness->start_ts = witness->last_ts = now;
    witness->start_seq = event->seq();
    cost += options_.costs.per_witness_store;
    pending_.push_back(std::move(witness));
    pending_parents_.push_back(nullptr);
  }

  StorePending(out, &cost);

  if (policy == SelectionPolicy::kStrictContiguity) {
    // Strict contiguity: a stored match survives only if this very event
    // extended it (its newest clone carries the event's sequence number);
    // everything older dies.
    if (strict_gen_enabled_) {
      // The previous generation is exactly the live set the full scan
      // would walk (every older generation already died here), so killing
      // off the list is the same kill set at O(generation) instead of
      // O(live store incl. tombstones).
      for (PartialMatch* pm : strict_gen_) {
        if (pm->alive && pm->LastEvent()->seq() != event->seq()) {
          store_.Kill(pm);
        }
      }
      strict_gen_.swap(strict_next_gen_);
      strict_next_gen_.clear();
    } else {
      store_.ForEachAlive([&](PartialMatch* pm) {
        if (pm->LastEvent()->seq() != event->seq()) store_.Kill(pm);
      });
    }
  }

  ++stats_.events_processed;
  last_seq_ = seq;
  stats_.total_cost += cost;
  const size_t live = store_.NumAlive() + store_.NumAliveWitnesses();
  if (live > stats_.peak_pms) stats_.peak_pms = live;
  return cost;
}

void Engine::Vacuum(Timestamp now, uint64_t seq) {
  // Mirror the per-event sweep's window semantics. Count-window queries
  // alias `window()` to the count, so the time-based EvictExpired would
  // misread the count as a duration and evict matches that are still
  // inside the count window (or keep ones that are out of it).
  const uint64_t count_window = nfa_->query().count_window;
  size_t evicted = 0;
  if (store_.wheel_enabled()) {
    evicted = store_.ReapExpired(now, seq);
  } else if (count_window > 0) {
    auto sweep = [&](PartialMatch* pm) {
      if (pm->ExpiredByCount(seq, count_window)) {
        store_.Kill(pm);
        ++evicted;
      }
    };
    store_.ForEachAlive(sweep);
    store_.ForEachAliveWitness(sweep);
  } else {
    evicted = store_.EvictExpired(now, nfa_->window());
  }
  stats_.pms_evicted += evicted;
  // No tombstones means compaction would move nothing and the rebuild
  // would recreate the indexes it just tore down; stored-match pointers
  // (and the indexes into them) survive a vacuous Vacuum untouched.
  if (store_.NumDead() == 0) return;
  store_.Compact();
  RebuildIndexes();
}

size_t Engine::ShedLowestUtility(size_t max_kill, size_t min_bytes_freed,
                                 const PmUtilityFn& utility) {
  if (max_kill == 0) return 0;
  struct Candidate {
    double utility;
    PartialMatch* pm;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(store_.NumAlive());
  store_.ForEachAlive([&](PartialMatch* pm) {
    candidates.push_back(
        {utility ? utility(*pm) : DefaultPmUtility(*pm), pm});
  });
  // Lowest utility first; among equals evict the newest (its peers have
  // had longer to accumulate extensions, so the newest carries the least
  // sunk work). The id tiebreak also makes the order fully deterministic.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.utility != b.utility) return a.utility < b.utility;
              return a.pm->id > b.pm->id;
            });
  size_t killed = 0;
  size_t bytes_freed = 0;
  for (const Candidate& c : candidates) {
    if (killed >= max_kill) break;
    if (min_bytes_freed > 0 && bytes_freed >= min_bytes_freed) break;
    // Marginal estimate: only the chain suffix exclusively owned by this
    // match counts (shared prefix nodes stay resident for its siblings).
    // Killing a match can promote a sibling's prefix to exclusive, so the
    // per-kill estimates self-correct as the loop proceeds.
    bytes_freed += PartialMatchStore::ApproxBytes(*c.pm);
    store_.Kill(c.pm);
    ++killed;
  }
  stats_.pms_evicted += killed;
  return killed;
}

MigratedState Engine::ExtractPartialMatches(
    const std::function<bool(const PartialMatch&)>& pred) {
  MigratedState out;
  store_.ExtractIf(pred, &out.regulars, &out.witnesses);
  if (out.empty()) return out;
  out.arenas.push_back(store_.shared_arena());
  for (const std::shared_ptr<BindingArena>& a : store_.foreign_arenas()) {
    out.arenas.push_back(a);
  }
  for (const auto& pm : out.regulars) {
    out.approx_bytes += PartialMatchStore::ApproxBytes(*pm);
  }
  for (const auto& pm : out.witnesses) {
    out.approx_bytes += PartialMatchStore::ApproxBytes(*pm);
  }
  // The index raw pointers to extracted matches are dead, and the flatten
  // cache holds raw event pointers into chains another engine will free.
  RebuildIndexes();
  flat_cache_.clear();
  return out;
}

void Engine::AdoptPartialMatches(MigratedState state) {
  if (state.empty()) return;
  store_.AdoptForeignArenas(state.arenas);
  for (auto& pm : state.regulars) {
    pm->id = next_pm_id_++;
    pm->parent_id = 0;
    store_.Add(std::move(pm));
  }
  const bool adopted_witnesses = !state.witnesses.empty();
  for (auto& pm : state.witnesses) {
    pm->id = next_pm_id_++;
    pm->parent_id = 0;
    store_.AddWitness(std::move(pm));
  }
  if (adopted_witnesses) {
    // Adopted witnesses interleave arbitrarily with resident ones in event
    // time; IsVetoed's partition_point needs each bucket ascending by
    // last_ts. stable_sort keeps the (deterministic) donor order among
    // equal timestamps.
    for (int e = 0; e < store_.num_witness_buckets(); ++e) {
      auto& bucket = store_.witnesses(e);
      std::stable_sort(bucket.begin(), bucket.end(),
                       [](const std::unique_ptr<PartialMatch>& a,
                          const std::unique_ptr<PartialMatch>& b) {
                         return a->last_ts < b->last_ts;
                       });
    }
  }
  RebuildIndexes();
  flat_cache_.clear();
}

void Engine::Reset() {
  store_.Clear();
  for (auto& idx : indexes_) {
    idx.fresh.Clear();
    idx.ext.Clear();
    idx.proceed.Clear();
  }
  stats_ = EngineStats{};
  next_pm_id_ = 1;
  events_since_evict_ = 0;
  last_seq_ = 0;
  strict_gen_.clear();
  strict_next_gen_.clear();
  EndBatch();
  // Ids restart at 1, so stale flatten entries must not survive a reset.
  flat_cache_.clear();
  pending_.clear();
  pending_parents_.clear();
}

void Engine::RebuildIndexes() {
  for (auto& idx : indexes_) {
    idx.fresh.Clear();
    idx.ext.Clear();
    idx.proceed.Clear();
  }
  for (int s = 0; s < store_.num_states(); ++s) {
    for (auto& pm : store_.bucket(s)) {
      if (pm->alive) IndexInsert(pm.get());
    }
  }
  // Everything that invalidates index pointers (compaction, migration)
  // funnels through here, and the generation list holds the same kind of
  // raw store pointers — rebuild it from the live set alongside them.
  // Under strict contiguity the live regulars are exactly the previous
  // generation, so content is preserved; order becomes bucket order,
  // which only permutes kill order within one event's reap.
  if (strict_gen_enabled_) {
    strict_gen_.clear();
    for (int s = 0; s < store_.num_states(); ++s) {
      for (auto& pm : store_.bucket(s)) {
        if (pm->alive) strict_gen_.push_back(pm.get());
      }
    }
  }
}

}  // namespace cepshed
