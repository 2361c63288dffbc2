// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/cep/nfa.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

namespace cepshed {

namespace {

bool HasAggregateNode(const Expr& e) {
  if (e.kind() == ExprKind::kAggregate) return true;
  for (const auto& child : e.children()) {
    if (HasAggregateNode(*child)) return true;
  }
  return false;
}

bool HasAggregateOverElem(const Expr& e, int elem) {
  if (e.kind() == ExprKind::kAggregate && e.elem_index() == elem) return true;
  for (const auto& child : e.children()) {
    if (HasAggregateOverElem(*child, elem)) return true;
  }
  return false;
}

bool HasIterCurrRef(const Expr& e, int elem) {
  std::vector<const Expr*> refs;
  e.CollectAttrRefs(&refs);
  for (const Expr* r : refs) {
    if (r->elem_index() == elem && r->selector() == RefSelector::kIterCurr) {
      return true;
    }
  }
  return false;
}

// True if the expression can be evaluated over a stored partial match that
// is filling `anchor_elem`: it references only elements strictly before the
// anchor, or the anchor itself via kIterPrev/kFirst/kLast selectors
// (rewritten by the caller where needed).
bool EvaluableOnStoredMatch(const Expr& e, int anchor_elem) {
  std::vector<const Expr*> refs;
  e.CollectAttrRefs(&refs);
  for (const Expr* r : refs) {
    if (r->elem_index() > anchor_elem) return false;
    if (r->elem_index() == anchor_elem &&
        (r->selector() == RefSelector::kSingle ||
         r->selector() == RefSelector::kIterCurr)) {
      return false;
    }
  }
  return !HasAggregateNode(e);
}

// Extracts a hash-join key from an equality predicate anchored at
// `anchor_elem`: one side must be a bare attribute of the event being bound
// (AttrRef on the anchor with a current-event selector), the other side
// evaluable on the stored match. For Kleene extension keys the caller
// rewrites kIterPrev references to kLast first.
bool ExtractJoinKey(const ExprPtr& pred, int anchor_elem, JoinIndexSpec* spec) {
  if (pred->kind() != ExprKind::kCompare || pred->cmp_op() != CmpOp::kEq) {
    return false;
  }
  const auto& kids = pred->children();
  for (int side = 0; side < 2; ++side) {
    const ExprPtr& probe = kids[static_cast<size_t>(side)];
    const ExprPtr& build = kids[static_cast<size_t>(1 - side)];
    if (probe->kind() != ExprKind::kAttrRef) continue;
    if (probe->elem_index() != anchor_elem) continue;
    if (probe->selector() != RefSelector::kSingle &&
        probe->selector() != RefSelector::kIterCurr) {
      continue;
    }
    if (!EvaluableOnStoredMatch(*build, anchor_elem)) continue;
    spec->probe_attr = probe->attr_index();
    spec->build_expr = build;
    spec->expression_key = build->kind() != ExprKind::kAttrRef;
    return true;
  }
  return false;
}

}  // namespace

Result<std::shared_ptr<Nfa>> Nfa::Compile(Query query, const Schema* schema) {
  if (schema == nullptr) {
    return Status::InvalidArgument("Nfa::Compile requires a schema");
  }
  CEPSHED_RETURN_NOT_OK(query.Validate(*schema));

  auto nfa = std::shared_ptr<Nfa>(new Nfa());
  nfa->query_ = std::move(query);
  nfa->schema_ = schema;
  const Query& q = nfa->query_;

  // Positive states and element <-> slot mapping.
  nfa->slot_of_elem_ = q.PositiveSlots();
  for (size_t i = 0; i < q.elements.size(); ++i) {
    const PatternElement& el = q.elements[i];
    if (el.negated) continue;
    NfaState state;
    state.pattern_elem = static_cast<int>(i);
    state.event_type = el.event_type_id;
    state.kleene = el.kleene;
    state.min_reps = el.kleene ? el.min_reps : 1;
    state.max_reps = el.kleene ? el.max_reps : 1;
    nfa->states_.push_back(std::move(state));
  }

  // Negation specs (preds filled below).
  for (size_t i = 0; i < q.elements.size(); ++i) {
    const PatternElement& el = q.elements[i];
    if (!el.negated) continue;
    NegationSpec neg;
    neg.pattern_elem = static_cast<int>(i);
    neg.event_type = el.event_type_id;
    for (int j = static_cast<int>(i) - 1; j >= 0; --j) {
      if (!q.elements[static_cast<size_t>(j)].negated) {
        neg.prev_state = nfa->slot_of_elem_[static_cast<size_t>(j)];
        break;
      }
    }
    for (size_t j = i + 1; j < q.elements.size(); ++j) {
      if (!q.elements[j].negated) {
        neg.next_state = nfa->slot_of_elem_[j];
        break;
      }
    }
    nfa->negations_.push_back(std::move(neg));
  }

  // Compile predicates: anchor, iteration-reference normalization, flags.
  for (const ExprPtr& raw_pred : q.predicates) {
    auto cp = std::make_unique<CompiledPredicate>();

    // Which negated elements does it reference?
    std::vector<int> negated_refs;
    for (size_t i = 0; i < q.elements.size(); ++i) {
      if (q.elements[i].negated && raw_pred->RefsElem(static_cast<int>(i))) {
        negated_refs.push_back(static_cast<int>(i));
      }
    }
    if (negated_refs.size() > 1) {
      return Status::Unimplemented(
          "predicate references multiple negated components: " + raw_pred->ToString());
    }

    ExprPtr expr = raw_pred;
    if (!negated_refs.empty()) {
      cp->is_negation = true;
      cp->anchor_elem = negated_refs[0];
    } else {
      cp->anchor_elem = expr->MaxElemRef();
      if (cp->anchor_elem < 0) {
        // Constant predicate: evaluate on the very first bind.
        cp->anchor_elem = nfa->states_[0].pattern_elem;
      }
      const PatternElement& anchor = q.elements[static_cast<size_t>(cp->anchor_elem)];
      if (anchor.kleene && expr->HasIterPrevRef(cp->anchor_elem) &&
          !HasIterCurrRef(*expr, cp->anchor_elem)) {
        // `b[i].V = a.V` style: x[i] with no x[i+1] denotes the event being
        // bound at each iteration; rewrite to a current-event reference.
        expr = expr->CloneReplacingSelector(cp->anchor_elem, RefSelector::kIterPrev,
                                            RefSelector::kIterCurr);
      }
    }
    cp->expr = expr;
    cp->needs_iter_prev = !cp->is_negation && expr->HasIterPrevRef(cp->anchor_elem);
    if (!cp->is_negation) {
      const PatternElement& anchor = q.elements[static_cast<size_t>(cp->anchor_elem)];
      cp->is_close = anchor.kleene && HasAggregateOverElem(*expr, cp->anchor_elem) &&
                     !HasIterCurrRef(*expr, cp->anchor_elem);
    }
    cp->static_cost = expr->StaticCost();

    // Event-only: reads nothing but the event being bound.
    {
      std::vector<const Expr*> refs;
      expr->CollectAttrRefs(&refs);
      bool event_only = !HasAggregateNode(*expr) && !cp->is_negation;
      for (const Expr* r : refs) {
        if (r->elem_index() != cp->anchor_elem ||
            (r->selector() != RefSelector::kSingle &&
             r->selector() != RefSelector::kIterCurr)) {
          event_only = false;
          break;
        }
      }
      cp->event_only = event_only;
    }

    nfa->predicates_.push_back(std::move(cp));
  }

  // Attach predicates to states / negation specs.
  for (const auto& cp : nfa->predicates_) {
    if (cp->is_negation) {
      for (NegationSpec& neg : nfa->negations_) {
        if (neg.pattern_elem == cp->anchor_elem) {
          neg.preds.push_back(cp.get());
          break;
        }
      }
      continue;
    }
    const int slot = nfa->slot_of_elem_[static_cast<size_t>(cp->anchor_elem)];
    if (slot < 0) {
      return Status::Internal("predicate anchored at negated component without negation refs");
    }
    NfaState& state = nfa->states_[static_cast<size_t>(slot)];
    if (cp->is_close) {
      state.close_preds.push_back(cp.get());
    } else if (cp->needs_iter_prev) {
      state.iter_preds.push_back(cp.get());
    } else {
      state.bind_preds.push_back(cp.get());
    }
    state.bind_cost += cp->static_cost;
  }

  // Join-index specs per state.
  for (NfaState& state : nfa->states_) {
    for (const CompiledPredicate* cp : state.bind_preds) {
      if (state.fill_index.valid()) break;
      JoinIndexSpec spec;
      if (ExtractJoinKey(cp->expr, state.pattern_elem, &spec) &&
          spec.build_expr->MaxElemRef() >= 0) {
        // The build side must reference at least one bound element;
        // constant = constant is no join.
        spec.source = cp;
        state.fill_index = std::move(spec);
      }
    }
    if (state.kleene) {
      for (const CompiledPredicate* cp : state.iter_preds) {
        if (state.extend_index.valid()) break;
        // Rewrite x[i] -> x[last] so the key is evaluable on a stored match.
        ExprPtr rewritten = cp->expr->CloneReplacingSelector(
            state.pattern_elem, RefSelector::kIterPrev, RefSelector::kLast);
        JoinIndexSpec spec;
        if (ExtractJoinKey(rewritten, state.pattern_elem, &spec)) {
          state.extend_index = std::move(spec);
        }
      }
    }
  }

  // Type dispatch tables.
  nfa->states_for_type_.assign(schema->num_event_types(), {});
  nfa->negations_for_type_.assign(schema->num_event_types(), {});
  for (int s = 0; s < nfa->num_states(); ++s) {
    nfa->states_for_type_[static_cast<size_t>(nfa->states_[static_cast<size_t>(s)].event_type)]
        .push_back(s);
  }
  for (const NegationSpec& neg : nfa->negations_) {
    nfa->negations_for_type_[static_cast<size_t>(neg.event_type)].push_back(
        neg.pattern_elem);
  }

  // Predictor attributes for the cost model classifiers: the attributes
  // appearing in query predicates, EXCLUDING those used only as
  // element-to-element (in)equality join keys. A pure join key is
  // value-agnostic — every value behaves identically — and id-like keys
  // (task ids, bike ids) would otherwise let the classifier memorize
  // which individuals happened to match in training.
  std::map<int, std::pair<size_t, size_t>> ref_counts;  // attr -> (total, join)
  std::function<void(const Expr&)> walk = [&](const Expr& e) {
    const bool cross_elem_key =
        e.kind() == ExprKind::kCompare &&
        (e.cmp_op() == CmpOp::kEq || e.cmp_op() == CmpOp::kNe) &&
        e.children().size() == 2 &&
        e.children()[0]->kind() == ExprKind::kAttrRef &&
        e.children()[1]->kind() == ExprKind::kAttrRef &&
        e.children()[0]->elem_index() != e.children()[1]->elem_index();
    if (cross_elem_key) {
      for (const auto& child : e.children()) {
        auto& [total, join] = ref_counts[child->attr_index()];
        ++total;
        ++join;
      }
      return;
    }
    if (e.kind() == ExprKind::kAttrRef) {
      ++ref_counts[e.attr_index()].first;
      return;
    }
    if (e.kind() == ExprKind::kAggregate) {
      ++ref_counts[e.attr_index()].first;
    }
    for (const auto& child : e.children()) walk(*child);
  };
  for (const auto& cp : nfa->predicates_) walk(*cp->expr);
  for (const auto& [attr, counts] : ref_counts) {
    if (counts.first > counts.second) nfa->predicate_attrs_.push_back(attr);
  }

  // Lower the predicates into bytecode. One builder for the whole query so
  // attribute-load registers are shared across programs (an attribute read
  // by several predicates of one state is fetched once per context).
  // Predicates that refuse compilation (aggregates) keep vm_program == -1
  // and fall back to the tree interpreter at evaluation time.
  PredVmBuilder vm_builder(schema);
  for (const auto& cp : nfa->predicates_) {
    cp->vm_program = vm_builder.Add(*cp->expr);
  }
  for (NfaState& state : nfa->states_) {
    if (state.fill_index.valid()) {
      state.fill_index.vm_build_program = vm_builder.Add(*state.fill_index.build_expr);
    }
    if (state.extend_index.valid()) {
      state.extend_index.vm_build_program =
          vm_builder.Add(*state.extend_index.build_expr);
    }
  }
  nfa->vm_module_ = vm_builder.Build();

  return nfa;
}

}  // namespace cepshed
