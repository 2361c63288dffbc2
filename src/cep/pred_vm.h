// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Predicate compilation: lowers resolved WHERE-clause Expr trees into flat
// postfix bytecode executed by a tight switch-dispatch stack VM. The lowering
// runs once at NFA-compile time and performs
//
//  - constant folding (a pure-constant subtree collapses to one kConst whose
//    attached cost is exactly what the interpreter would have charged),
//  - short-circuit jumps for AND / OR / the n-ary-AVG non-numeric bailout,
//  - schema-driven type specialization: when the static types of both
//    operands are known from the schema, dedicated i64/f64 opcodes are
//    emitted whose fast path skips Value variant dispatch entirely (a tag
//    guard falls back to the generic handler, so mis-typed or null payloads
//    still evaluate with interpreter semantics), and
//  - common-subexpression sharing of attribute loads: every distinct
//    (element, selector, attribute) reference in the query gets one register;
//    repeated loads within one evaluation context (across a state's
//    bind/iter/close predicate lists) hit the register instead of re-walking
//    the binding.
//
// The VM accumulates the same abstract cost units as Expr::Eval on every
// path — the units feed the cost model's Gamma-, the offline estimator, and
// pm_probed_hook, so parity is a hard contract (fuzzed in expr_vm_test).
// Aggregates over Kleene bindings are not lowered; predicates containing
// them keep the interpreter, which remains the reference semantics.

#ifndef CEPSHED_CEP_PRED_VM_H_
#define CEPSHED_CEP_PRED_VM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/cep/expr.h"
#include "src/cep/schema.h"

namespace cepshed {

/// \brief A typed VM stack/register slot: the unboxed form of a Value.
///
/// Strings are borrowed (`s` points into the evaluated event's attribute or
/// the module's constant pool), so a slot is trivially copyable and carries
/// no destructor — the core advantage over the tagged Value variant on the
/// evaluation hot path.
struct VmSlot {
  static constexpr uint8_t kNull = 0;
  static constexpr uint8_t kInt = 1;
  static constexpr uint8_t kDouble = 2;
  static constexpr uint8_t kStr = 3;
  union {
    int64_t i;
    double d;
    const std::string* s;
  };
  uint8_t tag;
};

/// \brief Bytecode operations. Typed variants (…II / …DD) carry a tag guard
/// and fall back to the generic handler on mismatch.
enum class VmOp : uint8_t {
  kConst,     ///< push const_slots[a]; cost += costs[b] (folded-subtree cost)
  kPushNull,  ///< push null
  kPushBool,  ///< push int a (0/1)
  kAddCost,   ///< cost += costs[b]
  kLoadAttr,  ///< push attribute load a (register-cached); cost += basic
  // Arithmetic (cost += basic each).
  kAdd, kSub, kMul, kDiv, kMod,
  kAddII, kSubII, kMulII, kDivII, kModII,
  kAddDD, kSubDD, kMulDD, kDivDD,
  // Comparisons (cost += basic each).
  kEq, kNe, kLt, kLe, kGt, kGe,
  kEqII, kNeII, kLtII, kLeII, kGtII, kGeII,
  kEqDD, kNeDD, kLtDD, kLeDD, kGtDD, kGeDD,
  kNot,          ///< pop; push int !truthy
  kJmp,          ///< pc = a
  kJmpFalse,     ///< pop; if !truthy pc = a
  kJmpTrue,      ///< pop; if truthy pc = a
  kSqrt,         ///< pop; non-numeric -> null, else cost += sqrt-cost, eval
  kAbs,          ///< pop; non-numeric -> null, else cost += basic, eval
  kCheckNumJmp,  ///< if top non-numeric: pop 1+b slots, pc = a
  kAvgFin,       ///< pop a numeric slots, push their mean (f64)
  kInSet,        ///< cost += basic; pop; null -> null, else membership in set a
  // Fused compares (superinstructions): the dominant predicate shapes
  // `attr CMP attr` and `attr CMP literal` execute as a single dispatch that
  // performs the register-cached load(s) and the tag-guarded compare. Cost is
  // identical to the unfused sequence: basic per load plus basic for the
  // compare (AC literals carry zero folded cost by construction).
  kFEqAA, kFNeAA, kFLtAA, kFLeAA, kFGtAA, kFGeAA,  ///< load a CMP load b
  kFEqAC, kFNeAC, kFLtAC, kFLeAC, kFGtAC, kFGeAC,  ///< load a CMP const b
  kHalt,         ///< stop; result is the top of stack
};

/// \brief One fixed-width instruction. `a` is the primary operand (constant /
/// load / set index, jump target, arity), `b` the secondary (cost-pool index,
/// extra pop count).
struct VmInsn {
  VmOp op;
  uint16_t a = 0;
  uint16_t b = 0;
};

/// \brief One resolved attribute reference: which element's binding to read,
/// with which selector, and which schema attribute. Doubles as the register
/// id for load caching.
struct VmAttrLoad {
  int16_t elem = -1;
  int16_t attr = -1;
  RefSelector selector = RefSelector::kSingle;
};

/// \brief Per-engine mutable VM state: the attribute-load register file.
///
/// Registers are validated against an epoch the engine bumps whenever the
/// evaluation context changes (Engine::FillContext / per negation witness),
/// so loads repeated across one context's predicate lists are fetched once.
/// Engine-local, matching the engine's thread-confinement contract; the
/// module itself is immutable and shared.
class PredVmContext {
 public:
  /// Sizes the register file for a module with `num_loads` attribute loads.
  void Prepare(size_t num_loads) {
    regs_.assign(num_loads, VmSlot{{0}, VmSlot::kNull});
    epochs_.assign(num_loads, 0);
    epoch_ = 1;
  }

  /// Invalidates all cached loads (the evaluation context changed).
  void Invalidate() { ++epoch_; }

 private:
  friend class PredVmModule;
  std::vector<VmSlot> regs_;
  std::vector<uint64_t> epochs_;  ///< register valid iff epochs_[r] == epoch_
  uint64_t epoch_ = 1;
};

/// \brief The compiled predicate programs of one query. Immutable after
/// PredVmBuilder::Build; shared by every engine evaluating the query.
class PredVmModule {
 public:
  /// Evaluates program `prog` as a boolean predicate (interpreter truthiness:
  /// null and non-numerics are false). Adds the abstract work units performed
  /// to *cost if non-null — identical units to Expr::EvalBool.
  bool EvalBool(int prog, const EvalContext& ctx, PredVmContext* vmc,
                double* cost) const;

  /// Evaluates program `prog` to a Value (join-index build keys).
  Value Eval(int prog, const EvalContext& ctx, PredVmContext* vmc,
             double* cost) const;

  size_t num_loads() const { return loads_.size(); }
  int num_programs() const { return static_cast<int>(programs_.size()); }

  /// \brief Shape of a program that is exactly one fused attr-vs-constant
  /// compare — the batchable form Engine::BeginBatch precomputes over an
  /// event column: which element/attribute the single load reads, with
  /// which selector, and the compare against which constant.
  struct FusedAcSpec {
    int16_t elem = -1;
    int16_t attr = -1;
    RefSelector selector = RefSelector::kSingle;
    CmpOp op = CmpOp::kEq;
    VmSlot constant{{0}, VmSlot::kNull};
  };

  /// Fills *spec and returns true iff `prog` is a single fused AC compare.
  bool FusedAcProgram(int prog, FusedAcSpec* spec) const;

  /// True iff `prog` is exactly one fused `attr = attr` compare: two
  /// register loads and the compare, kExprCostBasic each, whatever the
  /// operands (the shape of a join predicate a hash bucket can prove).
  bool IsFusedEqAA(int prog) const {
    const Program& p = programs_[static_cast<size_t>(prog)];
    return p.code.size() == 2 && p.code[0].op == VmOp::kFEqAA;
  }

  /// The boolean outcome FusedCompare would produce for one lhs slot
  /// against `constant` (truthiness applied; no cost or register effects)
  /// — the reference semantics the engine's batched column kernels must
  /// reproduce bit for bit.
  static bool FusedAcResult(const VmSlot& lhs, const VmSlot& constant,
                            CmpOp op);

  /// Renders program `prog` one instruction per line, for diagnostics.
  std::string Disassemble(int prog) const;

 private:
  friend class PredVmBuilder;
  struct Program {
    std::vector<VmInsn> code;
  };

  PredVmModule() = default;

  VmSlot Run(const Program& p, const EvalContext& ctx, PredVmContext* vmc,
             double* cost) const;
  VmSlot CachedLoad(uint16_t r, const EvalContext& ctx, PredVmContext* vmc,
                    double* c) const;
  VmSlot FusedCompare(const VmInsn& in, const EvalContext& ctx,
                      PredVmContext* vmc, double* c) const;

  std::vector<VmAttrLoad> loads_;
  std::vector<Value> const_values_;
  std::vector<VmSlot> const_slots_;  ///< unboxed const_values_ (built last)
  std::vector<double> costs_;        ///< cost immediates (folded-subtree costs)
  std::vector<std::vector<Value>> set_values_;
  std::vector<std::vector<VmSlot>> set_slots_;
  std::vector<Program> programs_;
};

/// \brief Lowers resolved Expr trees into a shared PredVmModule. All
/// programs of one query go through one builder so attribute-load registers
/// are shared across them (cross-predicate CSE).
class PredVmBuilder {
 public:
  explicit PredVmBuilder(const Schema* schema) : schema_(schema) {}

  /// Lowers one resolved expression; returns its program index, or -1 when
  /// the expression is not compilable (contains an aggregate, is unresolved,
  /// or exceeds the VM's stack/code limits) and must keep the interpreter.
  int Add(const Expr& expr);

  /// Finalizes and returns the module. The builder is exhausted afterwards.
  std::shared_ptr<const PredVmModule> Build();

 private:
  struct EmitState;

  /// Static operand types inferred from the schema; specialization hints
  /// only — runtime tags are always guarded.
  enum class StaticType { kUnknown, kInt, kDouble, kString };

  StaticType EmitExpr(const Expr& e, EmitState* st);
  void EmitConst(Value v, double folded_cost, EmitState* st);
  uint16_t InternLoad(const Expr& ref);
  uint16_t InternCost(double cost);

  const Schema* schema_;
  std::unique_ptr<PredVmModule> module_{new PredVmModule()};
  std::map<std::tuple<int, int, int>, uint16_t> load_ids_;
  bool built_ = false;
};

}  // namespace cepshed

#endif  // CEPSHED_CEP_PRED_VM_H_
