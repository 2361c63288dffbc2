// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The CEP evaluation engine: automata-based matching under the exhaustive
// skip-till-any-match selection policy (the paper's f_Q). The engine
// accounts every unit of work it performs in abstract cost units, which
// drive the latency model and the cost model's resource consumption Omega.

#ifndef CEPSHED_CEP_ENGINE_H_
#define CEPSHED_CEP_ENGINE_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cep/match.h"
#include "src/cep/nfa.h"
#include "src/cep/partial_match.h"
#include "src/cep/pred_vm.h"
#include "src/common/status.h"

namespace cepshed {

/// \brief Abstract work units charged per engine operation. One unit is
/// roughly one predicate-node evaluation; see DESIGN.md §3 on why latency
/// is accounted in deterministic cost units rather than wall time.
struct CostParams {
  double per_event_base = 1.0;
  double per_candidate = 0.25;
  double per_index_probe = 0.5;
  double per_clone_base = 1.0;
  double per_clone_event = 0.05;
  double per_create = 1.0;
  double per_witness_store = 0.25;
  double per_witness_check = 0.5;
  double per_match_emit = 1.0;
  double per_eviction = 0.1;
  /// Charged per live match examined by the periodic window sweep: the
  /// state-size-proportional bookkeeping (expiry checks, memory pressure)
  /// every stateful engine pays — the resource demand of Fig. 1.
  double per_sweep_scan = 0.05;
  /// Multiplier applied to predicate-evaluation work.
  double pred_weight = 1.0;
};

/// Returns `sum` after `n` sequential `sum += addend`, bit for bit. The
/// probe loop charges a run of n folded tombstones this way (DESIGN.md
/// §3.12). For a positive power-of-two addend at least ulp(sum), every
/// partial sum inside one binade is exact, so only the binade-crossing add
/// rounds: the adds up to the next power of two collapse into one exact
/// multiply-add and the crossing add is performed as is. Any other addend
/// (or a negative or non-finite sum) takes the plain loop.
double AddRepeated(double sum, double addend, uint64_t n);

/// \brief Engine configuration.
struct EngineOptions {
  /// Use hash-join indexes derived from equality predicates (§VI-A).
  bool use_join_index = true;
  /// Also index computed expression keys (e.g. c.V = a.V + b.V keyed on
  /// the bound-side sum). Off by default: the paper's engine indexes
  /// attribute values only, and several experiments depend on expression
  /// predicates being evaluated per candidate match.
  bool index_expression_keys = false;
  /// Evaluate compiled-bytecode predicates (src/cep/pred_vm.h) instead of
  /// walking the Expr tree. Semantics and accounted cost units are
  /// identical (fuzzed in expr_vm_test); predicates the compiler refuses
  /// (aggregates) fall back to the interpreter per predicate either way.
  bool use_pred_vm = true;
  /// Events between window-expiry sweeps.
  int evict_interval = 64;
  /// Find expired matches through the store's hierarchical timing wheel —
  /// O(expired) per sweep — instead of scanning every live match
  /// (DESIGN.md §3.9). Kill timing, stats, and cost units are identical
  /// to the scan path (the sweep still books per_sweep_scan for every
  /// live match, from the O(1) live counters); the differential harness
  /// pins wheel-vs-scan byte equality. The scan path is retained for
  /// exactly that pinning.
  bool use_expiry_wheel = true;
  /// Strict contiguity: kill non-survivors off the last-extended
  /// generation list instead of scanning every live match per event.
  /// Same kill set as the scan, differentially pinned like the wheel.
  bool use_strict_gen_list = true;
  /// Compact the store once this fraction of entries is dead...
  double compact_dead_fraction = 0.25;
  /// ...and at least this many entries are dead.
  size_t compact_min_dead = 4096;
  CostParams costs;
};

/// \brief Partial-match state in flight between engines during an elastic
/// reshard. The matches keep their binding chains — migration moves roots,
/// it never deep-copies — and `arenas` pins every arena those chains may
/// reference (the donor's primary plus anything the donor itself adopted)
/// so the nodes outlive the donor engine regardless of destruction order.
struct MigratedState {
  std::vector<std::unique_ptr<PartialMatch>> regulars;
  std::vector<std::unique_ptr<PartialMatch>> witnesses;
  std::vector<std::shared_ptr<BindingArena>> arenas;
  /// Marginal-byte estimate of the moved matches (metrics only).
  size_t approx_bytes = 0;

  size_t size() const { return regulars.size() + witnesses.size(); }
  bool empty() const { return regulars.empty() && witnesses.empty(); }
};

/// \brief Aggregate engine counters.
struct EngineStats {
  uint64_t events_processed = 0;
  uint64_t pms_created = 0;
  uint64_t witnesses_created = 0;
  uint64_t matches_emitted = 0;
  uint64_t matches_vetoed = 0;
  uint64_t pms_evicted = 0;
  uint64_t predicate_evals = 0;
  uint64_t candidates_scanned = 0;
  uint64_t index_probes = 0;
  size_t peak_pms = 0;
  double total_cost = 0.0;
};

/// \brief Evaluates one compiled query over a stream, one event at a time.
///
/// Shedding integration points:
///  - state-based: tombstone partial matches via `store().Kill(...)` (or
///    the strategy helpers in src/shed); the engine skips dead matches.
///  - input-based: simply do not call Process for dropped events
///    (f_Q(⊥, P) = P in the paper's model).
///  - the classifier hook assigns each new partial match its cost-model
///    class; the created/match hooks feed offline estimation and online
///    adaptation.
///
/// Thread confinement: an Engine owns all of its mutable state (store,
/// indexes, stats, eval context, pending buffers) and holds only const
/// shared references (the Nfa and, through events, the Schema), so one
/// engine per thread needs no synchronization. This is what the sharded
/// runtime (src/runtime/shard_runtime.h) relies on; keep any future caches
/// either per-instance or immutable-after-construction.
class Engine {
 public:
  Engine(std::shared_ptr<const Nfa> nfa, EngineOptions options);

  /// Processes one event; appends any complete matches to *out. Returns the
  /// work performed in cost units (the per-event latency in the virtual
  /// cost clock).
  double Process(const EventPtr& event, std::vector<Match>* out);

  /// \name Batched execution (DESIGN.md §3.8)
  ///
  /// BeginBatch announces the next window of events about to go through
  /// Process (in order, possibly with shed/dropped gaps). The engine
  /// extracts the schema attributes referenced by batchable predicates —
  /// programs that are a single fused attr-vs-literal compare on the
  /// current event — into SoA columns and precomputes their verdicts in
  /// tight per-type loops the compiler auto-vectorizes. Process then
  /// consults the precomputed mask instead of dispatching into the VM,
  /// charging exactly the cost units and predicate_evals the scalar
  /// dispatch would have: results, stats, and cost are bit-identical to
  /// unbatched execution, which the differential harness pins.
  ///
  /// A BeginBatch supersedes any previous batch; EndBatch deactivates the
  /// mask consult early (Process still works, on the scalar path). Calling
  /// Process on events outside the announced batch is valid — the consult
  /// simply never matches them.
  ///@{
  void BeginBatch(const EventPtr* events, size_t n);
  void EndBatch();
  /// Convenience wrapper: BeginBatch, Process each event, EndBatch.
  /// Returns the summed cost units.
  double ProcessBatch(const EventPtr* events, size_t n,
                      std::vector<Match>* out);
  /// Number of batchable (mask-precomputable) predicate programs in the
  /// compiled query; 0 means BeginBatch is a no-op for it.
  size_t BatchablePrograms() const { return batch_plan_.size(); }
  ///@}

  /// The partial-match store (the evaluation state P(k)).
  PartialMatchStore& store() { return store_; }
  const PartialMatchStore& store() const { return store_; }

  const Nfa& nfa() const { return *nfa_; }
  const EngineOptions& options() const { return options_; }
  const EngineStats& stats() const { return stats_; }

  /// Live regular partial matches.
  size_t NumPartialMatches() const { return store_.NumAlive(); }
  /// Live negation witnesses.
  size_t NumWitnesses() const { return store_.NumAliveWitnesses(); }

  /// Classifier invoked on every newly stored partial match; the returned
  /// label is written to PartialMatch::class_label.
  using PmClassifier = std::function<int32_t(const PartialMatch&)>;
  void set_classifier(PmClassifier fn) { classifier_ = std::move(fn); }

  /// Invoked after a partial match (or witness) is stored. `parent` is the
  /// match it extends, or nullptr for stream-created matches.
  using PmCreatedHook = std::function<void(const PartialMatch&, const PartialMatch* parent)>;
  void set_pm_created_hook(PmCreatedHook fn) { pm_created_hook_ = std::move(fn); }

  /// Invoked on every emitted complete match. `parent` is the partial
  /// match the final extension was derived from (nullptr for
  /// single-element patterns).
  using MatchHook = std::function<void(const Match&, const PartialMatch* parent)>;
  void set_match_hook(MatchHook fn) { match_hook_ = std::move(fn); }

  /// Invoked whenever a stored partial match is considered as a transition
  /// candidate, with the work (cost units) spent on it for this event —
  /// the recurring resource consumption the cost model's Gamma- measures.
  /// Only wired during offline estimation; adds overhead when set.
  using PmProbedHook = std::function<void(const PartialMatch&, double cost, Timestamp now)>;
  void set_pm_probed_hook(PmProbedHook fn) { pm_probed_hook_ = std::move(fn); }

  /// Creation-time state filter: invoked on every new (classified) partial
  /// match; returning true discards it immediately instead of storing it.
  /// This realizes the paper's formal model, where rho_S(P(k)) applies at
  /// every evaluation step — a shedding set stays in force until cleared.
  using CreationFilter = std::function<bool(const PartialMatch&)>;
  void set_creation_filter(CreationFilter fn) { creation_filter_ = std::move(fn); }

  /// Utility score of a partial match for emergency eviction ordering
  /// (higher = keep longer). Typically bound to the cost model's
  /// contribution estimate; see DefaultPmUtility for the untrained
  /// fallback.
  using PmUtilityFn = std::function<double(const PartialMatch&)>;

  /// Untrained fallback utility: completion progress first (a match one
  /// bind away from emitting embodies more sunk work and a higher
  /// completion chance than a fresh one), bound-event count second.
  static double DefaultPmUtility(const PartialMatch& pm) {
    return static_cast<double>(pm.state) +
           0.001 * static_cast<double>(pm.Length());
  }

  /// Emergency state eviction for the overload guard: tombstones up to
  /// `max_kill` live *regular* partial matches in increasing utility order
  /// (ties broken newest-first), stopping early once `min_bytes_freed`
  /// estimated bytes are reclaimed (0 = no byte goal). Negation witnesses
  /// are never touched — killing a witness could un-veto a match and
  /// invent results a fault-free run would not produce. A null `utility`
  /// uses DefaultPmUtility. Returns the number killed (also counted in
  /// stats().pms_evicted).
  size_t ShedLowestUtility(size_t max_kill, size_t min_bytes_freed,
                           const PmUtilityFn& utility = nullptr);

  /// Estimated bytes held by live partial matches and witnesses.
  size_t ApproxStateBytes() const { return store_.ApproxLiveBytes(); }

  /// Moves every live partial match and witness satisfying `pred` out of
  /// the engine, for adoption by another shard's engine. O(1) per match in
  /// chain length: roots move, chains stay where they were allocated.
  /// Indexes are rebuilt and the flatten cache dropped (its raw event
  /// pointers would otherwise dangle into chains another engine now owns).
  /// Caller-side thread contract: the engine must be quiescent (this is
  /// the sealed-and-drained phase of the migration protocol).
  MigratedState ExtractPartialMatches(
      const std::function<bool(const PartialMatch&)>& pred);

  /// Adopts matches extracted from another engine. Each match receives a
  /// fresh id from this engine's sequence (donor ids could collide with
  /// resident ones, and the flatten cache keys on id); lineage does not
  /// cross engines, so parent_id is cleared. Witness buckets are re-sorted
  /// by last_ts — the order IsVetoed's binary search depends on — and the
  /// join indexes rebuilt. Same quiescence contract as extraction.
  void AdoptPartialMatches(MigratedState state);

  /// Predicate evaluations the probe loop skipped because the hit index
  /// bucket proved them (DESIGN.md §3.12). They are still counted in
  /// stats().predicate_evals and charged their evaluation cost; this is
  /// the share of that count no predicate actually ran for.
  uint64_t ImpliedPredicates() const { return implied_predicates_; }

  /// Current flatten-cache population (bounded by kFlatCacheMaxEntries
  /// with wholesale clearing; exposed for the soak harness's obs gauges).
  size_t FlatCacheSize() const { return flat_cache_.size(); }

  /// Forces an expiry sweep + compaction + index rebuild now. Uses the
  /// query's count-based window when one is declared (matching the
  /// per-event sweep) instead of misreading the count as a duration.
  /// Count windows expire against the latest processed event's sequence
  /// number; the two-argument form takes the stream position explicitly
  /// (a watermark from an event that was dropped, not processed).
  void Vacuum(Timestamp now) { Vacuum(now, last_seq_); }
  void Vacuum(Timestamp now, uint64_t seq);

  /// Rebuilds the join indexes from the live store contents (required
  /// after an external compaction).
  void RebuildIndexes();

  /// Clears all evaluation state and statistics (between experiment runs).
  void Reset();

 private:
  /// One index-bucket slot: a stored match, or a ghost run — the count of
  /// consecutive dead entries a probe folded together, standing in for
  /// them at their position until the next rebuild (DESIGN.md §3.12).
  /// Matches are 8-byte aligned, so the low bit tags a run and the upper
  /// bits hold its length.
  class IndexEntry {
   public:
    explicit IndexEntry(PartialMatch* pm) : bits_(reinterpret_cast<uintptr_t>(pm)) {}
    static IndexEntry Ghost(uint64_t n) { return IndexEntry((n << 1) | 1); }
    bool ghost() const { return (bits_ & 1) != 0; }
    uint64_t run() const { return bits_ >> 1; }
    PartialMatch* pm() const { return reinterpret_cast<PartialMatch*>(bits_); }

   private:
    explicit IndexEntry(uintptr_t bits) : bits_(bits) {}
    uintptr_t bits_;
  };
  static_assert(alignof(PartialMatch) >= 2, "IndexEntry tags the low pointer bit");
  using Bucket = std::vector<IndexEntry>;

  /// Hash index over stored partial matches for one transition family.
  struct HashIndex {
    bool enabled = false;
    const JoinIndexSpec* spec = nullptr;
    /// Fresh indexes only: the key's source predicate when it compiles to
    /// one fused `attr = attr` compare, which a keyed bucket hit proves
    /// (see Engine::Process); null otherwise.
    const CompiledPredicate* implied = nullptr;
    std::unordered_map<Value, Bucket, ValueHash> map;
    Bucket unkeyed;

    void Clear() {
      map.clear();
      unkeyed.clear();
    }
  };

  /// Per-state runtime indexes.
  struct StateIndexes {
    /// Matches at this state with an empty in-progress component
    /// (candidates for a first bind).
    HashIndex fresh;
    /// Kleene: matches with >= 1 event in the open component
    /// (candidates for extension).
    HashIndex ext;
    /// Matches at the previous state eligible to proceed into this one
    /// (previous component is Kleene and has reached min_reps).
    HashIndex proceed;
  };

  void BuildIndexLayout();
  void IndexInsert(PartialMatch* pm);
  void IndexAdd(HashIndex* index, PartialMatch* pm, const Value& key);
  Value BuildKey(const HashIndex& index, const PartialMatch& pm);

  void FillContext(const PartialMatch* pm, const Event* current, int current_elem);
  /// Evaluates `preds` in order, stopping at the first failure. `implied`
  /// (one of them, or null) is known to hold: it is counted and charged
  /// what its evaluation costs, without evaluating it.
  bool EvalPreds(const std::vector<const CompiledPredicate*>& preds, double* cost,
                 const CompiledPredicate* implied = nullptr);

  /// One batchable predicate: a VM program that is a single fused
  /// attr-vs-literal compare whose load always reads the current event
  /// when evaluated with current_elem == elem (selector kSingle/kIterCurr/
  /// kLast). Collected once at construction.
  struct BatchProgram {
    int prog;                 ///< VM program index
    int16_t elem;             ///< pattern element the load is anchored to
    int16_t attr;             ///< schema attribute read from the event
    CmpOp op;
    VmSlot constant;
  };
  void BuildBatchPlan();
  void ComputeBatchMasks();

  /// The match's bindings in stream order, flattened once per match and
  /// memoized. Binding chains are immutable after construction and match
  /// ids are unique per engine lifetime, so a cache hit is always valid;
  /// the cache is wholesale-cleared when it outgrows its bound and on
  /// Reset(). Per-instance state — see the thread-confinement note above.
  const std::vector<const Event*>& FlatEvents(const PartialMatch* pm);

  /// Tries to bind `event` into slot `state` of `pm` (pm may be at `state`
  /// or, for proceed transitions, at state-1). On success the clone is
  /// queued and any complete match emitted; returns whether the bind
  /// succeeded (used by the selective policies). `implied` is a bind
  /// predicate the caller's index probe already proved.
  bool TryBind(PartialMatch* pm, int state, const EventPtr& event, bool is_proceed,
               double* cost, std::vector<Match>* out,
               const CompiledPredicate* implied = nullptr);

  void EmitMatch(const PartialMatch& closed, const PartialMatch* parent,
                 const EventPtr& last_event, double* cost, std::vector<Match>* out);
  bool IsVetoed(const Match& match, double* cost);

  void StorePending(std::vector<Match>* out, double* cost);

  std::shared_ptr<const Nfa> nfa_;
  EngineOptions options_;
  PartialMatchStore store_;
  std::vector<StateIndexes> indexes_;
  EngineStats stats_;
  uint64_t implied_predicates_ = 0;
  uint64_t next_pm_id_ = 1;
  int events_since_evict_ = 0;
  /// Sequence number of the latest processed event, so Vacuum can apply
  /// count-window expiry with the same semantics as the per-event sweep.
  uint64_t last_seq_ = 0;
  EvalContext ctx_;
  /// Compiled predicate programs (null when use_pred_vm is off); owned by
  /// the shared Nfa. The register file vm_ctx_ is per-engine mutable state,
  /// invalidated whenever ctx_ changes.
  const PredVmModule* vm_ = nullptr;
  PredVmContext vm_ctx_;
  /// True when the query contains an aggregate predicate: evaluation then
  /// needs full event spans per binding, so FillContext materializes the
  /// flattened view. All other queries evaluate off the chain's slot edges
  /// in O(#slots) per candidate with no flatten at all.
  bool span_context_ = false;
  /// Flatten-on-demand cache: match id -> bindings in stream order (raw
  /// pointers; the chain nodes own the events). Bounded by
  /// kFlatCacheMaxEntries with wholesale clearing.
  std::unordered_map<uint64_t, std::vector<const Event*>> flat_cache_;
  static constexpr size_t kFlatCacheMaxEntries = 4096;
  /// Scratch raw-pointer view of a complete match's events for negation
  /// checks (ElemBinding spans raw pointers).
  std::vector<const Event*> veto_scratch_;
  std::vector<std::unique_ptr<PartialMatch>> pending_;
  std::vector<const PartialMatch*> pending_parents_;
  /// Batched-execution state (see BeginBatch). The plan is fixed at
  /// construction; everything else is per-batch scratch, reused across
  /// batches. batch_events_ holds raw pointers used only for identity
  /// comparison against ctx_.current (never dereferenced after
  /// ComputeBatchMasks returns), so the caller's buffer may recycle the
  /// EventPtrs while a batch is still active.
  /// Strict-contiguity generation tracking (options_.use_strict_gen_list):
  /// strict_gen_ holds every regular match stored by the previous event
  /// (possibly tombstoned since by shedders — the kill loop checks the
  /// flag), which under strict contiguity is exactly the live set the
  /// post-event scan would walk. strict_next_gen_ collects this event's
  /// stored matches and becomes the next generation. Raw pointers are kept
  /// valid by rebuilding the list wherever indexes are rebuilt (the same
  /// compaction events that invalidate index pointers invalidate these).
  bool strict_gen_enabled_ = false;
  std::vector<PartialMatch*> strict_gen_;
  std::vector<PartialMatch*> strict_next_gen_;
  /// Distinct probe attributes of enabled indexes, and the per-event
  /// hoisted attribute values (indexed by attribute id). Event::attr
  /// returns a reference into the event, so the hoist replaces a
  /// per-state-per-event deep Value copy with one pointer read.
  std::vector<int> probe_attrs_;
  std::vector<const Value*> probe_keys_;
  std::vector<BatchProgram> batch_plan_;
  std::vector<int> batch_plan_of_prog_;  ///< prog -> plan index + 1; 0 = none
  std::vector<const Event*> batch_events_;
  std::vector<std::vector<uint8_t>> batch_masks_;  ///< [plan][event] verdicts
  size_t batch_n_ = 0;       ///< 0 = no batch active
  size_t batch_cursor_ = 0;  ///< monotone scan position within the batch
  int batch_cur_ = -1;       ///< batch index of the event Process is handling
  // SoA column scratch for one plan attribute.
  std::vector<int64_t> batch_col_i_;
  std::vector<double> batch_col_d_;
  std::vector<uint8_t> batch_col_tag_;
  PmClassifier classifier_;
  PmCreatedHook pm_created_hook_;
  MatchHook match_hook_;
  PmProbedHook pm_probed_hook_;
  CreationFilter creation_filter_;
};

}  // namespace cepshed

#endif  // CEPSHED_CEP_ENGINE_H_
