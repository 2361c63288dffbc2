// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// The per-event evaluation step of the paper's model,
// P(k) = f_Q(rho_I(e_k), rho_S(P(k-1))), shared by every driver
// (ShedRunner, ShardRuntime, MultiQueryRunner, the soak harness) so a fix
// to it reaches all of them. One Run, in order: guard rho_I, shedder
// rho_I, Engine::Process (or kDroppedEventCost on a drop) scaled by the
// injected fault multiplier, LatencyMonitor::Record and the bound check,
// shedder AfterEvent, guard Observe, then the obs publish.
//
// Expiry runs inside Engine::Process, so a guard dropping every event
// would freeze the engine's window — and with it the memory signal that
// lets the guard step down. After EngineOptions::evict_interval
// consecutive guard drops the step vacuums the engine at the dropped
// event's watermark (time and sequence number). Shedder drops are left
// alone, so every run without a guard is unchanged. DESIGN.md §3.11.

#ifndef CEPSHED_RUNTIME_EVENT_STEP_H_
#define CEPSHED_RUNTIME_EVENT_STEP_H_

#include <cstdint>
#include <vector>

#include "src/cep/engine.h"
#include "src/obs/metrics.h"
#include "src/runtime/latency_monitor.h"
#include "src/runtime/overload_guard.h"
#include "src/shed/shedder.h"

namespace cepshed {

/// \brief Per-event signals owned by the driver: injected faults and the
/// shard queue fill (0/0 = no queue).
struct StepSignals {
  double cost_multiplier = 1.0;
  size_t queue_size = 0;
  size_t queue_capacity = 0;
  /// Added to the event time the guard observes.
  Duration clock_skew = 0;
};

/// \brief One engine's evaluation step: rho_I, f_Q, monitor, rho_S, guard,
/// obs. Not thread-safe; confined to the thread driving its engine.
class EventStep {
 public:
  /// Work charged to the latency monitor for a dropped event ("a discarded
  /// event is not processed at all" — only the filter runs).
  static constexpr double kDroppedEventCost = 0.05;

  struct Counts {
    uint64_t events = 0;
    uint64_t processed = 0;
    /// rho_I drops, guard and shedder together.
    uint64_t dropped = 0;
    uint64_t guard_dropped = 0;
    /// Events checked against the shedder's theta once the monitor window
    /// has filled, and those whose smoothed latency exceeded it.
    uint64_t bound_checked = 0;
    uint64_t bound_violations = 0;
  };

  /// The engine is required; shedder, guard and obs may be null. None is
  /// owned. The shedder and guard must already be bound to the engine.
  /// `shard` tags the guard-drop audit entries.
  EventStep(Engine* engine, Shedder* shedder, OverloadGuard* guard,
            LatencyMonitor::Options latency, obs::ShardObs* obs = nullptr,
            int shard = 0);

  /// Runs one event through the step, appending any matches to *out.
  /// Returns the cost recorded to the latency monitor.
  double Run(const EventPtr& event, std::vector<Match>* out,
             const StepSignals& signals);
  double Run(const EventPtr& event, std::vector<Match>* out) {
    return Run(event, out, StepSignals{});
  }

  const Counts& counts() const { return counts_; }
  const LatencyMonitor& monitor() const { return monitor_; }

 private:
  /// Footprint gauges, plus the store's expiry totals as deltas so the obs
  /// counters stay monotone when a restarted worker resumes the engine.
  void PublishFootprint();

  Engine* engine_;
  Shedder* shedder_;
  OverloadGuard* guard_;
  obs::ShardObs* obs_;
  uint8_t shard_;
  LatencyMonitor monitor_;
  size_t monitor_window_;
  int guard_drop_streak_ = 0;
  uint64_t expiry_reaped_seen_ = 0;
  uint64_t wheel_cascades_seen_ = 0;
  Counts counts_;
};

}  // namespace cepshed

#endif  // CEPSHED_RUNTIME_EVENT_STEP_H_
