// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/runtime/event_step.h"

namespace cepshed {

EventStep::EventStep(Engine* engine, Shedder* shedder, OverloadGuard* guard,
                     LatencyMonitor::Options latency, obs::ShardObs* obs,
                     int shard)
    : engine_(engine),
      shedder_(shedder),
      guard_(guard),
      obs_(obs),
      shard_(static_cast<uint8_t>(shard)),
      monitor_(latency),
      monitor_window_(latency.window) {}

double EventStep::Run(const EventPtr& event, std::vector<Match>* out,
                      const StepSignals& signals) {
  ++counts_.events;
  if (obs_ != nullptr) obs_->events_routed.Add();
  double cost;
  if (guard_ != nullptr && guard_->ShouldDropInput(event->seq())) {
    // Guard rho_I: counted as a drop like any other input shedding.
    ++counts_.dropped;
    ++counts_.guard_dropped;
    cost = kDroppedEventCost;
    if (obs_ != nullptr) {
      obs_->events_dropped_guard.Add();
      obs_->audit.Record(obs::AuditKind::kGuardDrop, shard_, event->timestamp(),
                         -1, monitor_.Current(), event->seq());
    }
    // Expiry-starvation guard (see the header): the stream clock moves on
    // even when the engine sees none of it.
    if (++guard_drop_streak_ >= engine_->options().evict_interval) {
      guard_drop_streak_ = 0;
      engine_->Vacuum(event->timestamp(), event->seq());
    }
  } else {
    guard_drop_streak_ = 0;
    if (shedder_ != nullptr && shedder_->FilterEvent(*event)) {
      ++counts_.dropped;
      cost = kDroppedEventCost;
    } else {
      const size_t matches_before = out->size();
      cost = engine_->Process(event, out);
      ++counts_.processed;
      if (obs_ != nullptr) {
        obs_->events_processed.Add();
        if (out->size() != matches_before) {
          obs_->matches_emitted.Add(out->size() - matches_before);
        }
      }
    }
  }
  cost *= signals.cost_multiplier;
  if (obs_ != nullptr) obs_->event_cost.Record(cost);
  monitor_.Record(cost);
  if (shedder_ != nullptr) {
    const double theta = shedder_->theta();
    if (theta > 0.0 && monitor_.Count() >= monitor_window_) {
      ++counts_.bound_checked;
      if (monitor_.Current() > theta) ++counts_.bound_violations;
    }
    shedder_->AfterEvent(event->timestamp(), monitor_.Current());
  }
  if (guard_ != nullptr) {
    guard_->Observe(monitor_.Current(), signals.queue_size, signals.queue_capacity,
                    event->timestamp() + signals.clock_skew);
  }
  if (obs_ != nullptr) PublishFootprint();
  return cost;
}

void EventStep::PublishFootprint() {
  const PartialMatchStore& store = engine_->store();
  obs_->state_bytes.Set(static_cast<int64_t>(engine_->ApproxStateBytes()));
  obs_->arena_live_bytes.Set(static_cast<int64_t>(store.arena().LiveBytes()));
  obs_->arena_capacity_bytes.Set(static_cast<int64_t>(store.arena().CapacityBytes()));
  obs_->flat_cache_entries.Set(static_cast<int64_t>(engine_->FlatCacheSize()));
  obs_->wheel_entries.Set(static_cast<int64_t>(store.WheelEntries()));
  const uint64_t reaped = store.ExpiryReapedTotal();
  if (reaped > expiry_reaped_seen_) {
    obs_->expiry_reaped.Add(reaped - expiry_reaped_seen_);
    expiry_reaped_seen_ = reaped;
  }
  const uint64_t cascades = store.WheelCascadesTotal();
  if (cascades > wheel_cascades_seen_) {
    obs_->wheel_cascades.Add(cascades - wheel_cascades_seen_);
    wheel_cascades_seen_ = cascades;
  }
}

}  // namespace cepshed
