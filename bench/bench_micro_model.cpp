// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Micro benchmarks for the shedding machinery. The paper's §V/§VI report
// two feasibility numbers these benches check on this machine:
//  - shedding-set selection via dynamic programming over tens of classes
//    is fast enough for online use;
//  - offline cost-model estimation takes on the order of seconds.
// BM_HarnessPrepare times the whole training pipeline a hybrid run sets up
// with: offline replay, cost model, PI/hSPICE/pSPICE tables and the
// no-shedding ground truth (ungated; CI keeps it as BENCH_train.json).

#include <benchmark/benchmark.h>

#include "src/ml/kmeans.h"
#include "src/runtime/experiment.h"
#include "src/opt/knapsack.h"
#include "src/shed/cost_model.h"
#include "src/shed/offline_estimator.h"
#include "src/sketch/count_min.h"
#include "src/workload/ds1.h"
#include "src/workload/queries.h"

namespace cepshed {
namespace {

std::vector<KnapsackItem> MakeItems(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<KnapsackItem> items(n);
  for (auto& it : items) {
    it.value = rng.UniformDouble(0, 1);
    it.weight = rng.UniformDouble(0.001, 2.0 / static_cast<double>(n));
  }
  return items;
}

void BM_KnapsackDP(benchmark::State& state) {
  const auto items = MakeItems(static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto sel = SolveCoveringKnapsackDP(items, 0.4);
    benchmark::DoNotOptimize(sel.size());
  }
}
BENCHMARK(BM_KnapsackDP)->Arg(16)->Arg(64)->Arg(256);

void BM_KnapsackGreedy(benchmark::State& state) {
  const auto items = MakeItems(static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto sel = SolveCoveringKnapsackGreedy(items, 0.4);
    benchmark::DoNotOptimize(sel.size());
  }
}
BENCHMARK(BM_KnapsackGreedy)->Arg(16)->Arg(64)->Arg(256);

void BM_KMeans(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 2000; ++i) {
    points.push_back({rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)});
  }
  for (auto _ : state) {
    Rng r2(4);
    auto km = KMeans(points, static_cast<int>(state.range(0)), &r2);
    benchmark::DoNotOptimize(km.ok());
  }
}
BENCHMARK(BM_KMeans)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_CountMin(benchmark::State& state) {
  CountMinSketch sketch(2048, 3);
  uint64_t key = 0;
  for (auto _ : state) {
    sketch.Add(key++, 1.0);
    benchmark::DoNotOptimize(sketch.Estimate(key / 2));
  }
}
BENCHMARK(BM_CountMin);

void BM_OfflineEstimation(benchmark::State& state) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = static_cast<size_t>(state.range(0));
  const EventStream stream = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1("4ms"), &schema);
  for (auto _ : state) {
    auto stats = EstimateOffline(*nfa, stream, 4, true);
    benchmark::DoNotOptimize(stats.ok());
  }
}
BENCHMARK(BM_OfflineEstimation)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

void BM_CostModelTrain(benchmark::State& state) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 20000;
  const EventStream stream = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1("4ms"), &schema);
  auto stats = EstimateOffline(*nfa, stream, 4, true);
  for (auto _ : state) {
    CostModel model(*nfa, CostModelOptions{});
    Rng rng(5);
    auto st = model.Train(*stats, &rng);
    benchmark::DoNotOptimize(st.ok());
  }
}
BENCHMARK(BM_CostModelTrain)->Unit(benchmark::kMillisecond);

void BM_CostModelClassifyEvent(benchmark::State& state) {
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 20000;
  const EventStream stream = GenerateDs1(schema, gen);
  auto nfa = Nfa::Compile(*queries::Q1("4ms"), &schema);
  auto stats = EstimateOffline(*nfa, stream, 4, true);
  CostModel model(*nfa, CostModelOptions{});
  Rng rng(6);
  if (!model.Train(*stats, &rng).ok()) return;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.EventUtility(*stream[i % stream.size()]));
    ++i;
  }
}
BENCHMARK(BM_CostModelClassifyEvent);

void BM_HarnessPrepare(benchmark::State& state) {
  // The end-to-end benchmark's ds1_q1_hybrid set-up: Q1 WITHIN 8ms,
  // 30k training events, 20k test events.
  const Schema schema = MakeDs1Schema();
  Ds1Options gen;
  gen.num_events = 30000;
  gen.seed = 21;
  const EventStream train = GenerateDs1(schema, gen);
  gen.num_events = 20000;
  gen.seed = 22;
  const EventStream test = GenerateDs1(schema, gen);
  for (auto _ : state) {
    ExperimentHarness harness(&schema, *queries::Q1("8ms"), HarnessOptions{});
    const Status st = harness.Prepare(train, test);
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(harness.BaselineLatency());
  }
}
BENCHMARK(BM_HarnessPrepare)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace
}  // namespace cepshed

BENCHMARK_MAIN();
