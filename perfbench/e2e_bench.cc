// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// End-to-end benchmark binary. It runs the production pipeline over a
// seeded DS1 trace:
//
//   GenerateDs1 -> WriteCsvFile -> MappedCsvReader::NextBatch ->
//   ShardRuntime::Run (router, ring queues, engines, shedders, merge)
//
// and checks the merged matches against a reference on every pass. Each
// workload runs two kinds of pass, interleaved until the time budget is
// spent:
//  - closed loop: the trace is replayed as fast as Run accepts it; gives
//    throughput_eps (events / wall time from Open to Run returning);
//  - paced open loop: the IngestTap holds each event until its due time
//    seq / rate; latency of sampled events is timed from that due time to
//    the end of the shard's Shedder::AfterEvent, so a stall is charged to
//    every event queued behind it.
// The end-to-end run (--trace 0) gives each pass a process of its own,
// forked after set-up; the traced run (--trace 1) keeps all its passes in
// one process.
//
// Layers are timed only from outside, through public functions and the
// hooks the runtime already has: the IngestTap (router thread), a
// forwarding Shedder around the real one (worker thread), EngineStats,
// ShardRunResult and obs::MetricsRegistry snapshots.
//
// Usage:
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--out-dir DIR]
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Any correctness mismatch makes the exit code 1.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "perfbench/bench_lib.h"
#include "src/cep/engine.h"
#include "src/cep/nfa.h"
#include "src/obs/metrics.h"
#include "src/runtime/experiment.h"
#include "src/runtime/metrics.h"
#include "src/runtime/shard_runtime.h"
#include "src/shed/registry.h"
#include "src/shed/shedder.h"
#include "src/workload/csv.h"
#include "src/workload/csv_mmap.h"
#include "src/workload/ds1.h"
#include "src/workload/queries.h"

namespace cepshed::perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Min(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}
double Max(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Spin-wait hint: yields the core's execution resources to a sibling
/// hyperthread, which may be running one of the shard workers.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// ---------------------------------------------------------------------------
// Workloads

/// One benchmark workload; every workload uses at most three threads
/// (router + shard workers). The paced rates sit well below closed-loop
/// capacity (1/6 or less on a shared 4-vCPU 2.0 GHz box whose speed swings
/// by up to 2x), so latency is set by the router's per-shard staging and
/// the engine's bursts rather than by queueing whenever the host slows;
/// traces are short so that a run holds many passes. ds1_q2_kleene is not
/// in BENCHMARK.json (its p99 spread too widely across runs); it stays for
/// the traced run and profiles of the Kleene engine path.
struct Workload {
  const char* name;
  /// 1 = Q1 SEQ(A,B,C); 2 = Q2 with Kleene A+{1,kleene_reps}.
  int query;
  const char* window;
  int kleene_reps;
  int shards;
  /// Latency bound as a fraction of the harness's no-shedding average
  /// latency; <= 0 runs without shedding.
  double bound_fraction;
  size_t events;
  size_t train_events;
  /// Open-loop input rate of the paced pass (events per second).
  double rate_eps;
  /// Every sample_stride-th sequence number is timed on the paced pass.
  uint64_t sample_stride;
  /// Set-ups per run, spread evenly over it (setup_s is their median).
  int setup_reps;
};

const Workload kWorkloads[] = {
    {"ds1_q1_ingest", 1, "500us", 0, 2, 0.0, 200000, 0, 1.5e5, 4, 15},
    {"ds1_q2_kleene", 2, "4ms", 4, 1, 0.0, 15000, 0, 3.0e4, 1, 61},
    {"ds1_q1_hybrid", 1, "8ms", 0, 1, 0.5, 20000, 30000, 1.5e4, 1, 5},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Result<Query> MakeQuery(const Workload& w) {
  return w.query == 1 ? queries::Q1(w.window) : queries::Q2(w.kleene_reps, w.window);
}

// ---------------------------------------------------------------------------
// Spans

/// In-memory span log of one thread (the router thread or one shard
/// worker); merged after the run joins its workers.
struct SpanLog {
  std::vector<Span> spans;
  int32_t Open(SpanName name, int32_t parent, int64_t seq = -1) {
    spans.push_back({NowNs(), 0, seq, parent, name});
    return static_cast<int32_t>(spans.size() - 1);
  }
  void Close(int32_t idx) { spans[static_cast<size_t>(idx)].end_ns = NowNs(); }
  void Add(SpanName name, int32_t parent, int64_t start, int64_t end,
           int64_t seq = -1) {
    spans.push_back({start, end, seq, parent, name});
  }
};

// ---------------------------------------------------------------------------
// Set-up

/// Everything a run needs that is built before measuring. Heap-allocated
/// so the schema's address stays fixed for the streams and harness.
struct Prepared {
  Schema schema = MakeDs1Schema();
  std::unique_ptr<EventStream> test;
  std::unique_ptr<EventStream> train;
  std::string csv_path;
  std::shared_ptr<const Nfa> nfa;
  std::unique_ptr<ExperimentHarness> harness;
  double theta = -1.0;
  double generate_s = 0.0;
  double compile_s = 0.0;
  double train_s = 0.0;
  double total_s = 0.0;
};

/// Builds everything a run needs; the trace CSV goes to
/// out_dir/<workload>_<seed><csv_tag>.csv.
Result<std::unique_ptr<Prepared>> Setup(const Workload& w, uint64_t seed,
                                        const std::string& out_dir,
                                        const std::string& csv_tag, SpanLog* log) {
  auto p = std::make_unique<Prepared>();
  const int64_t t0 = NowNs();
  Ds1Options gen;
  gen.num_events = w.events;
  gen.seed = SplitMix(seed * 2 + 1);
  p->test = std::make_unique<EventStream>(GenerateDs1(p->schema, gen));
  if (w.bound_fraction > 0.0) {
    gen.num_events = w.train_events;
    gen.seed = SplitMix(seed * 2 + 2);
    p->train = std::make_unique<EventStream>(GenerateDs1(p->schema, gen));
  }
  p->csv_path = out_dir + "/" + w.name + "_" + std::to_string(seed) + csv_tag + ".csv";
  CEPSHED_RETURN_NOT_OK(WriteCsvFile(*p->test, p->csv_path));
  const int64_t t1 = NowNs();
  CEPSHED_ASSIGN_OR_RETURN(Query q, MakeQuery(w));
  CEPSHED_ASSIGN_OR_RETURN(p->nfa, Nfa::Compile(q, &p->schema));
  const int64_t t2 = NowNs();
  int64_t t3 = t2;
  if (w.bound_fraction > 0.0) {
    p->harness = std::make_unique<ExperimentHarness>(&p->schema, q, HarnessOptions{});
    CEPSHED_RETURN_NOT_OK(p->harness->Prepare(*p->train, *p->test));
    p->theta = w.bound_fraction * p->harness->BaselineLatency();
    // The shedders' cost model is bound to the harness's compiled NFA.
    p->nfa = p->harness->nfa();
    t3 = NowNs();
  }
  p->generate_s = Seconds(t1 - t0);
  p->compile_s = Seconds(t2 - t1);
  p->train_s = Seconds(t3 - t2);
  p->total_s = Seconds(t3 - t0);
  if (log != nullptr) {
    log->Add(SpanName::kGenerate, -1, t0, t1);
    log->Add(SpanName::kCompile, -1, t1, t2);
    if (t3 > t2) log->Add(SpanName::kPrepare, -1, t2, t3);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Forwarding shedder

/// One event's timestamps on its shard's worker thread.
struct EventSample {
  uint64_t seq = 0;
  int64_t filter_in_ns = 0;
  int64_t after_out_ns = 0;
};

/// Per-shard observations the forwarding shedder writes. Owned by the
/// pass (the runtime destroys its shedders when Run returns); read only
/// after Run joined the worker that wrote it.
struct ShardProbe {
  uint64_t sample_stride = 0;  // 0 = no latency samples
  bool traced = false;         // time every call
  bool record_spans = false;
  int32_t span_parent = -1;
  std::vector<EventSample> samples;
  SpanLog log;
  int64_t filter_ns = 0;
  int64_t process_ns = 0;
  int64_t after_ns = 0;
  uint64_t timed_events = 0;
  size_t state_bytes_peak = 0;
};

/// Passes every call through to the wrapped strategy and times it from
/// the worker thread. Drop/kill counters are mirrored so the runtime's
/// accounting reads exactly what the wrapped strategy decided.
class ForwardingShedder : public Shedder {
 public:
  ForwardingShedder(std::unique_ptr<Shedder> inner, ShardProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string Name() const override { return inner_->Name(); }
  double theta() const override { return inner_->theta(); }
  void Bind(Engine* engine) override {
    Shedder::Bind(engine);
    inner_->Bind(engine);
  }
  void Reset() override {
    Shedder::Reset();
    inner_->Reset();
  }
  void set_obs(obs::ShardObs* o, int shard) override {
    Shedder::set_obs(o, shard);
    inner_->set_obs(o, shard);
  }

  bool FilterEvent(const Event& event) override {
    seq_ = event.seq();
    sampled_ = probe_->sample_stride != 0 && seq_ % probe_->sample_stride == 0;
    if (sampled_ || probe_->traced) filter_in_ = NowNs();
    const bool drop = inner_->FilterEvent(event);
    if (probe_->traced) filter_out_ = NowNs();
    events_dropped_ = inner_->events_dropped();
    return drop;
  }

  void AfterEvent(Timestamp now, double mu) override {
    const int64_t after_in = probe_->traced ? NowNs() : 0;
    inner_->AfterEvent(now, mu);
    pms_shed_ = inner_->pms_shed();
    if (!sampled_ && !probe_->traced) return;
    const int64_t after_out = NowNs();
    if (sampled_) probe_->samples.push_back({seq_, filter_in_, after_out});
    if (!probe_->traced) return;
    probe_->filter_ns += filter_out_ - filter_in_;
    probe_->process_ns += after_in - filter_out_;
    probe_->after_ns += after_out - after_in;
    ++probe_->timed_events;
    probe_->state_bytes_peak =
        std::max(probe_->state_bytes_peak, engine_->ApproxStateBytes());
    if (probe_->record_spans) {
      const int64_t seq = static_cast<int64_t>(seq_);
      probe_->log.Add(SpanName::kFilter, probe_->span_parent, filter_in_, filter_out_, seq);
      probe_->log.Add(SpanName::kProcess, probe_->span_parent, filter_out_, after_in, seq);
      probe_->log.Add(SpanName::kAfterEvent, probe_->span_parent, after_in, after_out, seq);
    }
  }

 private:
  std::unique_ptr<Shedder> inner_;
  ShardProbe* probe_;
  uint64_t seq_ = 0;
  bool sampled_ = false;
  int64_t filter_in_ = 0;
  int64_t filter_out_ = 0;
};

// ---------------------------------------------------------------------------
// Passes

enum class Loop { kClosed, kPaced };

struct PassOptions {
  Loop loop = Loop::kClosed;
  /// Wrap the shedder (or a no-op strategy) in the forwarding shedder.
  bool forward = false;
  bool traced = false;
  bool record_spans = false;
  uint64_t sample_stride = 0;
  bool sequential = false;  // RunSequential instead of Run
};

/// Router-side state of the open-loop generator.
struct Pacer {
  PacingSchedule schedule{1.0};
  uint64_t sample_stride = 1;
  int64_t start_ns = 0;
  int64_t late_max_ns = 0;
  std::vector<double> late_samples_ms;
};

struct PassResult {
  bool ok = true;
  std::string error;
  uint64_t events = 0;
  int64_t wall_ns = 0;   // Open .. Run returned
  int64_t parse_ns = 0;  // time inside NextBatch
  int64_t run_ns = 0;    // Run wall time
  double merge_s = 0.0;  // Run wall minus ShardRunResult::wall_seconds
  uint64_t rows_malformed = 0;
  ShardRunResult run;
  MatchDigest digest;
  std::vector<ShardProbe> probes;
  Pacer pacer;
  obs::RegistrySnapshot obs;
  std::vector<Span> spans;  // traced passes with record_spans
};

/// The strategy a pass runs: the registry's hybrid at the workload's bound,
/// or the no-op strategy on a no-shed workload.
Result<std::unique_ptr<Shedder>> MakeInnerShedder(const Prepared& p) {
  if (p.harness == nullptr) return std::unique_ptr<Shedder>(std::make_unique<NoShedder>());
  return ShedderRegistry::Instance().Create(
      "hybrid", p.harness->MakeContext(p.theta, /*fraction=*/-1.0, /*seed=*/7));
}

PassResult RunPass(const Workload& w, const Prepared& p, const PassOptions& po) {
  PassResult r;
  r.probes.resize(static_cast<size_t>(w.shards));
  obs::MetricsRegistry registry;
  SpanLog log;
  r.pacer.schedule = PacingSchedule(w.rate_eps);
  r.pacer.sample_stride = std::max<uint64_t>(po.sample_stride, 1);

  ShardRuntimeOptions opts;
  opts.num_shards = w.shards;
  opts.routing = ShardRouting::kHashPartition;
  opts.partition_attr = p.schema.AttributeIndex("ID");
  opts.metrics = &registry;
  Pacer* pacer = &r.pacer;
  if (po.loop == Loop::kPaced) {
    opts.ingest_tap = [pacer](const EventPtr& event, const std::vector<int>&) {
      const uint64_t seq = event->seq();
      int64_t now = NowNs();
      if (seq == 0) pacer->start_ns = now;
      const int64_t due = pacer->start_ns + pacer->schedule.DueNs(seq);
      while (now < due) {
        CpuRelax();
        now = NowNs();
      }
      const int64_t late = pacer->schedule.LatenessNs(seq, now - pacer->start_ns);
      pacer->late_max_ns = std::max(pacer->late_max_ns, late);
      if (seq % pacer->sample_stride == 0) {
        pacer->late_samples_ms.push_back(static_cast<double>(late) * 1e-6);
      }
    };
  }
  auto runtime = ShardRuntime::Create(p.nfa, opts);
  if (!runtime.ok()) {
    r.ok = false;
    r.error = runtime.status().ToString();
    return r;
  }

  std::vector<ShardProbe>* probes = &r.probes;
  const int32_t pass_span = po.record_spans ? log.Open(SpanName::kPass, -1) : -1;
  for (ShardProbe& probe : r.probes) {
    probe.sample_stride = po.sample_stride;
    probe.traced = po.traced;
    probe.record_spans = po.record_spans;
    if (po.sample_stride > 0) probe.samples.reserve(w.events / po.sample_stride + 16);
    if (po.record_spans) probe.log.spans.reserve(3 * w.events / w.shards + 1024);
  }
  // A no-shed closed-loop pass runs without any shedder; a hybrid one runs
  // the registry strategy unwrapped. Factories run on this thread.
  ShardRuntime::ShedderFactory factory;
  std::string factory_error;
  if (po.forward || p.harness != nullptr) {
    factory = [&p, &po, probes, &factory_error](int shard) -> std::unique_ptr<Shedder> {
      auto inner = MakeInnerShedder(p);
      if (!inner.ok()) {
        factory_error = inner.status().ToString();
        return nullptr;
      }
      if (!po.forward) return std::move(inner).value();
      return std::make_unique<ForwardingShedder>(std::move(inner).value(),
                                                 &(*probes)[static_cast<size_t>(shard)]);
    };
  }

  const int64_t t0 = NowNs();
  auto reader = MappedCsvReader::Open(p.schema, p.csv_path);
  if (!reader.ok()) {
    r.ok = false;
    r.error = reader.status().ToString();
    return r;
  }
  EventStream stream(&p.schema);
  std::vector<EventPtr> batch;
  batch.reserve(1024);
  for (;;) {
    const int64_t b0 = NowNs();
    auto n = reader->NextBatch(1024, &batch);
    const int64_t b1 = NowNs();
    r.parse_ns += b1 - b0;
    if (po.record_spans) log.Add(SpanName::kParseBatch, pass_span, b0, b1);
    if (!n.ok()) {
      r.ok = false;
      r.error = n.status().ToString();
      return r;
    }
    if (*n == 0) break;
    for (EventPtr& e : batch) {
      const Status st = stream.Append(std::move(e));
      if (!st.ok()) {
        r.ok = false;
        r.error = st.ToString();
        return r;
      }
    }
    batch.clear();
  }
  r.rows_malformed = reader->stats().malformed_rows;
  r.events = stream.size();

  const int32_t run_span = po.record_spans ? log.Open(SpanName::kRun, pass_span) : -1;
  // Worker spans name the run span as parent; the workers start inside Run.
  for (ShardProbe& probe : r.probes) probe.span_parent = run_span;
  const int64_t r0 = NowNs();
  auto result = po.sequential ? (*runtime)->RunSequential(stream, factory)
                              : (*runtime)->Run(stream, factory);
  const int64_t r1 = NowNs();
  r.run_ns = r1 - r0;
  r.wall_ns = r1 - t0;
  if (!result.ok() || !factory_error.empty()) {
    r.ok = false;
    r.error = result.ok() ? factory_error : result.status().ToString();
    return r;
  }
  r.run = std::move(result).value();
  r.merge_s = Seconds(r.run_ns) - r.run.wall_seconds;
  if (po.record_spans) {
    log.Close(run_span);
    // Engine build, merge and teardown: the part of Run that is not the
    // workers' measured wall time; recorded as one span at Run's end.
    const int64_t merge_ns = static_cast<int64_t>(r.merge_s * 1e9);
    log.Add(SpanName::kMerge, run_span, r1 - merge_ns, r1);
    log.Close(pass_span);
    r.spans = std::move(log.spans);
    for (ShardProbe& probe : r.probes) {
      r.spans.insert(r.spans.end(), probe.log.spans.begin(), probe.log.spans.end());
      probe.log.spans.clear();
      probe.log.spans.shrink_to_fit();
    }
  }
  for (const Match& m : r.run.matches) r.digest.Add(m);
  r.obs = registry.Snapshot();
  return r;
}

// ---------------------------------------------------------------------------
// Correctness

/// What every pass of one run must reproduce exactly.
struct Reference {
  MatchDigest digest;      // no-shed: single-Engine pass; hybrid: first pass
  bool have_shed = false;  // hybrid: dropped/shed counts of the first pass
  uint64_t dropped = 0;
  uint64_t shed_pms = 0;
};

/// A single Engine over the in-memory trace: the no-shed reference.
MatchDigest ReferenceDigest(const Prepared& p) {
  Engine engine(p.nfa, EngineOptions{});
  std::vector<Match> matches;
  for (const EventPtr& e : *p.test) engine.Process(e, &matches);
  MatchDigest d;
  for (const Match& m : matches) d.Add(m);
  return d;
}

/// Returns the list of mismatches of one pass (empty when correct).
std::vector<std::string> CheckPass(const Workload& w, const Prepared& p,
                                   const PassResult& r, Reference* ref,
                                   double* recall) {
  std::vector<std::string> bad;
  if (!r.ok) {
    bad.push_back("pass failed: " + r.error);
    return bad;
  }
  if (r.events != w.events || r.run.total_events != w.events) {
    bad.push_back("event count " + std::to_string(r.run.total_events) +
                  " != " + std::to_string(w.events));
  }
  if (r.rows_malformed != 0) bad.push_back("malformed CSV rows");
  if (r.run.lost_events != 0) bad.push_back("lost or rejected events");
  if (p.harness == nullptr) {
    if (r.run.dropped_events != 0 || r.run.shed_pms != 0) {
      bad.push_back("shedding on a no-shed workload");
    }
    if (r.digest != ref->digest) {
      bad.push_back("match digest " + r.digest.ToString() + " != reference " +
                    ref->digest.ToString());
    }
    *recall = r.digest == ref->digest ? 1.0 : 0.0;
    return bad;
  }
  const QualityMetrics q = ComputeQuality(r.run.matches, p.harness->truth());
  *recall = q.recall;
  if (q.precision != 1.0) bad.push_back("precision " + std::to_string(q.precision));
  if (!ref->have_shed) {
    ref->have_shed = true;
    ref->dropped = r.run.dropped_events;
    ref->shed_pms = r.run.shed_pms;
    ref->digest = r.digest;
  } else {
    // Shedding decisions run on the cost-unit clock, so they are a pure
    // function of the trace: wrapped and unwrapped, paced and closed-loop
    // passes must agree exactly.
    if (r.run.dropped_events != ref->dropped || r.run.shed_pms != ref->shed_pms) {
      bad.push_back("shed counts (" + std::to_string(r.run.dropped_events) + "," +
                    std::to_string(r.run.shed_pms) + ") != first pass (" +
                    std::to_string(ref->dropped) + "," +
                    std::to_string(ref->shed_pms) + ")");
    }
    if (r.digest != ref->digest) bad.push_back("hybrid match set changed between passes");
  }
  return bad;
}

double BoundMetRatio(const ShardRunResult& run) {
  uint64_t violations = 0;
  uint64_t checked = 0;
  for (const ShardResult& s : run.shards) {
    violations += s.bound_violations;
    checked += s.bound_checked;
  }
  return checked == 0 ? 1.0
                      : 1.0 - static_cast<double>(violations) / static_cast<double>(checked);
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void Note(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list ap;
    va_start(ap, fmt);
    std::printf("# ");
    std::vprintf(fmt, ap);
    std::printf("\n");
    va_end(ap);
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("# %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), v, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident memory of this process so far.
double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Latency, wait and service samples (microseconds) of one paced pass,
/// all timed from each event's due time.
struct LatencySamples {
  std::vector<double> latency_us;
  std::vector<double> wait_us;
  std::vector<double> service_us;
};

LatencySamples CollectLatency(const PassResult& r) {
  LatencySamples out;
  for (const ShardProbe& probe : r.probes) {
    for (const EventSample& s : probe.samples) {
      const int64_t due = r.pacer.start_ns + r.pacer.schedule.DueNs(s.seq);
      out.latency_us.push_back(static_cast<double>(s.after_out_ns - due) * 1e-3);
      out.wait_us.push_back(static_cast<double>(s.filter_in_ns - due) * 1e-3);
      out.service_us.push_back(static_cast<double>(s.after_out_ns - s.filter_in_ns) * 1e-3);
    }
  }
  return out;
}

/// Prints each mismatch of a pass to stderr; returns how many there were.
uint64_t PrintMismatches(const std::vector<std::string>& bad) {
  for (const std::string& b : bad) std::fprintf(stderr, "MISMATCH: %s\n", b.c_str());
  return bad.size();
}

/// The run's failure ledger: every attempted event and every mismatch.
struct Ledger {
  explicit Ledger(uint64_t events_per_pass) : events_per_pass(events_per_pass) {}

  /// Books one pass: its events as attempted; lost, rejected and
  /// malformed events plus each correctness mismatch as failed.
  void Count(uint64_t lost, uint64_t pass_mismatches) {
    attempted += events_per_pass;
    failed += lost + pass_mismatches;
    mismatches += pass_mismatches;
  }
  void Fail(const std::string& why) {
    PrintMismatches({why});
    ++failed;
    ++mismatches;
  }

  uint64_t events_per_pass;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
};

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0)

/// What one end-to-end pass reports. Plain data, so that the child process
/// that ran the pass can send it to the parent through a pipe.
struct PassSummary {
  bool ran = false;         // the pass process finished and reported
  uint64_t mismatches = 0;  // printed to stderr by the pass process
  uint64_t lost = 0;        // lost, rejected and malformed events
  uint64_t events = 0;
  int64_t wall_ns = 0;
  double recall = 0.0;
  double bound_met = 0.0;
  uint64_t dropped = 0;
  uint64_t shed_pms = 0;
  MatchDigest digest;
  // Paced passes only.
  Percentile p50;
  Percentile p99;
  int64_t late_max_ns = 0;
  double late_p99_ms = 0.0;
  double peak_rss_mb = 0.0;  // of the pass process, which holds the set-up
};
static_assert(std::is_trivially_copyable_v<PassSummary>);

PassSummary Summarize(const Workload& w, const Prepared& p, const PassOptions& po,
                      const PassResult& r, Reference* ref) {
  PassSummary s;
  s.mismatches = PrintMismatches(CheckPass(w, p, r, ref, &s.recall));
  s.lost = r.run.lost_events + r.rows_malformed;
  s.events = r.events;
  s.wall_ns = r.wall_ns;
  if (!r.ok) return s;
  s.bound_met = BoundMetRatio(r.run);
  s.dropped = r.run.dropped_events;
  s.shed_pms = r.run.shed_pms;
  s.digest = r.digest;
  if (po.loop == Loop::kPaced) {
    LatencySamples ls = CollectLatency(r);
    s.p50 = NearestRank(&ls.latency_us, 0.50);
    s.p99 = NearestRank(&ls.latency_us, 0.99);
    s.late_max_ns = r.pacer.late_max_ns;
    std::vector<double> late = r.pacer.late_samples_ms;
    s.late_p99_ms = NearestRank(&late, 0.99).value;
  }
  return s;
}

/// Runs fn() in a child process forked from this one and stores what it
/// returns in *out; false when the child failed. The child dies with the
/// parent and leaves by _exit, so it flushes nothing of the parent's. T
/// must be plain data: it crosses a pipe.
template <typename T, typename Fn>
bool InChild(Fn fn, T* out) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (pipe(fds) != 0) return false;
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    const T value = fn();
    const char* buf = reinterpret_cast<const char*>(&value);
    size_t done = 0;
    while (done < sizeof(T)) {
      const ssize_t n = write(fds[1], buf + done, sizeof(T) - done);
      if (n <= 0) _exit(1);
      done += static_cast<size_t>(n);
    }
    std::fflush(stderr);
    _exit(0);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return false;
  }
  T got;
  char* buf = reinterpret_cast<char*>(&got);
  size_t done = 0;
  while (done < sizeof(T)) {
    const ssize_t n = read(fds[0], buf + done, sizeof(T) - done);
    if (n <= 0) break;
    done += static_cast<size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (done != sizeof(T) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return false;
  *out = got;
  return true;
}

/// Runs one pass in a process of its own, forked after set-up, so every
/// pass starts from the same process state: that of a process calling Run
/// for the first time, as the CLI does. A process that calls Run again
/// stalls on the previous Run's freed engines; the traced run measures
/// that (runtime.rerun_first_event_us).
PassSummary ForkPass(const Workload& w, const Prepared& p, const PassOptions& po,
                     const Reference& ref) {
  PassSummary s;  // ran stays false when the child fails
  InChild<PassSummary>(
      [&] {
        Reference child_ref = ref;
        PassSummary c = Summarize(w, p, po, RunPass(w, p, po), &child_ref);
        c.ran = true;
        c.peak_rss_mb = PeakRssMb();
        return c;
      },
      &s);
  return s;
}

int RunEndToEnd(const Workload& w, uint64_t seed, double seconds,
                const std::string& out_dir) {
  Report report;
  Ledger ledger(w.events);

  auto made = Setup(w, seed, out_dir, "", nullptr);
  if (!made.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", made.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<Prepared> p = std::move(made).value();
  std::vector<double> setup_s = {p->total_s};
  // Further set-ups are spread over the run, so that their median samples
  // the host over the same window as the passes. Each runs in a process of
  // its own, like the passes, and writes a trace file of its own.
  size_t setups = 1;
  const auto repeat_setup = [&]() {
    ++setups;
    double secs = -1.0;
    InChild<double>(
        [&] {
          auto again = Setup(w, seed, out_dir, "_rep", nullptr);
          if (!again.ok()) return -1.0;
          std::error_code ec;
          std::filesystem::remove((*again)->csv_path, ec);
          return (*again)->total_s;
        },
        &secs);
    if (secs < 0.0) {
      ledger.Fail("repeated set-up failed");
      return;
    }
    setup_s.push_back(secs);
  };
  Reference ref;
  if (p->harness == nullptr) ref.digest = ReferenceDigest(*p);

  std::vector<double> throughput;  // per closed-loop pass
  double closed_events = 0.0;
  double closed_wall_s = 0.0;
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> recall;
  std::vector<double> bound_met;
  uint64_t latency_samples = 0;
  uint64_t min_beyond = UINT64_MAX;
  double late_max_ms = 0.0;
  std::vector<double> late_p99_ms;
  double peak_rss_mb = PeakRssMb();
  int closed_passes = 0;
  int paced_passes = 0;

  const auto account = [&](const PassSummary& s) {
    if (!s.ran) {
      ledger.Count(0, PrintMismatches({"pass process failed"}));
      return false;
    }
    ledger.Count(s.lost, s.mismatches);
    peak_rss_mb = std::max(peak_rss_mb, s.peak_rss_mb);
    recall.push_back(s.recall);
    bound_met.push_back(s.bound_met);
    return s.mismatches == 0;
  };

  // Warm-up closed-loop pass: faults the trace file in. On hybrid it also
  // fixes the shed counts and match set every later pass must reproduce.
  {
    const PassSummary s = ForkPass(w, *p, PassOptions{}, ref);
    if (account(s) && p->harness != nullptr) {
      ref.have_shed = true;
      ref.dropped = s.dropped;
      ref.shed_pms = s.shed_pms;
      ref.digest = s.digest;
    }
  }
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  // Two closed-loop passes (the shorter kind) alternate with one paced
  // pass, so slow drift of the host shifts both alike; at least six and
  // three of them are measured.
  const auto reps = static_cast<size_t>(w.setup_reps);
  while (paced_passes < 3 || NowNs() - start < budget) {
    if (setups < reps &&
        NowNs() - start >= static_cast<int64_t>(setups) * budget / w.setup_reps) {
      repeat_setup();
    }
    for (int k = 0; k < 2; ++k) {
      // Closed loop, untimed per event; a hybrid run uses the registry
      // shedder unwrapped, which the paced passes' forwarding shedder must
      // reproduce exactly.
      const PassSummary s = ForkPass(w, *p, PassOptions{}, ref);
      if (account(s)) {
        closed_events += static_cast<double>(s.events);
        closed_wall_s += Seconds(s.wall_ns);
        throughput.push_back(static_cast<double>(s.events) / Seconds(s.wall_ns));
      }
      ++closed_passes;
    }
    {
      PassOptions po;
      po.loop = Loop::kPaced;
      po.forward = true;
      po.sample_stride = w.sample_stride;
      const PassSummary s = ForkPass(w, *p, po, ref);
      if (account(s)) {
        if (!s.p99.supported) {
          ledger.Fail("p99 has fewer than 10 samples beyond it");
        }
        p50.push_back(s.p50.value);
        p99.push_back(s.p99.value);
        latency_samples += s.p99.samples;
        min_beyond = std::min(min_beyond, s.p99.beyond);
        late_max_ms = std::max(late_max_ms, static_cast<double>(s.late_max_ns) * 1e-6);
        late_p99_ms.push_back(s.late_p99_ms);
      }
      ++paced_passes;
    }
  }

  while (setups < reps) repeat_setup();

  const bool correct = ledger.mismatches == 0;
  report.Note("workload %s seed %" PRIu64 ": %zu events, %d shard(s), %s", w.name, seed,
              w.events, w.shards,
              w.bound_fraction > 0.0 ? "hybrid shedding" : "no shedding");
  report.Note("every pass and every set-up after the first ran in a process "
              "of its own; %zu set-ups spread over the run",
              setups);
  // No pass is thrown away: throughput pools every closed-loop pass, and
  // the latency percentiles are medians over the paced passes, so a stall
  // that hits most passes moves them. The range across passes is printed.
  report.Note("closed loop: %d passes (+1 warm-up); throughput = all events / "
              "all wall time (passes: min %.6g, median %.6g, max %.6g ev/s)",
              closed_passes, Min(throughput), Median(throughput), Max(throughput));
  report.Note("open loop: %d passes at %.0f ev/s, 1 in %" PRIu64
              " events timed from its due time; p50/p99 = median of per-pass "
              "percentiles (p99 min %.2f, max %.2f us); %" PRIu64
              " samples in all, >= %" PRIu64 " beyond each pass's p99",
              paced_passes, w.rate_eps, w.sample_stride, Min(p99), Max(p99),
              latency_samples, min_beyond == UINT64_MAX ? 0 : min_beyond);
  report.Note("generator lateness: max %.3f ms, p99 (median of passes) %.3f ms",
              late_max_ms, Median(late_p99_ms));
  report.Add("throughput_eps", closed_wall_s > 0.0 ? closed_events / closed_wall_s : 0.0,
             "1/s");
  report.Add("latency_p50_us", Median(p50), "us");
  report.Add("latency_p99_us", Median(p99), "us");
  report.Add("setup_s", Median(setup_s), "s");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.Add("recall", Median(recall), "ratio");
  report.Add("bound_met_ratio", Median(bound_met), "ratio");
  report.Add("success_ratio",
             ledger.attempted == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(ledger.failed) /
                             static_cast<double>(ledger.attempted),
             "ratio");
  report.Print(correct, ledger.attempted, ledger.failed);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run (--trace 1)

/// The exact counters a pass must repeat under the same seed.
std::map<std::string, uint64_t> ExactCounts(const PassResult& r) {
  const EngineStats& s = r.run.stats;
  const obs::ShardObsSnapshot& o = r.obs.total;
  return {
      {"engine.events_processed", s.events_processed},
      {"engine.pms_created", s.pms_created},
      {"engine.witnesses_created", s.witnesses_created},
      {"engine.matches_emitted", s.matches_emitted},
      {"engine.matches_vetoed", s.matches_vetoed},
      {"engine.pms_evicted", s.pms_evicted},
      {"engine.predicate_evals", s.predicate_evals},
      {"engine.candidates_scanned", s.candidates_scanned},
      {"engine.index_probes", s.index_probes},
      {"engine.peak_pms", s.peak_pms},
      {"run.dropped_events", r.run.dropped_events},
      {"run.shed_pms", r.run.shed_pms},
      {"obs.events_routed", o.events_routed},
      {"obs.events_processed", o.events_processed},
      {"obs.events_dropped_shedder", o.events_dropped_shedder},
      {"obs.events_lost", o.events_lost},
      {"obs.matches_emitted", o.matches_emitted},
      {"obs.pms_shed", o.pms_shed},
      {"obs.shed_triggers", o.shed_triggers},
      {"obs.knapsack_solves", o.knapsack_solves},
      {"obs.expiry_reaped", o.expiry_reaped},
      {"obs.wheel_cascades", o.wheel_cascades},
  };
}

std::vector<std::string> DiffCounts(const std::map<std::string, uint64_t>& a,
                                    const std::map<std::string, uint64_t>& b) {
  std::vector<std::string> out;
  for (const auto& [k, v] : a) {
    const auto it = b.find(k);
    if (it == b.end() || it->second != v) {
      out.push_back(k + " " + std::to_string(v) + " vs " +
                    (it == b.end() ? std::string("-") : std::to_string(it->second)));
    }
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "id,name,parent,seq,start_ns,end_ns\n");
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu,%s,%d,%" PRId64 ",%" PRId64 ",%" PRId64 "\n", i,
                 SpanNameString(s.name), s.parent, s.seq, s.start_ns - origin,
                 s.end_ns - origin);
  }
  std::fclose(f);
}

int RunTraced(const Workload& w, uint64_t seed, const std::string& out_dir) {
  Report report;
  Ledger ledger(w.events);
  SpanLog setup_log;

  auto made = Setup(w, seed, out_dir, "", &setup_log);
  if (!made.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", made.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Prepared> p = std::move(made).value();
  Reference ref;
  if (p->harness == nullptr) ref.digest = ReferenceDigest(*p);
  const auto check = [&](const PassResult& r) {
    double rc = 0.0;
    ledger.Count(r.run.lost_events + r.rows_malformed,
                 PrintMismatches(CheckPass(w, *p, r, &ref, &rc)));
    return r.ok;
  };

  // Untraced closed-loop passes: the baseline of the tracing overhead.
  // Like the end-to-end run, the overhead compares median passes.
  constexpr int kOverheadPasses = 5;
  std::vector<double> untraced_eps;
  std::vector<double> run_s;
  std::map<std::string, uint64_t> counts;
  for (int i = 0; i <= kOverheadPasses; ++i) {
    PassOptions po;
    const PassResult r = RunPass(w, *p, po);
    if (!check(r)) continue;
    if (i == 0) {
      counts = ExactCounts(r);
      continue;  // warm-up
    }
    untraced_eps.push_back(static_cast<double>(r.events) / Seconds(r.wall_ns));
    run_s.push_back(Seconds(r.run_ns));
  }

  // Traced closed-loop passes: every worker call timed; the first keeps
  // its spans. The exact counters must repeat on every pass (obs counters
  // of the wrapped passes against those of the unwrapped baseline).
  std::vector<double> traced_eps;
  std::vector<double> parse_s, merge_s, filter_ns, process_ns, after_ns;
  std::vector<Span> spans;
  PassResult first_traced;
  for (int i = 0; i < kOverheadPasses; ++i) {
    PassOptions po;
    po.forward = true;
    po.traced = true;
    po.record_spans = i == 0;
    PassResult r = RunPass(w, *p, po);
    if (!check(r)) continue;
    for (const std::string& d : DiffCounts(counts, ExactCounts(r))) {
      ledger.Fail("count did not repeat: " + d);
    }
    traced_eps.push_back(static_cast<double>(r.events) / Seconds(r.wall_ns));
    parse_s.push_back(Seconds(r.parse_ns));
    merge_s.push_back(r.merge_s);
    int64_t f = 0, pr = 0, a = 0;
    uint64_t n = 0;
    for (const ShardProbe& probe : r.probes) {
      f += probe.filter_ns;
      pr += probe.process_ns;
      a += probe.after_ns;
      n += probe.timed_events;
    }
    const double dn = std::max<double>(1.0, static_cast<double>(n));
    filter_ns.push_back(static_cast<double>(f) / dn);
    process_ns.push_back(static_cast<double>(pr) / dn);
    after_ns.push_back(static_cast<double>(a) / dn);
    if (i == 0) {
      spans = std::move(r.spans);
      first_traced = std::move(r);
    }
  }

  // Traced paced pass: every event timed from its due time.
  PassOptions paced;
  paced.loop = Loop::kPaced;
  paced.forward = true;
  paced.traced = true;
  paced.sample_stride = 1;
  const PassResult pr = RunPass(w, *p, paced);
  if (check(pr)) {
    for (const std::string& d : DiffCounts(counts, ExactCounts(pr))) {
      ledger.Fail("paced pass count differs: " + d);
    }
  }
  LatencySamples ls = CollectLatency(pr);
  // This pass follows a dozen Runs in the same process, so its first event
  // carries the stall on the earlier Runs' freed engines, which the
  // end-to-end run's fresh pass processes never see.
  double rerun_first_us = 0.0;
  for (const ShardProbe& probe : pr.probes) {
    for (const EventSample& e : probe.samples) {
      if (e.seq == 0) rerun_first_us = static_cast<double>(e.after_out_ns - pr.pacer.start_ns) * 1e-3;
    }
  }

  // RunSequential on the same plan: the parallel speedup's numerator.
  PassOptions seq_opts;
  seq_opts.sequential = true;
  const PassResult sr = RunPass(w, *p, seq_opts);
  if (check(sr)) {
    for (const std::string& d : DiffCounts(counts, ExactCounts(sr))) {
      ledger.Fail("RunSequential count differs: " + d);
    }
  }

  // Routing cost: a loop of RouteEvent calls over the trace.
  std::vector<double> route_ns;
  {
    ShardRuntimeOptions opts;
    opts.num_shards = w.shards;
    opts.partition_attr = p->schema.AttributeIndex("ID");
    auto rt = ShardRuntime::Create(p->nfa, opts);
    std::vector<int> targets;
    if (rt.ok()) {
      for (int rep = 0; rep < 3; ++rep) {
        const int64_t t0 = NowNs();
        for (const EventPtr& e : *p->test) {
          targets.clear();
          (*rt)->RouteEvent(*e, &targets);
        }
        const int64_t t1 = NowNs();
        setup_log.Add(SpanName::kRoute, -1, t0, t1);
        route_ns.push_back(static_cast<double>(t1 - t0) /
                           static_cast<double>(p->test->size()));
      }
    } else {
      ledger.Fail("route-loop runtime: " + rt.status().ToString());
    }
  }

  // A second seed, never used while tuning the benchmark: its counts must
  // differ and it must still pass every correctness check.
  {
    const uint64_t seed2 = seed + 0x5eed0001ull;
    auto made2 = Setup(w, seed2, out_dir, "", nullptr);
    if (!made2.ok()) {
      ledger.Fail("second-seed setup failed");
    } else {
      std::unique_ptr<Prepared> p2 = std::move(made2).value();
      Reference ref2;
      if (p2->harness == nullptr) ref2.digest = ReferenceDigest(*p2);
      PassOptions po;
      po.forward = true;
      const PassResult r2 = RunPass(w, *p2, po);
      double rc = 0.0;
      ledger.Count(r2.run.lost_events + r2.rows_malformed,
                   PrintMismatches(CheckPass(w, *p2, r2, &ref2, &rc)));
      if (r2.ok && DiffCounts(counts, ExactCounts(r2)).empty()) {
        ledger.Fail("a second seed left every exact count unchanged");
      }
      std::error_code ec;
      std::filesystem::remove(p2->csv_path, ec);
    }
  }

  // Layer self times over the first traced pass's span tree. The pass
  // span's own time (mapping the file, appending to the stream) counts as
  // workload; the run span's is router, queue and idle time no worker
  // span covers.
  const std::vector<int64_t> self = SelfTimesNs(spans);
  double self_s[4] = {0, 0, 0, 0};  // workload, runtime, cep, shed
  for (size_t i = 0; i < spans.size(); ++i) {
    const double s = Seconds(self[i]);
    switch (spans[i].name) {
      case SpanName::kPass:
      case SpanName::kParseBatch: self_s[0] += s; break;
      case SpanName::kRun:
      case SpanName::kMerge: self_s[1] += s; break;
      case SpanName::kProcess: self_s[2] += s; break;
      case SpanName::kFilter:
      case SpanName::kAfterEvent: self_s[3] += s; break;
      default: break;
    }
  }
  // The file also carries the set-up and route-loop spans as extra roots.
  std::vector<Span> all = setup_log.spans;
  const int32_t offset = static_cast<int32_t>(all.size());
  for (Span s : spans) {
    if (s.parent >= 0) s.parent += offset;
    all.push_back(s);
  }
  const std::string span_path = out_dir + "/spans_" + w.name + ".csv";
  WriteSpans(span_path, all);

  // ----- per-layer metrics
  const ShardRunResult& run = first_traced.run;
  const EngineStats& st = run.stats;
  const obs::ShardObsSnapshot& o = first_traced.obs.total;
  const double events = static_cast<double>(w.events);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  report.Add("workload.generate_s", p->generate_s, "s");
  report.Add("workload.parse_s", Median(parse_s), "s");
  report.Add("workload.parse_ns_per_event", Median(parse_s) * 1e9 / events, "ns");
  report.Add("workload.rows_malformed", static_cast<double>(first_traced.rows_malformed),
             "count");
  report.Add("workload.self_s", self_s[0], "s");

  report.Add("runtime.run_s", Median(run_s), "s");
  report.Add("runtime.merge_s", Median(merge_s), "s");
  report.Add("runtime.route_ns_per_event", Median(route_ns), "ns");
  report.Add("runtime.parallel_speedup", ratio(Seconds(sr.run_ns), Median(run_s)), "x");
  double max_routed = 0.0;
  double sum_routed = 0.0;
  for (const ShardResult& s : run.shards) {
    max_routed = std::max(max_routed, static_cast<double>(s.events_routed));
    sum_routed += static_cast<double>(s.events_routed);
  }
  report.Add("runtime.shard_skew",
             ratio(max_routed, sum_routed / static_cast<double>(run.shards.size())), "x");
  report.Add("runtime.queue_wait_us_p99", pr.obs.total.queue_wait_us.Quantile(0.99), "us");
  report.Add("runtime.queue_wait_samples",
             static_cast<double>(pr.obs.total.queue_wait_us.count), "count");
  report.Add("runtime.push_timeouts", static_cast<double>(pr.obs.total.queue_push_timeouts),
             "count");
  const Percentile wait50 = NearestRank(&ls.wait_us, 0.50);
  const Percentile wait99 = NearestRank(&ls.wait_us, 0.99);
  const Percentile lat50 = NearestRank(&ls.latency_us, 0.50);
  report.Add("runtime.wait_us_p50", wait50.value, "us");
  report.Add("runtime.wait_us_p99", wait99.value, "us");
  report.Add("runtime.wait_samples", static_cast<double>(wait99.samples), "count");
  report.Add("runtime.wait_share_of_latency_p50", ratio(wait50.value, lat50.value), "ratio");
  std::vector<double> late = pr.pacer.late_samples_ms;
  report.Add("runtime.generator_late_ms_max", static_cast<double>(pr.pacer.late_max_ns) * 1e-6,
             "ms");
  report.Add("runtime.generator_late_ms_p99", NearestRank(&late, 0.99).value, "ms");
  report.Add("runtime.rerun_first_event_us", rerun_first_us, "us");
  report.Add("runtime.events_lost", static_cast<double>(o.events_lost), "count");
  uint64_t rejected = 0;
  for (const ShardResult& s : run.shards) rejected += s.events_rejected;
  report.Add("runtime.events_rejected", static_cast<double>(rejected), "count");
  report.Add("runtime.self_s", self_s[1], "s");

  const Percentile svc50 = NearestRank(&ls.service_us, 0.50);
  const Percentile svc99 = NearestRank(&ls.service_us, 0.99);
  report.Add("cep.service_us_p50", svc50.value, "us");
  report.Add("cep.service_us_p99", svc99.value, "us");
  report.Add("cep.process_ns_per_event", Median(process_ns), "ns");
  const double process_total_ns = Median(process_ns) * events;
  report.Add("cep.ns_per_candidate",
             ratio(process_total_ns, static_cast<double>(st.candidates_scanned)), "ns");
  report.Add("cep.candidates_scanned", static_cast<double>(st.candidates_scanned), "count");
  report.Add("cep.predicate_evals", static_cast<double>(st.predicate_evals), "count");
  report.Add("cep.index_probes", static_cast<double>(st.index_probes), "count");
  report.Add("cep.pms_created", static_cast<double>(st.pms_created), "count");
  report.Add("cep.pms_evicted", static_cast<double>(st.pms_evicted), "count");
  report.Add("cep.matches_emitted", static_cast<double>(st.matches_emitted), "count");
  report.Add("cep.peak_pms", static_cast<double>(st.peak_pms), "count");
  report.Add("cep.preds_per_candidate",
             ratio(static_cast<double>(st.predicate_evals),
                   static_cast<double>(st.candidates_scanned)),
             "ratio");
  report.Add("cep.matches_per_pm",
             ratio(static_cast<double>(st.matches_emitted), static_cast<double>(st.pms_created)),
             "ratio");
  size_t state_peak = 0;
  for (const ShardProbe& probe : first_traced.probes) state_peak += probe.state_bytes_peak;
  report.Add("cep.state_bytes_peak", static_cast<double>(state_peak), "bytes");
  report.Add("cep.expiry_reaped", static_cast<double>(o.expiry_reaped), "count");
  report.Add("cep.wheel_cascades", static_cast<double>(o.wheel_cascades), "count");
  report.Add("cep.compile_s", p->compile_s, "s");
  report.Add("cep.self_s", self_s[2], "s");

  report.Add("shed.filter_ns_per_event", Median(filter_ns), "ns");
  report.Add("shed.after_event_ns_per_event", Median(after_ns), "ns");
  report.Add("shed.replan_us_p50", o.shed_trigger_us.Quantile(0.50), "us");
  report.Add("shed.replan_us_p99", o.shed_trigger_us.Quantile(0.99), "us");
  report.Add("shed.replan_samples", static_cast<double>(o.shed_trigger_us.count), "count");
  report.Add("opt.knapsack_us_p50", o.knapsack_us.Quantile(0.50), "us");
  report.Add("opt.knapsack_us_p99", o.knapsack_us.Quantile(0.99), "us");
  report.Add("shed.triggers", static_cast<double>(o.shed_triggers), "count");
  report.Add("shed.drop_ratio", ratio(static_cast<double>(run.dropped_events), events), "ratio");
  report.Add("shed.kill_ratio",
             ratio(static_cast<double>(run.shed_pms), static_cast<double>(st.pms_created)),
             "ratio");
  report.Add("shed.train_s", p->train_s, "s");
  report.Add("shed.self_s", self_s[3], "s");

  const double untraced = Median(untraced_eps);
  report.Add("trace.overhead_ratio", ratio(untraced - Median(traced_eps), untraced), "ratio");
  report.Add("trace.spans", static_cast<double>(all.size()), "count");

  const bool correct = ledger.mismatches == 0;
  report.Note("traced run of %s seed %" PRIu64 "; spans written to %s", w.name, seed,
              span_path.c_str());
  report.Note("paced pass at %.0f ev/s, every event timed: latency p50 %.2f us "
              "(%" PRIu64 " samples), wait p50 %.2f us, service p50 %.2f us",
              w.rate_eps, lat50.value, lat50.samples, wait50.value, svc50.value);
  report.Note("service p99 %.2f us with %" PRIu64 " samples beyond it", svc99.value,
              svc99.beyond);
  report.Print(correct, ledger.attempted, ledger.failed);
  return correct ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace cepshed::perfbench

int main(int argc, char** argv) {
  using namespace cepshed::perfbench;
  std::string workload;
  std::string out_dir = ".bench_out";
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(seconds > 0.0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();
  const Workload* w = FindWorkload(workload);
  if (w == nullptr) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(), ec.message().c_str());
    return 1;
  }
  const int rc = trace == 1 ? RunTraced(*w, seed, out_dir)
                            : RunEndToEnd(*w, seed, seconds, out_dir);
  std::filesystem::remove(out_dir + "/" + w->name + "_" + std::to_string(seed) + ".csv", ec);
  return rc;
}
