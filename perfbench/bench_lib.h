// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Arithmetic shared by the end-to-end benchmark binary and its unit tests:
// the percentile rank rule, the open-loop pacing schedule, span self time,
// and the order-insensitive match digest. Everything here is pure and
// deterministic so the tests can pin it exactly.

#ifndef CEPSHED_PERFBENCH_BENCH_LIB_H_
#define CEPSHED_PERFBENCH_BENCH_LIB_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/cep/match.h"

namespace cepshed::perfbench {

/// \brief A percentile of a sample, with the evidence behind it.
struct Percentile {
  double value = 0.0;
  uint64_t samples = 0;
  /// Samples strictly above the percentile's rank.
  uint64_t beyond = 0;
  /// True when at least the required number of samples lie beyond it.
  bool supported = false;
};

/// Nearest-rank percentile: rank = ceil(q * n), value = sorted[rank - 1],
/// beyond = n - rank. A percentile counts as supported only when at least
/// `min_beyond` samples lie beyond it, so p99 needs n >= 1000. Sorts
/// *samples in place. q must lie in (0, 1].
Percentile NearestRank(std::vector<double>* samples, double q,
                       uint64_t min_beyond = 10);

/// Median (midpoint of the two middle values for even n); 0 when empty.
double Median(std::vector<double> values);

/// \brief The open-loop generator's schedule: event `seq` is due
/// seq / rate seconds after the pass starts, regardless of how fast the
/// system consumed the earlier events.
class PacingSchedule {
 public:
  explicit PacingSchedule(double rate_eps) : rate_eps_(rate_eps) {}

  /// Due time of event `seq`, in nanoseconds after the pass start.
  int64_t DueNs(uint64_t seq) const {
    return static_cast<int64_t>(static_cast<double>(seq) * 1e9 / rate_eps_);
  }
  /// How late an event released at `released_ns` (same origin) ran: 0
  /// when the generator was on time or early.
  int64_t LatenessNs(uint64_t seq, int64_t released_ns) const {
    const int64_t late = released_ns - DueNs(seq);
    return late > 0 ? late : 0;
  }

 private:
  double rate_eps_;
};

/// \brief Layer boundaries the benchmark records spans at.
enum class SpanName : uint8_t {
  kPass,         // one closed- or open-loop pass: Open .. Run returns
  kParseBatch,   // MappedCsvReader::NextBatch
  kRun,          // ShardRuntime::Run
  kFilter,       // Shedder::FilterEvent on the worker (rho_I)
  kProcess,      // between FilterEvent and AfterEvent: Engine::Process
  kAfterEvent,   // Shedder::AfterEvent on the worker (rho_S + trigger)
  kMerge,        // Run wall minus ShardRunResult::wall_seconds
  kRoute,        // a loop of ShardRuntime::RouteEvent calls
  kCompile,      // Nfa::Compile
  kPrepare,      // ExperimentHarness::Prepare
  kGenerate,     // trace generation + CSV write
};
const char* SpanNameString(SpanName name);

/// \brief One recorded span. `parent` indexes the run's span list (-1 for
/// a root); spans of one event carry its sequence number, others -1.
struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t seq = -1;
  int32_t parent = -1;
  SpanName name = SpanName::kPass;
};

/// Self time of a span: its duration minus the part of [start, end) that
/// the union of its children's intervals covers. Children may overlap
/// each other (parallel shards) and stick out of the parent; only the
/// covered part inside the parent is subtracted. Sorts *children.
int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>>* children);

/// Per-span self time for a whole span list (children found via parent).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// \brief Order-insensitive digest of a match set over (detection
/// timestamp, bound event sequence numbers). Two runs producing the same
/// set in any order digest equal; adding, dropping or altering a match
/// changes it with overwhelming probability.
class MatchDigest {
 public:
  void Add(const Match& match);
  void Add(int64_t detected_at, const std::vector<uint64_t>& seqs);

  uint64_t count() const { return count_; }
  bool operator==(const MatchDigest& other) const {
    return count_ == other.count_ && sum_ == other.sum_ && xor_ == other.xor_;
  }
  bool operator!=(const MatchDigest& other) const { return !(*this == other); }
  std::string ToString() const;

 private:
  static uint64_t Mix(uint64_t h, uint64_t v);
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t xor_ = 0;
};

}  // namespace cepshed::perfbench

#endif  // CEPSHED_PERFBENCH_BENCH_LIB_H_
