// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "perfbench/bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cepshed::perfbench {

Percentile NearestRank(std::vector<double>* samples, double q,
                       uint64_t min_beyond) {
  Percentile p;
  p.samples = samples->size();
  if (samples->empty()) return p;
  std::sort(samples->begin(), samples->end());
  const double n = static_cast<double>(samples->size());
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * n));
  // ceil(q * n) can land one above the exact product when q * n is
  // integral but not representable (0.99 * 1000 = 990.0000000000001).
  if (rank > 1 && static_cast<double>(rank - 1) >= q * n - 1e-9 * n) --rank;
  rank = std::clamp<uint64_t>(rank, 1, samples->size());
  p.value = (*samples)[rank - 1];
  p.beyond = samples->size() - rank;
  p.supported = p.beyond >= min_beyond;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kPass: return "pass";
    case SpanName::kParseBatch: return "parse_batch";
    case SpanName::kRun: return "run";
    case SpanName::kFilter: return "filter";
    case SpanName::kProcess: return "process";
    case SpanName::kAfterEvent: return "after_event";
    case SpanName::kMerge: return "merge";
    case SpanName::kRoute: return "route";
    case SpanName::kCompile: return "compile";
    case SpanName::kPrepare: return "prepare";
    case SpanName::kGenerate: return "generate";
  }
  return "?";
}

int64_t SelfTimeNs(int64_t start_ns, int64_t end_ns,
                   std::vector<std::pair<int64_t, int64_t>>* children) {
  std::sort(children->begin(), children->end());
  int64_t covered = 0;
  int64_t run_start = 0;
  int64_t run_end = 0;
  bool open = false;
  for (auto [s, e] : *children) {
    s = std::max(s, start_ns);
    e = std::min(e, end_ns);
    if (e <= s) continue;
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return (end_ns - start_ns) - covered;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = SelfTimeNs(spans[i].start_ns, spans[i].end_ns, &children[i]);
  }
  return self;
}

uint64_t MatchDigest::Mix(uint64_t h, uint64_t v) {
  // splitmix64 finalizer over the running state.
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void MatchDigest::Add(int64_t detected_at, const std::vector<uint64_t>& seqs) {
  uint64_t h = Mix(0x6d617463686573ull, static_cast<uint64_t>(detected_at));
  for (uint64_t s : seqs) h = Mix(h, s);
  h = Mix(h, seqs.size());
  ++count_;
  sum_ += h;
  xor_ ^= h;
}

void MatchDigest::Add(const Match& match) {
  std::vector<uint64_t> seqs;
  seqs.reserve(match.events.size());
  for (const EventPtr& e : match.events) seqs.push_back(e->seq());
  Add(match.detected_at, seqs);
}

std::string MatchDigest::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%llu:%016llx%016llx",
                static_cast<unsigned long long>(count_),
                static_cast<unsigned long long>(sum_),
                static_cast<unsigned long long>(xor_));
  return buf;
}

}  // namespace cepshed::perfbench
