// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.
//
// Presorted feature columns shared by the CART fits (RegressionTree,
// DecisionTree). Each feature's rows are sorted once by (value, row index)
// — a total order on rows. A node owns the same range [begin, end) of
// every order; a split stable-partitions each order's range by the split
// predicate, so both children's ranges stay sorted by (value, row). A node
// therefore reads its rows in exactly the order a per-node sort of its
// (value, row) pairs would produce, and split search costs O(d * n) per
// tree level instead of O(d * n log n) per node.

#ifndef CEPSHED_ML_PRESORT_H_
#define CEPSHED_ML_PRESORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cepshed {

class PresortedColumns {
 public:
  /// `x` is n rows of d features (rectangular, non-empty).
  explicit PresortedColumns(const std::vector<std::vector<double>>& x);

  /// Feature f of every row, indexed by row.
  const double* column(size_t f) const { return &values_[f * n_]; }
  /// Rows sorted by (feature f, row); a node reads [begin, end).
  const uint32_t* order(size_t f) const { return &order_[f * n_]; }

  /// Splits a node's rows [begin, end) into column(feature) <= threshold
  /// and the rest; returns where the right-hand rows start. `indices` (the
  /// row order node sums and leaf means fold in) is std::partition-ed in
  /// place, as the per-node-sort construction did; every feature order is
  /// stable-partitioned the same way.
  size_t Split(std::vector<uint32_t>* indices, size_t begin, size_t end,
               size_t feature, double threshold);

 private:
  size_t n_;
  size_t d_;
  std::vector<double> values_;     // f * n + row
  std::vector<uint32_t> order_;    // f * n + position
  std::vector<uint8_t> goes_left_;  // by row
  std::vector<uint32_t> right_;    // partition scratch
};

}  // namespace cepshed

#endif  // CEPSHED_ML_PRESORT_H_
