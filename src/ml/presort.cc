// Copyright (c) the CepShed authors. Licensed under the Apache License 2.0.

#include "src/ml/presort.h"

#include <algorithm>
#include <numeric>

namespace cepshed {

PresortedColumns::PresortedColumns(const std::vector<std::vector<double>>& x)
    : n_(x.size()), d_(x.empty() ? 0 : x[0].size()) {
  values_.resize(n_ * d_);
  order_.resize(n_ * d_);
  goes_left_.resize(n_);
  right_.resize(n_);
  for (size_t row = 0; row < n_; ++row) {
    for (size_t f = 0; f < d_; ++f) values_[f * n_ + row] = x[row][f];
  }
  for (size_t f = 0; f < d_; ++f) {
    const double* col = column(f);
    uint32_t* ord = &order_[f * n_];
    std::iota(ord, ord + n_, 0u);
    // Same order as sorting (value, row) pairs: equal values tie-break on
    // the row index.
    std::sort(ord, ord + n_, [col](uint32_t a, uint32_t b) {
      if (col[a] < col[b]) return true;
      if (col[b] < col[a]) return false;
      return a < b;
    });
  }
}

size_t PresortedColumns::Split(std::vector<uint32_t>* indices, size_t begin,
                               size_t end, size_t feature, double threshold) {
  const double* col = column(feature);
  for (size_t i = begin; i < end; ++i) {
    const uint32_t row = (*indices)[i];
    goes_left_[row] = col[row] <= threshold ? 1 : 0;
  }
  const auto mid = std::partition(indices->begin() + static_cast<ptrdiff_t>(begin),
                                  indices->begin() + static_cast<ptrdiff_t>(end),
                                  [&](uint32_t row) { return goes_left_[row] != 0; });
  for (size_t f = 0; f < d_; ++f) {
    uint32_t* ord = &order_[f * n_];
    size_t left = begin;
    size_t right = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t row = ord[i];
      if (goes_left_[row] != 0) {
        ord[left++] = row;
      } else {
        right_[right++] = row;
      }
    }
    std::copy(right_.begin(), right_.begin() + static_cast<ptrdiff_t>(right),
              ord + left);
  }
  return static_cast<size_t>(mid - indices->begin());
}

}  // namespace cepshed
