#include "core/record_store.hpp"

#include <algorithm>
#include <numeric>

#include "util/bytes.hpp"

namespace tora::core {

void RecordStore::add(double value, double significance) {
  stage_values_.push_back(value);
  stage_sigs_.push_back(significance);
}

void RecordStore::flush() {
  const std::size_t s = stage_values_.size();
  if (s == 0) return;
  const std::size_t n = values_.size();

  // Sort the staged records by value, keeping arrival order on ties (stable
  // through the index permutation).
  stage_order_.resize(s);
  std::iota(stage_order_.begin(), stage_order_.end(), std::size_t{0});
  std::stable_sort(stage_order_.begin(), stage_order_.end(),
                   [this](std::size_t a, std::size_t b) {
                     return stage_values_[a] < stage_values_[b];
                   });

  // Merge backward into the grown run, placing the largest remaining
  // record last. On value ties the main run goes first, so a staged record
  // lands after every previously observed equal value — the same position a
  // per-observe upper_bound insert would have chosen. Once the smallest
  // staged record is placed, everything before it is the untouched prefix
  // of the old run.
  values_.resize(n + s);
  sigs_.resize(n + s);
  std::size_t i = n;
  std::size_t j = s;
  std::size_t out = n + s;
  while (j > 0) {
    --out;
    const std::size_t staged = stage_order_[j - 1];
    if (i > 0 && stage_values_[staged] < values_[i - 1]) {
      --i;
      values_[out] = values_[i];
      sigs_[out] = sigs_[i];
    } else {
      values_[out] = stage_values_[staged];
      sigs_[out] = stage_sigs_[staged];
      --j;
    }
  }
  const std::size_t first_changed = out;
  stage_values_.clear();
  stage_sigs_.clear();

  // Extend the prefix sums from the first changed position. Entries before
  // it are untouched because the merge preserved that prefix of the run, so
  // the recurrence continues exactly as a full forward recompute would.
  sig_prefix_.resize(n + s + 1);
  vsig_prefix_.resize(n + s + 1);
  for (std::size_t p = first_changed; p < n + s; ++p) {
    sig_prefix_[p + 1] = sig_prefix_[p] + sigs_[p];
    vsig_prefix_[p + 1] = vsig_prefix_[p] + values_[p] * sigs_[p];
  }
}

void RecordStore::save(util::ByteWriter& w) const {
  w.u64(values_.size());
  for (std::size_t i = 0; i < values_.size(); ++i) {
    w.f64(values_[i]);
    w.f64(sigs_[i]);
  }
  w.u64(stage_values_.size());
  for (std::size_t i = 0; i < stage_values_.size(); ++i) {
    w.f64(stage_values_[i]);
    w.f64(stage_sigs_[i]);
  }
}

void RecordStore::load(util::ByteReader& r) {
  values_.clear();
  sigs_.clear();
  stage_values_.clear();
  stage_sigs_.clear();
  const std::uint64_t n = r.u64();
  values_.reserve(n);
  sigs_.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    values_.push_back(r.f64());
    sigs_.push_back(r.f64());
  }
  const std::uint64_t s = r.u64();
  stage_values_.reserve(s);
  stage_sigs_.reserve(s);
  for (std::uint64_t i = 0; i < s; ++i) {
    stage_values_.push_back(r.f64());
    stage_sigs_.push_back(r.f64());
  }
  sig_prefix_.assign(1, 0.0);
  vsig_prefix_.assign(1, 0.0);
  sig_prefix_.reserve(values_.size() + 1);
  vsig_prefix_.reserve(values_.size() + 1);
  for (std::size_t p = 0; p < values_.size(); ++p) {
    sig_prefix_.push_back(sig_prefix_[p] + sigs_[p]);
    vsig_prefix_.push_back(vsig_prefix_[p] + values_[p] * sigs_[p]);
  }
}

}  // namespace tora::core
