#include "core/bucket.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace tora::core {

BucketSet BucketSet::from_break_indices(std::span<const Record> sorted,
                                        std::span<const std::size_t> ends) {
  if (sorted.empty()) throw std::invalid_argument("BucketSet: no records");
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].value < sorted[i - 1].value) {
      throw std::invalid_argument("BucketSet: records must be value-sorted");
    }
  }

  // Forward sequential sum, the reference order every total-significance
  // computation in the library must reproduce bit-for-bit.
  double total_sig = 0.0;
  for (const Record& r : sorted) total_sig += r.significance;

  std::vector<double> values;
  std::vector<double> sigs;
  values.reserve(sorted.size());
  sigs.reserve(sorted.size());
  for (const Record& r : sorted) {
    values.push_back(r.value);
    sigs.push_back(r.significance);
  }
  return build(values, sigs, ends, total_sig);
}

BucketSet BucketSet::from_sorted(std::span<const double> values,
                                 std::span<const double> significances,
                                 std::span<const std::size_t> ends,
                                 double total_sig) {
  assert(values.size() == significances.size());
#ifndef NDEBUG
  for (std::size_t i = 1; i < values.size(); ++i) {
    assert(!(values[i] < values[i - 1]) &&
           "BucketSet::from_sorted: records must be value-sorted");
  }
#endif
  return build(values, significances, ends, total_sig);
}

BucketSet BucketSet::build(std::span<const double> values,
                           std::span<const double> significances,
                           std::span<const std::size_t> ends,
                           double total_sig) {
  if (values.empty()) throw std::invalid_argument("BucketSet: no records");
  if (ends.empty() || ends.back() != values.size() - 1) {
    throw std::invalid_argument(
        "BucketSet: break list must end at the last record index");
  }
  if (!(total_sig > 0.0)) {
    throw std::invalid_argument("BucketSet: total significance must be > 0");
  }

  BucketSet set;
  set.buckets_.reserve(ends.size());
  std::size_t begin = 0;
  std::size_t prev_end = 0;
  bool first = true;
  for (std::size_t end : ends) {
    if (!first && end <= prev_end) {
      throw std::invalid_argument("BucketSet: ends must be strictly increasing");
    }
    if (end >= values.size()) {
      throw std::invalid_argument("BucketSet: end index out of range");
    }
    Bucket b;
    b.begin = begin;
    b.end = end;
    double vsig = 0.0;
    for (std::size_t i = begin; i <= end; ++i) {
      b.sig_sum += significances[i];
      vsig += values[i] * significances[i];
    }
    b.rep = values[end];  // records are sorted, so the end is the max
    b.prob = b.sig_sum / total_sig;
    b.weighted_mean = b.sig_sum > 0.0 ? vsig / b.sig_sum : values[end];
    set.buckets_.push_back(b);
    begin = end + 1;
    prev_end = end;
    first = false;
  }
  set.finalize();
  return set;
}

void BucketSet::finalize() {
  const std::size_t n = buckets_.size();
  reps_.resize(n);
  cum_probs_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    reps_[i] = buckets_[i].rep;
    acc += buckets_[i].prob;
    cum_probs_[i] = acc;
  }
  // Suffix partial-sum rows for sample_above. Row f repeats exactly the
  // forward accumulation the linear scan performs over buckets [f, n), so
  // binary-searching a row lands on the bit-identical bucket.
  if (n <= kSampleTableMaxBuckets) {
    tri_.resize(n * (n + 1) / 2);
    tri_row_offsets_.resize(n);
    std::size_t off = 0;
    for (std::size_t f = 0; f < n; ++f) {
      tri_row_offsets_[f] = off;
      double row_acc = 0.0;
      for (std::size_t j = f; j < n; ++j) {
        row_acc += buckets_[j].prob;
        tri_[off++] = row_acc;
      }
    }
  } else {
    tri_.clear();
    tri_row_offsets_.clear();
  }
}

std::size_t BucketSet::index_for(double u) const {
  if (buckets_.empty()) throw std::logic_error("BucketSet: empty");
  // First bucket whose cumulative probability exceeds u — the same bucket
  // the original accumulate-and-compare loop (acc += prob; u < acc) chose.
  const auto it = std::upper_bound(cum_probs_.begin(), cum_probs_.end(), u);
  if (it == cum_probs_.end()) {
    return buckets_.size() - 1;  // floating-point slack: the top bucket
  }
  return static_cast<std::size_t>(it - cum_probs_.begin());
}

std::size_t BucketSet::sample_index(util::Rng& rng) const {
  if (buckets_.empty()) throw std::logic_error("BucketSet: empty");
  return index_for(rng.uniform01());
}

double BucketSet::sample_allocation(util::Rng& rng) const {
  return buckets_[sample_index(rng)].rep;
}

std::optional<double> BucketSet::sample_above(double failed_alloc,
                                              util::Rng& rng) const {
  const std::size_t n = buckets_.size();
  if (tri_row_offsets_.size() != n) {
    // Oversized set: original linear scans (identical arithmetic).
    double total = 0.0;
    for (const Bucket& b : buckets_) {
      if (b.rep > failed_alloc) total += b.prob;
    }
    if (!(total > 0.0)) return std::nullopt;
    const double u = rng.uniform01() * total;
    double acc = 0.0;
    for (const Bucket& b : buckets_) {
      if (b.rep <= failed_alloc) continue;
      acc += b.prob;
      if (u < acc) return b.rep;
    }
    for (auto it = buckets_.rbegin(); it != buckets_.rend(); ++it) {
      if (it->rep > failed_alloc) return it->rep;
    }
    return std::nullopt;
  }

  if (n == 0) return std::nullopt;
  // Reps are non-decreasing, so the eligible buckets (rep > failed_alloc)
  // are exactly the suffix starting at the first rep above the failure.
  const std::size_t f = static_cast<std::size_t>(
      std::upper_bound(reps_.begin(), reps_.end(), failed_alloc) -
      reps_.begin());
  if (f == n) return std::nullopt;
  const auto row_begin = tri_.begin() +
                         static_cast<std::ptrdiff_t>(tri_row_offsets_[f]);
  const auto row_end = row_begin + static_cast<std::ptrdiff_t>(n - f);
  const double total = *(row_end - 1);
  if (!(total > 0.0)) return std::nullopt;
  const double u = rng.uniform01() * total;
  const auto it = std::upper_bound(row_begin, row_end, u);
  if (it != row_end) {
    return buckets_[f + static_cast<std::size_t>(it - row_begin)].rep;
  }
  // Floating-point slack: the highest eligible rep (the top bucket — its
  // rep is >= reps_[f] > failed_alloc).
  return buckets_[n - 1].rep;
}

double BucketSet::max_rep() const {
  if (buckets_.empty()) throw std::logic_error("BucketSet: empty");
  return buckets_.back().rep;
}

double expected_waste(const BucketSet& set) {
  return expected_waste(std::span<const Bucket>(set.buckets()));
}

double expected_waste(std::span<const Bucket> b) {
  const std::size_t n = b.size();
  if (n == 0) throw std::invalid_argument("expected_waste: empty bucket set");

  // T[i][j]: expected waste when the next task's consumption falls in bucket
  // i but bucket j is chosen for its first allocation (paper §IV-C).
  //   i <= j: the allocation rep_j covers the task -> waste rep_j - v_i.
  //   i >  j: rep_j is exhausted entirely (failed allocation), then a higher
  //           bucket k > j is chosen with renormalized probability.
  // Rows are independent; each row is filled right-to-left because T[i][j]
  // for j < i depends on T[i][k] with k > j. The total is accumulated row
  // by row in (i, j) order, so one row buffer suffices.
  thread_local std::vector<double> scratch;
  scratch.resize(2 * n + 1);
  double* const t = scratch.data();
  // Suffix probability sums: suffix[j] = sum_{m >= j} prob_m.
  double* const suffix = t + n;
  suffix[n] = 0.0;
  for (std::size_t j = n; j-- > 0;) suffix[j] = suffix[j + 1] + b[j].prob;

  double w = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t jj = n; jj-- > 0;) {
      if (i <= jj) {
        t[jj] = b[jj].rep - b[i].weighted_mean;
      } else {
        double escalated = 0.0;
        const double denom = suffix[jj + 1];
        if (denom > 0.0) {
          for (std::size_t k = jj + 1; k < n; ++k) {
            escalated += (b[k].prob / denom) * t[k];
          }
        }
        t[jj] = b[jj].rep + escalated;
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      w += b[i].prob * b[j].prob * t[j];
    }
  }
  return w;
}

}  // namespace tora::core
