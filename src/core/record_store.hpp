#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tora::util {
class ByteWriter;
class ByteReader;
}  // namespace tora::util

namespace tora::core {

/// Structure-of-arrays view of the value-sorted record history plus its
/// running prefix sums, handed to the break-point algorithms so they never
/// re-scan the history from scratch:
///   sig_prefix[i]  = sum of significances[0, i)
///   vsig_prefix[i] = sum of values[j] * significances[j] for j in [0, i)
/// Both prefix spans have size() + 1 entries. The spans alias RecordStore
/// storage and are invalidated by the next add()/flush().
struct SortedRecords {
  std::span<const double> values;
  std::span<const double> significances;
  std::span<const double> sig_prefix;
  std::span<const double> vsig_prefix;

  std::size_t size() const noexcept { return values.size(); }
  bool empty() const noexcept { return values.empty(); }
};

/// The incremental record history behind BucketingPolicy.
///
/// add() is amortized O(1): new records accumulate in an unsorted staging
/// buffer. flush() merges the staging buffer into the main value-sorted run
/// (stable: ties keep arrival order, staged records land after existing
/// equal values — exactly the order repeated upper_bound insertion would
/// produce) and extends the prefix sums from the first position the merge
/// changed. Sorted views are only valid for the merged run, so callers
/// flush() before reading.
class RecordStore {
 public:
  /// Appends one record to the staging buffer. O(1) amortized.
  void add(double value, double significance);

  /// Merges staged records into the sorted run in place and extends the
  /// prefix sums. O(s log s + Δ) for s staged records, where Δ is the
  /// length of the run from the first merged record to the end: the merge
  /// runs backward from the grown end, so records below every staged value
  /// never move. No-op when nothing is staged.
  void flush();

  bool empty() const noexcept {
    return values_.empty() && stage_values_.empty();
  }
  /// Total records observed (merged + staged).
  std::size_t size() const noexcept {
    return values_.size() + stage_values_.size();
  }
  std::size_t merged_count() const noexcept { return values_.size(); }
  std::size_t staged_count() const noexcept { return stage_values_.size(); }
  bool has_staged() const noexcept { return !stage_values_.empty(); }

  /// Views over the merged sorted run (call flush() first to cover staged
  /// records). Invalidated by add()/flush().
  SortedRecords sorted() const noexcept {
    return {values_, sigs_, sig_prefix_, vsig_prefix_};
  }
  std::span<const double> values() const noexcept { return values_; }
  std::span<const double> significances() const noexcept { return sigs_; }

  /// Total significance of the merged run: the last prefix entry, which is
  /// bit-identical to a forward sequential sum over the sorted records.
  double total_significance() const noexcept { return sig_prefix_.back(); }

  /// Bit-exact serialization: merged run then staging buffer, each as a
  /// u64 count followed by (value, significance) f64 pairs. load() rebuilds
  /// the prefix sums with a forward sequential sum, which is bit-identical
  /// to the incremental extension (see flush()).
  void save(util::ByteWriter& w) const;
  void load(util::ByteReader& r);

 private:
  std::vector<double> values_;  // merged run, sorted ascending by value
  std::vector<double> sigs_;    // parallel to values_
  std::vector<double> sig_prefix_{0.0};
  std::vector<double> vsig_prefix_{0.0};
  std::vector<double> stage_values_;
  std::vector<double> stage_sigs_;
  std::vector<std::size_t> stage_order_;  // reused sort permutation
};

}  // namespace tora::core
