#pragma once

#include <span>
#include <vector>

#include "core/bucketing_policy.hpp"

namespace tora::core {

/// Exhaustive Bucketing (paper Algorithm 2 with the §IV-D `combinations`
/// optimization).
///
/// For every bucket count b = 1 .. max_buckets it forms ONE candidate
/// configuration by spacing break values evenly over (0, v_max] —
/// candidate i sits at v_max·i/b — snapping each candidate down to the
/// closest record strictly below it, and dropping duplicates/empties. Each
/// configuration's expected waste is evaluated with the full retry-aware
/// T[i][j] cost table (expected_waste in bucket.hpp) and the cheapest
/// configuration wins; on a tie the smallest b wins.
///
/// Cost: O(B·(log n + B³)) per rebuild for B = min(max_buckets, n),
/// independent of the history size n in all but the binary searches.
/// Candidates are scored from the store's prefix sums: a bucket's sig_sum
/// and value·sig sum are prefix differences, so no candidate scans its
/// records. A candidate whose ends repeat an earlier one's is skipped.
///
/// Exactness. The winner must be the one the forward-scan costs
/// (BucketSet::from_sorted + expected_waste, the reference arithmetic)
/// would pick, bit for bit. Prefix-derived and forward-scan costs differ
/// only by rounding, bounded per candidate by
///
///   M = 128·B³·(n+1)·ε·v_max + 16·B·n·η / S
///
/// (ε = DBL_EPSILON, η = the smallest subnormal, S = total significance).
/// Derivation, to first order in u = ε/2, with p_i, wm_i the exact real
/// bucket probability and weighted mean:
///   * each prefix entry is a forward sum of non-negative terms, so a
///     prefix difference is off by ≤ (2n+1)·u·S in significance and
///     ≤ (2n+3)·u·v_max·S + 2n·η in value·significance; hence
///     |Δp_i| ≤ 2(n+1)·ε =: δ on both paths;
///   * the clamped prefix mean gives p_i·|Δwm_i| ≤ (4n+5)·ε·v_max +
///     4n·η/S (split on whether the significance difference kept half of
///     the true bucket sum), the forward mean (m_i+1)·ε·v_max;
///   * W depends on wm_i with slope −p_i·Σ_j p_j·c_ij, |c_ij| ≤ 1, so the
///     means cost ≤ 10·B·(n+1)·ε·v_max in all;
///   * in closed form (visit probability p_m/Q_m of a failed bucket m,
///     Q_m = Σ_{k≥m} p_k, and final-bucket mean R_i/Q_i) every T[i][j] is
///     in [0, B·v_max] and each p-dependent ratio is multiplied by some
///     p_i ≤ Q_m, which caps the probability part at 10·B³·δ·v_max per
///     path, 40·B³·(n+1)·ε·v_max for both;
///   * evaluating T and W in floating point adds ≤ 4·B³·ε·v_max per path.
/// The terms sum to at most 58·B³·(n+1)·ε·v_max; 128 leaves room for the
/// second-order terms while B³·(n+1)·ε ≤ 2⁻¹⁰, which is checked. The η/S
/// term covers products that underflow; v_max ≥ DBL_MIN is required so
/// that ε·v_max dominates the remaining subnormal rounding.
///
/// If c* is the forward-scan argmin and ĉ the prefix argmin, then
/// prefix(c*) ≤ exact(c*) + M ≤ exact(ĉ) + M ≤ prefix(ĉ) + 2M. So when no
/// other distinct candidate's prefix cost lies within 4M of the best, the
/// best is returned directly. Otherwise every candidate within 4M is
/// re-scored with the forward-scan arithmetic in b order with strict <,
/// which reproduces the reference argmin and tie rule exactly; so does the
/// full re-score taken when a precondition fails or a cost is not finite.
/// The policy then builds the winner once with BucketSet::from_sorted, so
/// every bucket field and draw is the reference's.
class ExhaustiveBucketing final : public BucketingPolicy {
 public:
  /// `max_buckets` bounds the configurations searched; the paper restricts
  /// it to 10 ("the number of buckets rarely exceeds 10", §V-A).
  explicit ExhaustiveBucketing(util::Rng rng, std::size_t max_buckets = 10);

  std::string name() const override { return "exhaustive_bucketing"; }
  std::size_t max_buckets() const noexcept { return max_buckets_; }

  /// The even-spacing candidate generator: bucket END indices for a
  /// `num_buckets`-way split of `sorted` (always terminated by the last
  /// index; may return fewer buckets after deduplication). Exposed for
  /// unit tests.
  static std::vector<std::size_t> even_spacing_ends(
      std::span<const Record> sorted, std::size_t num_buckets);

  /// SoA overload over the sorted value array (the engine's hot path).
  static std::vector<std::size_t> even_spacing_ends(
      std::span<const double> values, std::size_t num_buckets);

  /// Rebuilds whose candidates came within the rounding window of each
  /// other and were re-scored with the forward-scan arithmetic
  /// (instrumentation for tests and benchmarks).
  std::size_t exact_rescore_count() const noexcept { return exact_rescores_; }

 protected:
  std::vector<std::size_t> compute_break_indices(
      const SortedRecords& sorted) override;

 private:
  std::size_t max_buckets_;
  std::size_t exact_rescores_ = 0;
  // Per-rebuild scratch, kept so candidate scoring reuses its storage.
  std::vector<std::vector<std::size_t>> candidates_;
  std::vector<double> costs_;
  std::vector<Bucket> scratch_;
};

}  // namespace tora::core
