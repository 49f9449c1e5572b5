#include "core/exhaustive_bucketing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tora::core {

ExhaustiveBucketing::ExhaustiveBucketing(util::Rng rng,
                                         std::size_t max_buckets)
    : BucketingPolicy(rng), max_buckets_(max_buckets) {
  if (max_buckets_ == 0) {
    throw std::invalid_argument("ExhaustiveBucketing: max_buckets must be >= 1");
  }
}

std::vector<std::size_t> ExhaustiveBucketing::even_spacing_ends(
    std::span<const double> values, std::size_t num_buckets) {
  const std::size_t n = values.size();
  const double v_max = values.back();
  std::vector<std::size_t> ends;
  for (std::size_t i = 1; i < num_buckets; ++i) {
    const double cut =
        v_max * static_cast<double>(i) / static_cast<double>(num_buckets);
    // "Map its value to the closest record that has a lower value than it":
    // the last index whose value is strictly below the cut. Candidates below
    // the smallest record map to nothing and are dropped.
    const auto it = std::lower_bound(values.begin(), values.end(), cut);
    if (it == values.begin()) continue;
    ends.push_back(static_cast<std::size_t>(it - values.begin()) - 1);
  }
  ends.push_back(n - 1);
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  return ends;
}

std::vector<std::size_t> ExhaustiveBucketing::even_spacing_ends(
    std::span<const Record> sorted, std::size_t num_buckets) {
  std::vector<double> values;
  values.reserve(sorted.size());
  for (const Record& r : sorted) values.push_back(r.value);
  return even_spacing_ends(std::span<const double>(values), num_buckets);
}

namespace {

/// Fills `out` with the buckets of `ends` derived from the store's prefix
/// sums in O(B): rep is exact, sig_sum/prob/weighted_mean carry the prefix
/// rounding that rounding_bound() accounts for. The mean is clamped to the
/// bucket's value range, which only moves it toward the true mean.
void prefix_buckets(const SortedRecords& sorted,
                    std::span<const std::size_t> ends, double total_sig,
                    std::vector<Bucket>& out) {
  out.clear();
  std::size_t begin = 0;
  for (std::size_t end : ends) {
    Bucket b;
    b.begin = begin;
    b.end = end;
    b.rep = sorted.values[end];
    b.sig_sum = sorted.sig_prefix[end + 1] - sorted.sig_prefix[begin];
    b.prob = b.sig_sum / total_sig;
    const double vsig = sorted.vsig_prefix[end + 1] - sorted.vsig_prefix[begin];
    const double mean = b.sig_sum > 0.0 ? vsig / b.sig_sum : b.rep;
    b.weighted_mean = std::clamp(mean, sorted.values[begin], b.rep);
    out.push_back(b);
    begin = end + 1;
  }
}

/// Bound on |prefix-derived cost - forward-scan cost| for any candidate of
/// at most `max_buckets` buckets over `sorted` (derivation in the header);
/// +inf where the derivation's preconditions do not hold.
double rounding_bound(const SortedRecords& sorted, std::size_t max_buckets) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double n = static_cast<double>(sorted.size());
  const double b = static_cast<double>(max_buckets);
  const double v_max = sorted.values.back();
  const double total_sig = sorted.sig_prefix.back();
  if (!(total_sig > 0.0) || !std::isfinite(total_sig) ||
      !std::isfinite(sorted.vsig_prefix.back()) || !std::isfinite(v_max) ||
      !(v_max >= std::numeric_limits<double>::min())) {
    return kInf;
  }
  const double rel = b * b * b * (n + 1.0) *
                     std::numeric_limits<double>::epsilon();
  if (!(rel <= 0x1p-10)) return kInf;
  return 128.0 * rel * v_max +
         16.0 * b * n * std::numeric_limits<double>::denorm_min() / total_sig;
}

}  // namespace

std::vector<std::size_t> ExhaustiveBucketing::compute_break_indices(
    const SortedRecords& sorted) {
  const std::size_t n = sorted.size();
  const double total_sig = sorted.sig_prefix.back();
  const std::size_t limit = std::min(max_buckets_, n);

  // Score every distinct candidate from the prefix sums. A candidate whose
  // ends repeat an earlier one's is the same configuration with the same
  // cost, which the strict < below would never prefer, so it is skipped.
  candidates_.clear();
  costs_.clear();
  bool all_finite = true;
  std::size_t best = 0;
  for (std::size_t b = 1; b <= limit; ++b) {
    auto ends = even_spacing_ends(sorted.values, b);
    if (std::find(candidates_.begin(), candidates_.end(), ends) !=
        candidates_.end()) {
      continue;
    }
    prefix_buckets(sorted, ends, total_sig, scratch_);
    const double cost = expected_waste(std::span<const Bucket>(scratch_));
    all_finite = all_finite && std::isfinite(cost);
    if (!costs_.empty() && cost < costs_[best]) best = costs_.size();
    costs_.push_back(cost);
    candidates_.push_back(std::move(ends));
  }

  // A candidate farther than twice the bound (doubled again for the
  // rounding of the comparison) above the best cannot be the forward-scan
  // argmin. The rest are re-scored exactly, in b order with strict <, which
  // reproduces the forward-scan argmin and its first-wins tie rule.
  const double window =
      all_finite ? 4.0 * rounding_bound(sorted, limit)
                 : std::numeric_limits<double>::infinity();
  const auto contends = [&](std::size_t c) {
    return !all_finite || costs_[c] - costs_[best] <= window;
  };
  std::size_t contenders = 0;
  for (std::size_t c = 0; c < costs_.size(); ++c) contenders += contends(c);
  if (all_finite && contenders == 1) return std::move(candidates_[best]);

  ++exact_rescores_;
  double best_cost = std::numeric_limits<double>::infinity();
  std::size_t winner = 0;  // b = 1's single bucket, as before any rescoring
  for (std::size_t c = 0; c < candidates_.size(); ++c) {
    if (!contends(c)) continue;
    const double cost = expected_waste(BucketSet::from_sorted(
        sorted.values, sorted.significances, candidates_[c], total_sig));
    if (cost < best_cost) {
      best_cost = cost;
      winner = c;
    }
  }
  return std::move(candidates_[winner]);
}

}  // namespace tora::core
