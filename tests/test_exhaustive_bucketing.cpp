#include "core/exhaustive_bucketing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/bucket.hpp"

namespace {

using tora::core::Bucket;
using tora::core::BucketSet;
using tora::core::ExhaustiveBucketing;
using tora::core::expected_waste;
using tora::core::Record;
using tora::util::Rng;

std::vector<Record> uniform_records(std::initializer_list<double> values) {
  std::vector<Record> r;
  for (double v : values) r.push_back({v, 1.0});
  return r;
}

TEST(EvenSpacingEnds, SingleBucketIsWholeRange) {
  const auto recs = uniform_records({1.0, 2.0, 3.0});
  const auto ends = ExhaustiveBucketing::even_spacing_ends(recs, 1);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0], 2u);
}

TEST(EvenSpacingEnds, TwoBucketsCutAtHalfMax) {
  // v_max = 10, cut at 5: the closest record strictly below 5 is index 1.
  const auto recs = uniform_records({2.0, 4.0, 6.0, 10.0});
  const auto ends = ExhaustiveBucketing::even_spacing_ends(recs, 2);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], 1u);
  EXPECT_EQ(ends[1], 3u);
}

TEST(EvenSpacingEnds, CutBelowSmallestRecordIsDropped) {
  // v_max = 100; 4-bucket cuts at 25/50/75 all fall below... here 25 falls
  // below the smallest record 30? No: 25 < 30, so the first cut maps to
  // nothing and is dropped.
  const auto recs = uniform_records({30.0, 60.0, 100.0});
  const auto ends = ExhaustiveBucketing::even_spacing_ends(recs, 4);
  // cuts 25 (dropped), 50 -> idx 0 (30 < 50), 75 -> idx 1 (60 < 75).
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_EQ(ends[0], 0u);
  EXPECT_EQ(ends[1], 1u);
  EXPECT_EQ(ends[2], 2u);
}

TEST(EvenSpacingEnds, DuplicateMappingsDeduped) {
  // Many cuts collapsing onto the same record index must dedupe.
  const auto recs = uniform_records({1.0, 100.0});
  const auto ends = ExhaustiveBucketing::even_spacing_ends(recs, 8);
  // Every cut in (1, 100) maps to index 0.
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_EQ(ends[0], 0u);
  EXPECT_EQ(ends[1], 1u);
}

TEST(EvenSpacingEnds, AllZeroValuesSingleBucket) {
  const auto recs = uniform_records({0.0, 0.0, 0.0});
  const auto ends = ExhaustiveBucketing::even_spacing_ends(recs, 5);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0], 2u);
}

TEST(ExhaustiveBucketing, RejectsZeroMaxBuckets) {
  EXPECT_THROW(ExhaustiveBucketing(Rng(1), 0), std::invalid_argument);
}

TEST(ExhaustiveBucketing, SingleRecord) {
  ExhaustiveBucketing eb{Rng(2)};
  eb.observe(7.0, 1.0);
  EXPECT_DOUBLE_EQ(eb.predict(), 7.0);
  EXPECT_EQ(eb.buckets().size(), 1u);
}

TEST(ExhaustiveBucketing, BimodalSplitsIntoTwoBuckets) {
  ExhaustiveBucketing eb{Rng(3)};
  for (double v : {10.0, 10.5, 11.0, 11.5, 90.0, 90.5, 91.0, 91.5}) {
    eb.observe(v, 1.0);
  }
  const auto& set = eb.buckets();
  ASSERT_GE(set.size(), 2u);
  EXPECT_DOUBLE_EQ(set.buckets()[0].rep, 11.5);
  EXPECT_DOUBLE_EQ(set.buckets().back().rep, 91.5);
}

TEST(ExhaustiveBucketing, ChoosesMinimumCostConfiguration) {
  ExhaustiveBucketing eb{Rng(4)};
  const auto recs =
      uniform_records({1.0, 1.2, 1.4, 50.0, 50.2, 99.0, 99.5, 100.0});
  for (const Record& r : recs) eb.observe(r.value, r.significance);
  const auto& chosen = eb.buckets();
  const double chosen_cost = expected_waste(chosen);
  // The chosen configuration must be no worse than every candidate the
  // algorithm is defined to consider.
  for (std::size_t b = 1; b <= 8; ++b) {
    const auto ends = ExhaustiveBucketing::even_spacing_ends(recs, b);
    const auto set = BucketSet::from_break_indices(recs, ends);
    EXPECT_LE(chosen_cost, expected_waste(set) + 1e-9);
  }
}

TEST(ExhaustiveBucketing, RespectsMaxBucketCap) {
  ExhaustiveBucketing eb{Rng(5), 3};
  for (int i = 0; i < 50; ++i) eb.observe(i * 10.0 + 1.0, 1.0);
  EXPECT_LE(eb.buckets().size(), 3u);
}

TEST(ExhaustiveBucketing, DefaultCapIsTen) {
  ExhaustiveBucketing eb{Rng(6)};
  EXPECT_EQ(eb.max_buckets(), 10u);
  for (int i = 0; i < 200; ++i) eb.observe(i * 7.0 + 1.0, 1.0);
  EXPECT_LE(eb.buckets().size(), 10u);
}

TEST(ExhaustiveBucketing, RetryEscalation) {
  ExhaustiveBucketing eb{Rng(7)};
  for (double v : {10.0, 10.5, 90.0, 91.0}) eb.observe(v, 1.0);
  for (int i = 0; i < 50; ++i) {
    const double r = eb.retry(10.5);
    EXPECT_GT(r, 10.5);
  }
  EXPECT_DOUBLE_EQ(eb.retry(91.0), 182.0);
}

TEST(ExhaustiveBucketing, IdenticalValuesOneBucket) {
  ExhaustiveBucketing eb{Rng(8)};
  for (int i = 0; i < 20; ++i) eb.observe(306.0, i + 1.0);
  ASSERT_EQ(eb.buckets().size(), 1u);
  EXPECT_DOUBLE_EQ(eb.predict(), 306.0);
}

TEST(ExhaustiveBucketing, PhaseChangeShiftsProbability) {
  ExhaustiveBucketing eb{Rng(9)};
  double sig = 1.0;
  for (int i = 0; i < 30; ++i) eb.observe(100.0, sig++);
  for (int i = 0; i < 30; ++i) eb.observe(1000.0, sig++);
  const auto& set = eb.buckets();
  ASSERT_GE(set.size(), 2u);
  // Later (heavier) records dominate the top bucket's probability.
  EXPECT_GT(set.buckets().back().prob, 0.55);
}

TEST(ExhaustiveBucketing, CostNotWorseThanGreedySingleBucketOnClusters) {
  // Sanity link between the two algorithms' cost models: on well-separated
  // clusters EB must pick a multi-bucket config cheaper than one bucket.
  ExhaustiveBucketing eb{Rng(10)};
  std::vector<Record> recs;
  for (double v : {1.0, 1.1, 1.2, 200.0, 200.1, 200.2}) {
    recs.push_back({v, 1.0});
    eb.observe(v, 1.0);
  }
  const auto one = BucketSet::from_break_indices(recs, std::vector<std::size_t>{5});
  EXPECT_LT(expected_waste(eb.buckets()), expected_waste(one));
}

// ---------------------------------------------------------------------------
// Independent oracle for the candidate selection. The policy scores
// candidates from prefix sums and re-scores near-ties exactly; this copy
// builds and scores every candidate with forward scans and a nested-vector
// cost table, so an argmin, tie-rule or cost change shows up as a different
// configuration or draw.

double reference_waste(const std::vector<Bucket>& b) {
  const std::size_t n = b.size();
  std::vector<std::vector<double>> t(n, std::vector<double>(n, 0.0));
  std::vector<double> suffix(n + 1, 0.0);
  for (std::size_t j = n; j-- > 0;) suffix[j] = suffix[j + 1] + b[j].prob;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t jj = n; jj-- > 0;) {
      if (i <= jj) {
        t[i][jj] = b[jj].rep - b[i].weighted_mean;
      } else {
        double escalated = 0.0;
        const double denom = suffix[jj + 1];
        if (denom > 0.0) {
          for (std::size_t k = jj + 1; k < n; ++k) {
            escalated += (b[k].prob / denom) * t[i][k];
          }
        }
        t[i][jj] = b[jj].rep + escalated;
      }
    }
  }
  double w = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) w += b[i].prob * b[j].prob * t[i][j];
  }
  return w;
}

/// Per-candidate forward-scan selection: every b in order, strict <.
std::vector<std::size_t> reference_ends(const std::vector<Record>& sorted,
                                        std::size_t max_buckets) {
  std::vector<double> values;
  for (const Record& r : sorted) values.push_back(r.value);
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_ends{sorted.size() - 1};
  for (std::size_t b = 1; b <= std::min(max_buckets, sorted.size()); ++b) {
    auto ends = ExhaustiveBucketing::even_spacing_ends(
        std::span<const double>(values), b);
    const double cost = reference_waste(
        BucketSet::from_break_indices(sorted, ends).buckets());
    if (cost < best_cost) {
      best_cost = cost;
      best_ends = std::move(ends);
    }
  }
  return best_ends;
}

void insert_upper_bound(std::vector<Record>& sorted, const Record& r) {
  const auto pos = std::upper_bound(
      sorted.begin(), sorted.end(), r.value,
      [](double v, const Record& x) { return v < x.value; });
  sorted.insert(pos, r);
}

enum class Shape { IntegerTies, WideRange, UnevenSignificance };

Record draw_record(Shape shape, Rng& rng) {
  switch (shape) {
    case Shape::IntegerTies:  // few distinct values, integer significances
      return {std::floor(rng.uniform(1.0, 9.0)),
              std::floor(rng.uniform(1.0, 4.0))};
    case Shape::WideRange:  // values spanning 1e-3 .. 1e9
      return {std::pow(10.0, rng.uniform(-3.0, 9.0)), rng.uniform(0.0, 1.0)};
    case Shape::UnevenSignificance: {  // zeros and 12 decades of weight
      const double sig = rng.uniform01() < 0.1
                             ? 0.0
                             : std::pow(10.0, rng.uniform(-6.0, 6.0));
      return {rng.uniform(0.5, 4096.0), sig};
    }
  }
  return {};
}

/// Feeds `arrivals` to `eb` in random chunks; after each chunk the policy's
/// bucket set, its cost and a few predict/retry draws must equal the
/// oracle's bitwise. `ref_rng` shadows the policy's sampler.
void expect_matches_oracle(ExhaustiveBucketing& eb, Rng ref_rng,
                           const std::vector<Record>& arrivals,
                           std::uint64_t seed) {
  std::vector<Record> sorted;
  Rng chunks(seed ^ 0x5eedu);
  std::size_t next = 0;
  while (next < arrivals.size()) {
    const auto left = static_cast<double>(arrivals.size() - next);
    const std::size_t take = std::max<std::size_t>(
        1, static_cast<std::size_t>(chunks.uniform01() * left));
    for (std::size_t i = 0; i < take; ++i, ++next) {
      eb.observe(arrivals[next].value, arrivals[next].significance);
      insert_upper_bound(sorted, arrivals[next]);
    }
    const auto want = BucketSet::from_break_indices(
        sorted, reference_ends(sorted, eb.max_buckets()));
    const BucketSet& got = eb.buckets();
    ASSERT_EQ(got.size(), want.size()) << "n=" << sorted.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
      const Bucket& g = got.buckets()[i];
      const Bucket& w = want.buckets()[i];
      ASSERT_EQ(g.begin, w.begin) << "n=" << sorted.size() << " bucket " << i;
      ASSERT_EQ(g.end, w.end) << "n=" << sorted.size() << " bucket " << i;
      ASSERT_EQ(g.rep, w.rep);  // bitwise, like every field below
      ASSERT_EQ(g.prob, w.prob);
      ASSERT_EQ(g.weighted_mean, w.weighted_mean);
      ASSERT_EQ(g.sig_sum, w.sig_sum);
    }
    ASSERT_EQ(expected_waste(got), reference_waste(want.buckets()));
    for (int d = 0; d < 3; ++d) {
      ASSERT_EQ(eb.predict(), want.sample_allocation(ref_rng));
      const double failed = sorted[static_cast<std::size_t>(d) *
                                   (sorted.size() - 1) / 2].value;
      const std::optional<double> above = want.sample_above(failed, ref_rng);
      const double retried = eb.retry(failed);
      if (above) ASSERT_EQ(retried, *above);
    }
  }
}

TEST(ExhaustiveOracle, MatchesPerCandidateSelectionOnRandomHistories) {
  Rng gen(20240521);
  std::size_t rebuilds = 0;
  std::size_t rescores = 0;
  for (std::uint64_t c = 0; c < 90; ++c) {
    const auto shape = static_cast<Shape>(c % 3);
    // n log-uniform over 1..3000, max_buckets over 1..12.
    const auto n = static_cast<std::size_t>(
        std::pow(3000.0, gen.uniform01()));
    const auto max_buckets = 1 + static_cast<std::size_t>(c * 7 % 12);
    std::vector<Record> arrivals;
    for (std::size_t i = 0; i < std::max<std::size_t>(n, 1); ++i) {
      arrivals.push_back(draw_record(shape, gen));
    }
    if (arrivals[0].significance == 0.0) arrivals[0].significance = 1.0;
    const std::uint64_t sampler_seed = 1000 + c;
    ExhaustiveBucketing eb{Rng(sampler_seed), max_buckets};
    expect_matches_oracle(eb, Rng(sampler_seed), arrivals, c);
    if (HasFatalFailure()) {
      FAIL() << "case " << c << " (shape " << static_cast<int>(shape)
             << ", n " << arrivals.size() << ", max_buckets " << max_buckets
             << ")";
    }
    rebuilds += eb.rebuild_count();
    rescores += eb.exact_rescore_count();
  }
  // The sweep must exercise the prefix-only fast path, not just the
  // exact fallback.
  EXPECT_LT(rescores, rebuilds);
}

TEST(ExhaustiveOracle, ZeroTotalSignificanceStillThrows) {
  // Every prefix-derived probability is NaN here; the exact path must run
  // and reject the history exactly as the forward-scan construction does.
  ExhaustiveBucketing eb{Rng(4)};
  for (double v : {1.0, 5.0, 9.0}) eb.observe(v, 0.0);
  EXPECT_THROW(eb.predict(), std::invalid_argument);
}

TEST(ExhaustiveOracle, ExactTieKeepsTheSmallestBucketCount) {
  // b = 3 adds a bucket holding only the zero-significance record 17 to
  // b = 2's configuration; a zero-probability bucket changes no term of the
  // cost, so both configurations cost bitwise the same. The two distinct
  // candidates tie within the rounding window, the exact re-score runs, and
  // its strict < must keep b = 2 as the forward-scan selection does.
  ExhaustiveBucketing eb{Rng(6), 3};
  std::vector<Record> arrivals;
  for (double v = 1.0; v <= 9.0; v += 1.0) arrivals.push_back({v, 1.0});
  arrivals.push_back({17.0, 0.0});
  for (double v = 25.0; v <= 30.0; v += 1.0) arrivals.push_back({v, 1.0});
  expect_matches_oracle(eb, Rng(6), arrivals, 11);
  EXPECT_EQ(eb.buckets().size(), 2u);
  EXPECT_GT(eb.exact_rescore_count(), 0u);
}

TEST(ExhaustiveOracle, PrefixRoundingFlipIsResolvedExactly) {
  // The low records' 1e16-scale significances absorb the upper records'
  // weights in the prefix sums, so prefix-derived costs rank b = 6 (ends
  // 1,3,4,6,8) a few ulps below b = 5 (ends 1,3,6,8) while the forward
  // scans rank b = 5 first. Only the exact re-score of the rounding window
  // recovers the reference selection.
  const std::vector<Record> arrivals{
      {38.0, 2.0}, {1.75, 2e16}, {62.0, 2.0}, {17.0, 3.0}, {29.0, 2.0},
      {1.875, 2e12}, {70.0, 2.0}, {14.0, 2.0}, {38.0, 1.0}};
  ExhaustiveBucketing eb{Rng(8), 10};
  expect_matches_oracle(eb, Rng(8), arrivals, 0);
  EXPECT_EQ(eb.buckets().size(), 4u);
  EXPECT_GT(eb.exact_rescore_count(), 0u);
}

TEST(ExhaustiveOracle, SubnormalSignificancesDriveTheExactFallback) {
  // With every significance at the smallest subnormal, value·significance
  // products underflow, so the prefix-derived means are coarse and the
  // rounding bound's underflow term opens the window over every candidate.
  // The exact re-score must still pick the reference configuration.
  Rng gen(77);
  std::vector<Record> arrivals;
  for (int i = 0; i < 400; ++i) {
    arrivals.push_back({std::floor(gen.uniform(1.0, 50.0)) + 0.25,
                        std::numeric_limits<double>::denorm_min()});
  }
  ExhaustiveBucketing eb{Rng(5), 10};
  expect_matches_oracle(eb, Rng(5), arrivals, 3);
  EXPECT_GT(eb.exact_rescore_count(), 0u);
}

}  // namespace
