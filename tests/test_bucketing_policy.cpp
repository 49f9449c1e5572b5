// Tests for the shared BucketingPolicy base class (record management, lazy
// rebuilds, the predict/retry protocol) independent of any concrete
// break-point algorithm.

#include "core/bucketing_policy.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace {

using tora::core::BucketingPolicy;
using tora::core::Record;
using tora::util::Rng;

/// Minimal concrete policy: singleton buckets (every record its own
/// bucket), which makes the probabilistic machinery fully observable.
class SingletonBuckets final : public BucketingPolicy {
 public:
  explicit SingletonBuckets(Rng rng) : BucketingPolicy(rng) {}
  std::string name() const override { return "singleton"; }

 protected:
  std::vector<std::size_t> compute_break_indices(
      const tora::core::SortedRecords& sorted) override {
    std::vector<std::size_t> ends;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (i + 1 == sorted.size() ||
          sorted.values[i + 1] != sorted.values[i]) {
        ends.push_back(i);
      }
    }
    return ends;
  }
};

TEST(BucketingPolicyBase, TiesKeepInsertionOrder) {
  SingletonBuckets p{Rng(1)};
  p.observe(5.0, 1.0);
  p.observe(5.0, 2.0);
  p.observe(3.0, 3.0);
  p.observe(5.0, 4.0);
  const auto& recs = p.records();
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_DOUBLE_EQ(recs[0].value, 3.0);
  // Equal values in arrival order: significances 1, 2, 4.
  EXPECT_DOUBLE_EQ(recs[1].significance, 1.0);
  EXPECT_DOUBLE_EQ(recs[2].significance, 2.0);
  EXPECT_DOUBLE_EQ(recs[3].significance, 4.0);
}

TEST(BucketingPolicyBase, PredictSamplesBySignificanceShare) {
  SingletonBuckets p{Rng(2)};
  p.observe(10.0, 9.0);
  p.observe(100.0, 1.0);
  int low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (p.predict() == 10.0) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.9, 0.01);
}

TEST(BucketingPolicyBase, RetryWithNoRecordsDoubles) {
  SingletonBuckets p{Rng(3)};
  EXPECT_DOUBLE_EQ(p.retry(8.0), 16.0);
  EXPECT_DOUBLE_EQ(p.retry(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.retry(-4.0), 1.0);  // degenerate input still grows
}

TEST(BucketingPolicyBase, BucketsBeforeRecordsThrows) {
  SingletonBuckets p{Rng(4)};
  EXPECT_THROW(p.buckets(), std::logic_error);
}

TEST(BucketingPolicyBase, RebuildOnlyWhenDirty) {
  SingletonBuckets p{Rng(5)};
  p.observe(1.0, 1.0);
  (void)p.buckets();
  (void)p.predict();
  (void)p.retry(0.5);
  EXPECT_EQ(p.rebuild_count(), 1u);
  p.observe(2.0, 2.0);
  EXPECT_EQ(p.rebuild_count(), 1u);  // lazy: nothing rebuilt yet
  (void)p.retry(1.0);                // retry also forces the rebuild
  EXPECT_EQ(p.rebuild_count(), 2u);
}

TEST(BucketingPolicyBase, RetryPrefersBucketsStrictlyAbove) {
  SingletonBuckets p{Rng(6)};
  for (double v : {1.0, 2.0, 3.0}) p.observe(v, 1.0);
  for (int i = 0; i < 200; ++i) {
    const double r = p.retry(2.0);
    EXPECT_DOUBLE_EQ(r, 3.0);  // the only bucket above 2
  }
}

TEST(BucketingPolicyBase, ZeroSignificanceRecordsRejectedByBucketSet) {
  // All-zero significance cannot form probabilities; the base class surfaces
  // the invariant violation instead of dividing by zero.
  SingletonBuckets p{Rng(7)};
  p.observe(1.0, 0.0);
  EXPECT_THROW(p.buckets(), std::invalid_argument);
}

TEST(BucketingPolicyBase, NonFiniteObservationsRejected) {
  // A NaN or infinite peak would sort to the top of the history and turn
  // the top bucket's rep into inf; reject it before it is stored.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  SingletonBuckets p{Rng(7)};
  EXPECT_THROW(p.observe(nan, 1.0), std::invalid_argument);
  EXPECT_THROW(p.observe(inf, 1.0), std::invalid_argument);
  EXPECT_THROW(p.observe(1.0, nan), std::invalid_argument);
  EXPECT_THROW(p.observe(1.0, inf), std::invalid_argument);
  EXPECT_EQ(p.record_count(), 0u);
  p.observe(4.0, 1.0);
  EXPECT_EQ(p.predict(), 4.0);
}

TEST(BucketingPolicyBase, MixedZeroAndPositiveSignificanceWorks) {
  SingletonBuckets p{Rng(8)};
  p.observe(1.0, 0.0);  // e.g. a bootstrap record the caller discounts fully
  p.observe(2.0, 1.0);
  const auto& set = p.buckets();
  ASSERT_EQ(set.size(), 2u);
  EXPECT_DOUBLE_EQ(set.buckets()[0].prob, 0.0);
  EXPECT_DOUBLE_EQ(set.buckets()[1].prob, 1.0);
  // Zero-probability buckets are never sampled.
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(p.predict(), 2.0);
}

TEST(BucketingPolicyBase, LargeStreamStaysSorted) {
  SingletonBuckets p{Rng(9)};
  Rng values(10);
  for (int i = 0; i < 500; ++i) {
    p.observe(values.uniform(0.0, 1000.0), i + 1.0);
  }
  const auto& recs = p.records();
  for (std::size_t i = 1; i < recs.size(); ++i) {
    ASSERT_LE(recs[i - 1].value, recs[i].value);
  }
  EXPECT_EQ(p.record_count(), 500u);
  // The SoA views agree with the materialized records.
  const auto vals = p.values();
  const auto sigs = p.significances();
  ASSERT_EQ(vals.size(), 500u);
  ASSERT_EQ(sigs.size(), 500u);
  for (std::size_t i = 0; i < vals.size(); ++i) {
    EXPECT_DOUBLE_EQ(vals[i], recs[i].value);
    EXPECT_DOUBLE_EQ(sigs[i], recs[i].significance);
  }
}

TEST(BucketingPolicyBase, RetryDoublingClampedAtCapacity) {
  SingletonBuckets p{Rng(11)};
  for (double v : {1.0, 2.0, 3.0}) p.observe(v, 1.0);
  p.set_retry_capacity(5.0);
  // No bucket exceeds 3.0, so retry escalates by doubling — clamped to the
  // configured worker capacity while it still exceeds the failure.
  EXPECT_DOUBLE_EQ(p.retry(3.0), 5.0);   // 6.0 clamped to 5.0
  EXPECT_DOUBLE_EQ(p.retry(4.0), 5.0);   // 8.0 clamped to 5.0
  // At or beyond capacity the clamp would stall the chain; the unclamped
  // doubling keeps the strictly-greater contract.
  EXPECT_DOUBLE_EQ(p.retry(5.0), 10.0);
  EXPECT_DOUBLE_EQ(p.retry(8.0), 16.0);
}

TEST(BucketingPolicyBase, RetryCapacityDefaultsToUnclamped) {
  SingletonBuckets p{Rng(12)};
  p.observe(3.0, 1.0);
  EXPECT_DOUBLE_EQ(p.retry(123456.0), 246912.0);
}

TEST(BucketingPolicyBase, ScheduledRebuildsAmortize) {
  SingletonBuckets p{Rng(13)};
  // growth = 0.5: after a rebuild at history size n, the next one is due
  // once the history roughly doubles.
  p.set_rebuild_schedule({0.5});
  for (int i = 1; i <= 8; ++i) p.observe(static_cast<double>(i), 1.0);
  (void)p.buckets();
  EXPECT_EQ(p.rebuild_count(), 1u);
  for (int i = 9; i <= 14; ++i) {
    p.observe(static_cast<double>(i), 1.0);
    (void)p.predict();
  }
  EXPECT_EQ(p.rebuild_count(), 1u);  // predictions served the stale set
  EXPECT_EQ(p.staged_count(), 6u);
  p.observe(15.0, 1.0);  // epoch boundary: the history has ~doubled
  (void)p.predict();
  EXPECT_EQ(p.rebuild_count(), 2u);
  EXPECT_EQ(p.staged_count(), 0u);
}

TEST(BucketingPolicyBase, RetryRebuildsExactlyOnDemand) {
  SingletonBuckets p{Rng(14)};
  p.set_rebuild_schedule({1.0});
  for (double v : {1.0, 2.0, 3.0}) p.observe(v, 1.0);
  (void)p.buckets();
  const std::size_t built = p.rebuild_count();
  p.observe(10.0, 1.0);  // mid-epoch: predict would serve stale buckets
  // retry() must see the full history — the new top bucket at 10.
  for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(p.retry(3.0), 10.0);
  EXPECT_EQ(p.rebuild_count(), built + 1);
}

TEST(BucketingPolicyBase, FreshBucketsForcesMerge) {
  SingletonBuckets p{Rng(15)};
  p.set_rebuild_schedule({1.0});
  p.observe(1.0, 1.0);
  (void)p.buckets();
  p.observe(2.0, 1.0);  // staged, not due
  EXPECT_EQ(p.buckets().size(), 1u);        // scheduled view lags
  EXPECT_EQ(p.fresh_buckets().size(), 2u);  // forced view is current
}

TEST(BucketingPolicyBase, FlushObservationsMergesWithoutRebuild) {
  SingletonBuckets p{Rng(16)};
  p.observe(1.0, 1.0);
  (void)p.buckets();
  p.observe(2.0, 1.0);
  EXPECT_EQ(p.staged_count(), 1u);
  p.flush_observations();
  EXPECT_EQ(p.staged_count(), 0u);
  EXPECT_EQ(p.rebuild_count(), 1u);  // merge only, no bucket rebuild
  // The scheduled rebuild still happens on the next use.
  (void)p.predict();
  EXPECT_EQ(p.rebuild_count(), 2u);
}

}  // namespace
