// The dispatch pass's "no worker fits" memo (core/lifecycle/no_fit_memo):
// unit coverage of the dominance antichain, and differential tests that
// drive the memo exactly as each runtime's placer does — consulted before
// the scan, recorded only on a genuine "does not fit" — against an
// unmemoized brute-force scan of the same workers. Every probe must return
// the same worker (or none), and in the protocol registry the same
// backpressure deferral, across heterogeneous and draining sim pools under
// every placement policy and backpressured registries with reliability
// scoring on.

#include "core/lifecycle/no_fit_memo.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "core/resilience/resilience.hpp"
#include "proto/manager.hpp"
#include "sim/worker_pool.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::lifecycle::NoFitMemo;
using tora::util::Rng;

// ------------------------------------------------------------- unit

TEST(NoFitMemo, RefusesOnlyAllocationsDominatingAFloor) {
  NoFitMemo memo;
  EXPECT_FALSE(memo.refuses(ResourceVector{1.0, 1.0, 1.0}));
  memo.record(ResourceVector{4.0, 1000.0, 500.0});
  EXPECT_TRUE(memo.refuses(ResourceVector{4.0, 1000.0, 500.0}));
  EXPECT_TRUE(memo.refuses(ResourceVector{8.0, 1000.0, 600.0}));
  // Smaller on any one managed dimension: the scan must run.
  EXPECT_FALSE(memo.refuses(ResourceVector{3.0, 4000.0, 4000.0}));
  EXPECT_FALSE(memo.refuses(ResourceVector{8.0, 999.0, 4000.0}));
  EXPECT_FALSE(memo.refuses(ResourceVector{8.0, 4000.0, 499.0}));
  // Wall time is not a managed dimension and never decides.
  EXPECT_TRUE(memo.refuses(ResourceVector{4.0, 1000.0, 500.0, 0.0}));
  memo.clear();
  EXPECT_FALSE(memo.refuses(ResourceVector{8.0, 1000.0, 600.0}));
}

TEST(NoFitMemo, KeepsAnAntichainOfMinimalFloors) {
  NoFitMemo memo;
  memo.record(ResourceVector{4.0, 2000.0, 100.0});
  memo.record(ResourceVector{2.0, 4000.0, 100.0});  // incomparable
  EXPECT_EQ(memo.floors(), 2u);
  // Below both: replaces them.
  memo.record(ResourceVector{2.0, 2000.0, 100.0});
  EXPECT_EQ(memo.floors(), 1u);
  EXPECT_TRUE(memo.refuses(ResourceVector{2.0, 2000.0, 100.0}));
  EXPECT_FALSE(memo.refuses(ResourceVector{1.0, 2000.0, 100.0}));
}

TEST(NoFitMemo, FullMemoStopsRecordingButStaysExact) {
  NoFitMemo memo;
  for (std::size_t i = 0; i < NoFitMemo::kMaxFloors + 4; ++i) {
    // Pairwise incomparable: cores rise while memory falls.
    memo.record(ResourceVector{static_cast<double>(i + 1),
                               static_cast<double>(1000 - i), 1.0});
  }
  EXPECT_EQ(memo.floors(), NoFitMemo::kMaxFloors);
  EXPECT_TRUE(memo.refuses(ResourceVector{1.0, 1000.0, 1.0}));
  EXPECT_FALSE(memo.refuses(ResourceVector{
      static_cast<double>(NoFitMemo::kMaxFloors + 4),
      static_cast<double>(1000 - NoFitMemo::kMaxFloors - 3), 1.0}));
}

TEST(NoFitMemo, NaNNeverDominates) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  NoFitMemo memo;
  memo.record(ResourceVector{1.0, 1.0, 1.0});
  EXPECT_FALSE(memo.refuses(ResourceVector{nan, 2.0, 2.0}));
  memo.clear();
  memo.record(ResourceVector{nan, 1.0, 1.0});
  EXPECT_FALSE(memo.refuses(ResourceVector{2.0, 2.0, 2.0}));
}

// ------------------------------------------------- shared generators

/// Allocations on a coarse grid, so successive probes often dominate each
/// other (the memo's case) and sometimes exceed every worker.
ResourceVector random_alloc(Rng& rng) {
  static constexpr double kCores[] = {1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 20.0};
  static constexpr double kMem[] = {1000.0, 4000.0, 8000.0, 16000.0, 40000.0};
  static constexpr double kDisk[] = {500.0, 2000.0, 8000.0, 30000.0};
  return ResourceVector{kCores[rng.uniform_int(0, 6)],
                        kMem[rng.uniform_int(0, 4)],
                        kDisk[rng.uniform_int(0, 3)], rng.uniform(0.0, 1e4)};
}

ResourceVector random_capacity(Rng& rng) {
  static const ResourceVector kProfiles[] = {
      {16.0, 65536.0, 65536.0}, {8.0, 16384.0, 32768.0},
      {4.0, 32768.0, 8192.0},   {32.0, 8192.0, 16384.0},
      {12.0, 24576.0, 20000.0},
  };
  return kProfiles[rng.uniform_int(0, 4)];
}

// ------------------------------------------------- sim differential

/// True iff some non-draining worker of `pool` can fit `alloc`.
bool any_fits(const tora::sim::WorkerPool& pool, const ResourceVector& alloc) {
  for (const auto& [id, w] : pool.workers()) {
    if (!w.draining() && w.can_fit(alloc)) return true;
  }
  return false;
}

TEST(NoFitMemoDifferential, SimPoolMatchesBruteForceUnderEveryPlacement) {
  using tora::sim::Placement;
  std::size_t refused = 0;
  for (const Placement placement :
       {Placement::FirstFit, Placement::BestFit, Placement::WorstFit}) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      Rng rng(seed * 7919 + static_cast<std::uint64_t>(placement));
      tora::sim::WorkerPool pool(ResourceVector{16.0, 65536.0, 65536.0});
      const std::size_t n = rng.uniform_int(1, 12);
      for (std::size_t i = 0; i < n; ++i) {
        pool.add_worker(random_capacity(rng));
      }
      std::map<std::uint64_t, std::pair<std::uint64_t, ResourceVector>> running;
      std::uint64_t next_task = 0;
      NoFitMemo memo;
      for (int call = 0; call < 12; ++call) {
        // Between calls the pool may release capacity and change draining
        // flags — exactly what the memo must not survive.
        for (auto it = running.begin(); it != running.end();) {
          if (rng.bernoulli(0.3)) {
            pool.worker(it->second.first).finish(it->first, it->second.second);
            it = running.erase(it);
          } else {
            ++it;
          }
        }
        for (const auto& [id, w] : pool.workers()) {
          pool.worker(id).set_draining(rng.bernoulli(0.15));
        }

        memo.clear();
        for (int probe = 0; probe < 40; ++probe) {
          const ResourceVector alloc = random_alloc(rng);
          const auto expected = pool.find_worker_for(alloc, placement);
          // The runtime's placer (sim::Simulation::dispatch).
          std::optional<std::uint64_t> got;
          if (memo.refuses(alloc)) {
            ++refused;
            EXPECT_FALSE(any_fits(pool, alloc));
          } else {
            got = pool.find_worker_for(alloc, placement);
            if (!got) memo.record(alloc);
          }
          ASSERT_EQ(got, expected)
              << "seed " << seed << " call " << call << " probe " << probe;
          if (got) {
            pool.worker(*got).start(next_task, alloc);
            running.emplace(next_task, std::make_pair(*got, alloc));
            ++next_task;
          }
        }
      }
    }
  }
  EXPECT_GT(refused, 1000u) << "the differential never exercised the memo";
}

// ------------------------------------------------- proto differential

TEST(NoFitMemoDifferential, ProtoRegistryMatchesBruteForceWithBackpressure) {
  using tora::core::resilience::ReliabilityTracker;
  using tora::core::resilience::ResilienceConfig;
  using tora::proto::WorkerState;
  std::size_t refused = 0;
  std::size_t deferred = 0;
  for (const bool reliability_on : {true, false}) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      Rng rng(seed * 104729 + (reliability_on ? 1 : 0));
      std::map<std::uint64_t, WorkerState> registry;
      const std::size_t n = rng.uniform_int(1, 10);
      for (std::uint64_t id = 0; id < n; ++id) {
        // Sparse ids: departed workers leave holes in the registry.
        if (rng.bernoulli(0.2)) continue;
        WorkerState ws;
        ws.capacity = random_capacity(rng);
        registry.emplace(id, ws);
      }
      ResilienceConfig rcfg;
      rcfg.reliability = true;
      ReliabilityTracker tracker(rcfg);
      const double now = 100.0;
      for (const auto& [id, ws] : registry) {
        const std::uint64_t offenses = rng.uniform_int(0, 3);
        for (std::uint64_t k = 0; k < offenses; ++k) tracker.on_offense(id);
        // Some workers served their sentence: probationary at `now`.
        if (rng.bernoulli(0.3)) tracker.quarantine(id, rng.uniform(0.0, 90.0));
      }
      const ReliabilityTracker* rel = reliability_on ? &tracker : nullptr;

      NoFitMemo memo;
      for (int call = 0; call < 10; ++call) {
        // A fresh tick: new backpressure sample (sometimes shorter than
        // the registry), some capacity released.
        std::vector<char> bp(rng.uniform_int(0, n), 0);
        for (char& b : bp) b = rng.bernoulli(0.35) ? 1 : 0;
        for (auto& [id, ws] : registry) {
          if (rng.bernoulli(0.4)) ws.committed = ResourceVector{};
        }

        memo.clear();
        for (int probe = 0; probe < 40; ++probe) {
          const ResourceVector alloc = random_alloc(rng);
          bool expected_bp = false;
          const auto expected = tora::proto::choose_worker(
              registry, bp, rel, now, alloc, std::nullopt, &expected_bp);
          // The runtime's placer (proto::ProtocolManager::dispatch_queued).
          std::optional<std::uint64_t> got;
          bool got_bp = false;
          if (memo.refuses(alloc)) {
            ++refused;
          } else {
            got = tora::proto::choose_worker(registry, bp, rel, now, alloc,
                                             std::nullopt, &got_bp);
            if (!got && !got_bp) memo.record(alloc);
          }
          ASSERT_EQ(got, expected)
              << "seed " << seed << " call " << call << " probe " << probe;
          // Same deferral count: a memo refusal is never a probe that
          // backpressure alone blocked.
          ASSERT_EQ(!got && got_bp, !expected && expected_bp);
          if (!got && got_bp) {
            ++deferred;
            EXPECT_FALSE(memo.refuses(alloc));
          }
          if (got) registry.at(*got).committed += alloc;
        }
      }
    }
  }
  EXPECT_GT(refused, 1000u) << "the differential never exercised the memo";
  EXPECT_GT(deferred, 100u) << "no probe was blocked by backpressure alone";
}

}  // namespace
