// The ready queue indexed by allocation (core/lifecycle/dispatch_core):
// lane 0 for first-attempt tasks, one lane per exact retry allocation,
// merged in FIFO key order, with whole retry lanes skipped once the no-fit
// memo refuses their allocation.
//
// The oracle is a test-local copy of the deque-based core the lanes
// replaced (one std::deque in FIFO order, every queued task offered every
// pass). Random operation sequences drive both through a proto-style
// placer — admission gate, no-fit memo, first fit over a small pool with
// backpressured workers — and every step must agree on commits, hooks,
// held and backpressure counts, and save_state bytes. Around it: the
// probe-count bound the skip buys, the same equivalence for the tenancy
// layer's quota-1 arbitrated passes, and load_state's validation of the
// ready section.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/lifecycle/drain.hpp"
#include "core/lifecycle/no_fit_memo.hpp"
#include "core/metrics.hpp"
#include "core/registry.hpp"
#include "core/task.hpp"
#include "core/task_allocator.hpp"
#include "core/tenancy/arbiter.hpp"
#include "core/tenancy/multi_tenant_core.hpp"
#include "deque_dispatch_core.hpp"
#include "util/bytes.hpp"

namespace {

using tora::core::ResourceKind;
using tora::core::ResourceVector;
using tora::core::TaskAllocator;
using tora::core::TaskSpec;
using tora::core::lifecycle::DispatchConfig;
using tora::core::lifecycle::DispatchCore;
using tora::core::lifecycle::NoFitMemo;
using tora::core::lifecycle::RuntimeHooks;
using tora::core::lifecycle::TaskEntry;
using tora::core::lifecycle::TaskPhase;
using tora::core::lifecycle::legacy::DequeCore;
using tora::util::ByteReader;
using tora::util::ByteWriter;

constexpr ResourceVector kWorker{8.0, 16000.0, 16000.0, 0.0};

struct HookEvent {
  int kind;
  std::uint64_t task;
  std::uint64_t value;
  ResourceVector alloc;
  double runtime;
  bool flag;
  bool operator==(const HookEvent&) const = default;
};

class RecordingHooks : public RuntimeHooks {
 public:
  std::vector<HookEvent> log;
  void task_fatal(std::uint64_t t) override {
    log.push_back({0, t, 0, {}, 0, 0});
  }
  void allocation_committed(std::uint64_t t, const ResourceVector& a,
                            bool retry) override {
    log.push_back({1, t, 0, a, 0, retry});
  }
  void task_dispatched(std::uint64_t t, std::uint64_t w,
                       std::uint32_t attempt) override {
    log.push_back({2, t, w * 1000 + attempt, {}, 0, 0});
  }
  void task_completed(std::uint64_t t, const ResourceVector& p,
                      double r) override {
    log.push_back({3, t, 0, p, r, 0});
  }
  void task_failed_attempt(std::uint64_t t, double r, unsigned mask,
                           bool requeued) override {
    log.push_back({4, t, mask, {}, r, requeued});
  }
  void task_requeued(std::uint64_t t) override {
    log.push_back({5, t, 0, {}, 0, 0});
  }
};

using Commit = std::tuple<std::uint64_t, std::uint64_t, ResourceVector>;

/// One runtime driving a core: a worker pool with free capacity, a
/// backpressure flag per worker, per-task backoff windows, the no-fit memo
/// and the admission gate, all as in the protocol manager's dispatch call.
template <typename Core>
struct World {
  TaskAllocator allocator;
  RecordingHooks hooks;
  Core core;
  std::vector<ResourceVector> free;
  std::vector<char> backpressured;
  std::vector<std::uint64_t> backoff_until;
  NoFitMemo memo;
  std::vector<Commit> commits;
  std::size_t held = 0;
  std::size_t bp_deferred = 0;
  std::size_t probes = 0;

  World(const std::vector<TaskSpec>& tasks, std::string_view policy,
        DispatchConfig config, std::size_t workers)
      : allocator(tora::core::make_allocator(policy, 11, kWorker)),
        core(tasks, allocator, config, &hooks),
        free(workers, kWorker),
        backpressured(workers, 0),
        backoff_until(tasks.size(), 0) {}

  std::size_t pass(bool capped, std::size_t cap, std::size_t quota,
                   bool skip, std::uint64_t tick) {
    std::size_t inflight = running().size();
    memo.clear();
    return core.dispatch_pass(
        tora::core::lifecycle::gated_place(
            [capped] { return capped; }, [&inflight] { return inflight; },
            cap, held,
            [this](std::uint64_t, const ResourceVector& alloc)
                -> std::optional<std::uint64_t> {
              ++probes;
              if (memo.refuses(alloc)) return std::nullopt;
              bool blocked = false;
              for (std::size_t w = 0; w < free.size(); ++w) {
                if (!alloc.fits_within(free[w])) continue;
                if (backpressured[w]) {
                  blocked = true;
                  continue;
                }
                return w;
              }
              if (blocked) {
                ++bp_deferred;
              } else {
                memo.record(alloc);
              }
              return std::nullopt;
            }),
        [this, &inflight](std::uint64_t task, std::uint64_t w,
                          const ResourceVector& alloc) {
          free[w] -= alloc;
          ++inflight;
          commits.emplace_back(task, w, alloc);
        },
        [this, tick](std::uint64_t task) { return backoff_until[task] > tick; },
        quota, skip ? &memo : nullptr);
  }

  std::vector<std::uint64_t> running() const {
    std::vector<std::uint64_t> out;
    for (std::size_t t = 0; t < backoff_until.size(); ++t) {
      if (core.entry(t).phase == TaskPhase::Running) out.push_back(t);
    }
    return out;
  }

  void release(std::uint64_t task) {
    const TaskEntry& e = core.entry(task);
    free[e.running_on] += e.alloc;
  }

  std::string state() const {
    ByteWriter w;
    core.save_state(w);
    return w.take();
  }
};

std::vector<TaskSpec> random_workload(std::mt19937_64& rng, std::size_t n) {
  const char* cats[] = {"small", "wide", "tall"};
  std::vector<TaskSpec> tasks(n);
  for (std::size_t i = 0; i < n; ++i) {
    tasks[i].id = i;
    const std::size_t c = rng() % 3;
    tasks[i].category = cats[c];
    tasks[i].demand = ResourceVector{
        1.0 + static_cast<double>(rng() % (c == 1 ? 6 : 3)),
        500.0 + static_cast<double>(rng() % (c == 2 ? 12000 : 3000)),
        300.0 + static_cast<double>(rng() % 4000), 0.0};
    tasks[i].duration_s = 10.0 + static_cast<double>(rng() % 50);
    if (i >= 8 && rng() % 6 == 0) tasks[i].deps.push_back(i - 1 - rng() % 8);
  }
  return tasks;
}

/// What one differential run exercised, summed over seeds by the tests.
struct Coverage {
  std::size_t retries = 0;
  std::size_t held = 0;
  std::size_t bp_deferred = 0;
  std::size_t probes_saved = 0;
};

void run_differential(std::string_view policy, std::uint64_t seed,
                      Coverage& cov) {
  std::mt19937_64 rng(seed);
  const std::vector<TaskSpec> tasks = random_workload(rng, 90);
  DispatchConfig config;
  config.max_attempts = 7;
  config.max_allocation_failures = seed % 2 ? 5 : 0;
  World<DispatchCore> lanes(tasks, policy, config, 3);
  World<DequeCore> deque(tasks, policy, config, 3);

  std::size_t submitted = 0;
  std::uint64_t tick = 0;
  for (int step = 0; step < 500; ++step) {
    SCOPED_TRACE(testing::Message() << policy << " seed " << seed << " step "
                                    << step);
    ++tick;
    const auto running = lanes.running();
    const std::uint64_t op = rng() % 12;
    const std::uint64_t pick = running.empty() ? 0 : rng() % running.size();
    if (op < 2 && submitted < tasks.size()) {
      const std::size_t burst = 1 + rng() % 6;
      for (std::size_t i = 0; i < burst && submitted < tasks.size(); ++i) {
        lanes.core.mark_submitted(submitted);
        deque.core.mark_submitted(submitted);
        ++submitted;
      }
    } else if (op < 6) {
      // A pass: sometimes quota-limited, sometimes behind a closing gate,
      // with random backpressure; the skip is on only while the gate
      // cannot close.
      const std::size_t quota = rng() % 3 == 0
                                    ? 1 + rng() % 3
                                    : DispatchCore::kNoPlacementLimit;
      const bool capped = rng() % 5 == 0;
      const std::size_t cap = rng() % 6;
      const bool skip = !capped && rng() % 4 != 0;
      for (std::size_t w = 0; w < lanes.free.size(); ++w) {
        const char bp = rng() % 6 == 0;
        lanes.backpressured[w] = bp;
        deque.backpressured[w] = bp;
      }
      const std::size_t a = lanes.pass(capped, cap, quota, skip, tick);
      const std::size_t b = deque.pass(capped, cap, quota, false, tick);
      ASSERT_EQ(a, b);
      EXPECT_LE(lanes.probes, deque.probes);
    } else if (running.empty()) {
      continue;
    } else if (op < 8) {
      const std::uint64_t t = running[pick];
      const ResourceVector peak =
          tasks[t].demand.min_with(lanes.core.entry(t).alloc);
      lanes.release(t);
      deque.release(t);
      lanes.core.complete(t, peak, tasks[t].duration_s);
      deque.core.complete(t, peak, tasks[t].duration_s);
    } else if (op < 11) {
      const std::uint64_t t = running[pick];
      const unsigned mask = 1u + static_cast<unsigned>(rng() % 7);
      lanes.release(t);
      deque.release(t);
      const auto va = lanes.core.fail_attempt(t, 3.0, mask);
      const auto vb = deque.core.fail_attempt(t, 3.0, mask);
      ASSERT_EQ(va, vb);
      if (va == DispatchCore::RetryVerdict::Requeued) ++cov.retries;
    } else {
      const std::uint64_t t = running[pick];
      const std::uint64_t backoff = tick + rng() % 4;
      lanes.release(t);
      deque.release(t);
      lanes.backoff_until[t] = backoff;
      deque.backoff_until[t] = backoff;
      lanes.core.requeue_front(t);
      deque.core.requeue_front(t);
    }
    ASSERT_EQ(lanes.commits, deque.commits);
    ASSERT_EQ(lanes.hooks.log, deque.hooks.log);
    ASSERT_EQ(lanes.held, deque.held);
    ASSERT_EQ(lanes.bp_deferred, deque.bp_deferred);
    ASSERT_EQ(lanes.core.ready_size(), deque.core.ready_size());
    ASSERT_EQ(lanes.state(), deque.state());
  }
  EXPECT_GT(lanes.commits.size(), 50u);
  cov.held += lanes.held;
  cov.bp_deferred += lanes.bp_deferred;
  cov.probes_saved += deque.probes - lanes.probes;
}

void expect_exercised(const Coverage& cov) {
  EXPECT_GT(cov.retries, 100u);
  EXPECT_GT(cov.held, 0u);
  EXPECT_GT(cov.bp_deferred, 0u);
  EXPECT_GT(cov.probes_saved, 100u);
}

// --- differential against the deque-based pass -----------------------------

TEST(ReadyLanesDifferential, MaxSeenMatchesTheDequePass) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_differential(tora::core::kMaxSeen, seed, cov);
  }
  expect_exercised(cov);
}

TEST(ReadyLanesDifferential, ExhaustiveBucketingMatchesTheDequePass) {
  // Bucketing draws from its RNG at every first-attempt allocate(), so a
  // reordered or skipped first-attempt visit would shift every later draw.
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_differential(tora::core::kExhaustiveBucketing, seed, cov);
  }
  expect_exercised(cov);
}

// --- the probe bound --------------------------------------------------------

TEST(ReadyLanes, RetryOnlyQueueProbesEachLaneOnceOnASaturatedPool) {
  // N retry tasks in L distinct allocations, interleaved in the queue, on
  // one worker that fits none of them: a pass offers each lane once.
  constexpr std::size_t kTasks = 600;
  constexpr std::size_t kLanes = 6;
  std::vector<TaskSpec> tasks(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks[i].id = i;
    tasks[i].category = "c" + std::to_string(i % kLanes);
    tasks[i].demand = ResourceVector{1.0, 1000.0, 100.0, 0.0};
  }
  auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 3, kWorker);
  for (std::size_t c = 0; c < kLanes; ++c) {
    allocator.record_completion(
        "c" + std::to_string(c),
        ResourceVector{1.0, 500.0 + 700.0 * static_cast<double>(c), 100.0,
                       0.0});
  }
  DispatchCore core(tasks, allocator, {});
  core.start();
  // Dispatch everything, then fail every attempt once on memory: each
  // category's tasks share one escalated allocation.
  std::vector<std::uint64_t> order;
  core.dispatch_pass(
      [](std::uint64_t, const ResourceVector&) {
        return std::optional<std::uint64_t>(0);
      },
      [&](std::uint64_t t, std::uint64_t, const ResourceVector&) {
        order.push_back(t);
      });
  ASSERT_EQ(order.size(), kTasks);
  for (std::uint64_t t : order) {
    ASSERT_EQ(core.fail_attempt(t, 1.0, 2u),
              DispatchCore::RetryVerdict::Requeued);
  }
  ASSERT_EQ(core.ready_size(), kTasks);

  ResourceVector free{0.5, 100.0, 100.0, 0.0};  // saturated: nothing fits
  NoFitMemo memo;
  std::size_t probes = 0;
  const auto place = [&](std::uint64_t, const ResourceVector& alloc)
      -> std::optional<std::uint64_t> {
    ++probes;
    if (memo.refuses(alloc)) return std::nullopt;
    if (alloc.fits_within(free)) return 0;
    memo.record(alloc);
    return std::nullopt;
  };
  const auto commit = [](std::uint64_t, std::uint64_t,
                         const ResourceVector&) {};
  std::size_t lanes = 0;
  {
    std::vector<ResourceVector> seen;
    for (std::size_t t = 0; t < kTasks; ++t) {
      const ResourceVector& a = core.entry(t).alloc;
      if (std::find(seen.begin(), seen.end(), a) == seen.end()) {
        seen.push_back(a);
      }
    }
    lanes = seen.size();
  }
  ASSERT_GE(lanes, 2u);
  ASSERT_LE(lanes, kLanes);
  EXPECT_EQ(core.dispatch_pass(place, commit, {},
                               DispatchCore::kNoPlacementLimit, &memo),
            0u);
  EXPECT_LE(probes, lanes);
  EXPECT_EQ(core.ready_size(), kTasks);

  // With room for three tasks of any lane, the bound is L + placements.
  free = kWorker;
  memo.clear();
  probes = 0;
  std::size_t placed_now = 0;
  const auto place_three = [&](std::uint64_t, const ResourceVector& alloc)
      -> std::optional<std::uint64_t> {
    ++probes;
    if (memo.refuses(alloc)) return std::nullopt;
    if (placed_now < 3) return 0;
    memo.record(alloc);
    return std::nullopt;
  };
  const std::size_t placed = core.dispatch_pass(
      place_three,
      [&](std::uint64_t, std::uint64_t, const ResourceVector&) {
        ++placed_now;
      },
      {}, DispatchCore::kNoPlacementLimit, &memo);
  EXPECT_EQ(placed, 3u);
  EXPECT_LE(probes, lanes + placed);
  EXPECT_EQ(core.ready_size(), kTasks - 3);
}

TEST(ReadyLanes, RequeueFrontRunsAheadOfEveryLane) {
  // Two retry lanes and lane 0: an infrastructure requeue puts its task
  // ahead of every lane, whichever lane it joins.
  std::vector<TaskSpec> tasks(4);
  for (std::size_t i = 0; i < 4; ++i) {
    tasks[i].id = i;
    tasks[i].category = i % 2 ? "odd" : "even";
    tasks[i].demand = ResourceVector{1.0, 100.0, 100.0, 0.0};
  }
  auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 3, kWorker);
  // Out of exploration, so retries can escalate below worker capacity.
  allocator.record_completion("even", ResourceVector{1.0, 100.0, 100.0, 0.0});
  allocator.record_completion("odd", ResourceVector{1.0, 100.0, 100.0, 0.0});
  DispatchCore core(tasks, allocator, {});
  for (std::uint64_t t = 0; t < 3; ++t) core.mark_submitted(t);
  std::vector<std::uint64_t> order;
  const auto take_all = [&](std::uint64_t, const ResourceVector&) {
    return std::optional<std::uint64_t>(0);
  };
  const auto log = [&](std::uint64_t t, std::uint64_t, const ResourceVector&) {
    order.push_back(t);
  };
  core.dispatch_pass(take_all, log);
  ASSERT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
  using Verdict = DispatchCore::RetryVerdict;
  ASSERT_EQ(core.fail_attempt(0, 1.0, 1u), Verdict::Requeued);  // lane "even"
  ASSERT_EQ(core.fail_attempt(1, 1.0, 2u), Verdict::Requeued);  // lane "odd"
  core.mark_submitted(3);                                      // lane 0
  core.requeue_front(2);  // a first attempt: lane 0, ahead of task 3
  order.clear();
  core.dispatch_pass(take_all, log);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 0, 1, 3}));

  ASSERT_EQ(core.fail_attempt(0, 1.0, 1u), Verdict::Requeued);
  ASSERT_EQ(core.fail_attempt(3, 1.0, 2u), Verdict::Requeued);
  core.requeue_front(1);  // a retry: its lane, ahead of tasks 0 and 3
  core.requeue_front(2);  // lane 0, ahead of task 1
  order.clear();
  core.dispatch_pass(take_all, log);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 1, 0, 3}));
  EXPECT_EQ(core.ready_size(), 0u);
}

TEST(ReadyLanes, FailedAttemptOfATaskNotRunningThrows) {
  // A second enqueue of a queued task would overwrite its queue links, so
  // fail_attempt refuses a task that is not Running and leaves the queue
  // as it was.
  std::vector<TaskSpec> tasks(2);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = i;
    tasks[i].category = "c";
    tasks[i].demand = ResourceVector{1.0, 100.0, 100.0, 0.0};
  }
  auto allocator = tora::core::make_allocator(tora::core::kMaxSeen, 3, kWorker);
  allocator.record_completion("c", ResourceVector{1.0, 100.0, 100.0, 0.0});
  DispatchCore core(tasks, allocator, {});
  EXPECT_THROW(core.fail_attempt(0, 1.0, 2u), std::logic_error);  // Pending
  core.mark_submitted(0);
  core.mark_submitted(1);
  std::vector<std::uint64_t> order;
  const auto log = [&](std::uint64_t t, std::uint64_t, const ResourceVector&) {
    order.push_back(t);
  };
  core.dispatch_pass(
      [](std::uint64_t t,
         const ResourceVector&) -> std::optional<std::uint64_t> {
        if (t == 0) return 0;
        return std::nullopt;
      },
      log);
  ASSERT_EQ(order, (std::vector<std::uint64_t>{0}));
  ASSERT_EQ(core.fail_attempt(0, 1.0, 2u),
            DispatchCore::RetryVerdict::Requeued);
  EXPECT_THROW(core.fail_attempt(0, 1.0, 2u), std::logic_error);  // Queued
  EXPECT_THROW(core.fail_attempt(1, 1.0, 2u), std::logic_error);  // Queued
  EXPECT_EQ(core.ready_size(), 2u);
  EXPECT_EQ(core.entry(0).failed_attempts.size(), 1u);
  order.clear();
  core.dispatch_pass(
      [](std::uint64_t, const ResourceVector&) {
        return std::optional<std::uint64_t>(0);
      },
      log);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 0}));
}

// --- tenancy: quota-1 arbitrated passes -------------------------------------

TEST(ReadyLanesTenancy, ArbitratedPassesMatchWithAndWithoutTheSkip) {
  std::mt19937_64 rng(5);
  std::vector<std::vector<TaskSpec>> local;
  for (int t = 0; t < 3; ++t) local.push_back(random_workload(rng, 70));
  for (auto& tasks : local) {
    for (auto& s : tasks) s.deps.clear();
  }
  struct Run {
    std::vector<TaskAllocator> allocators;
    std::unique_ptr<tora::core::tenancy::MultiTenantCore> core;
    std::vector<ResourceVector> free = std::vector<ResourceVector>(2, kWorker);
    NoFitMemo memo;
    std::vector<Commit> commits;
    std::size_t probes = 0;
  };
  const auto make = [&](Run& r) {
    std::vector<tora::core::tenancy::TenantInput> in;
    r.allocators.reserve(local.size());
    for (std::size_t t = 0; t < local.size(); ++t) {
      r.allocators.push_back(tora::core::make_allocator(
          tora::core::kMaxSeen, 20 + t, kWorker));
    }
    for (std::size_t t = 0; t < local.size(); ++t) {
      in.push_back({local[t], &r.allocators[t],
                    tora::core::tenancy::TenantSpec{"t" + std::to_string(t),
                                                    1.0 + t}});
    }
    r.core = std::make_unique<tora::core::tenancy::MultiTenantCore>(
        std::move(in), DispatchConfig{},
        tora::core::tenancy::make_arbiter("drf"));
    r.core->start();
  };
  const auto pass = [&](Run& r, bool skip) {
    r.memo.clear();
    r.core->dispatch_pass(
        [&r](std::uint64_t, const ResourceVector& alloc)
            -> std::optional<std::uint64_t> {
          ++r.probes;
          if (r.memo.refuses(alloc)) return std::nullopt;
          for (std::size_t w = 0; w < r.free.size(); ++w) {
            if (alloc.fits_within(r.free[w])) return w;
          }
          r.memo.record(alloc);
          return std::nullopt;
        },
        [&r](std::uint64_t task, std::uint64_t w, const ResourceVector& alloc) {
          r.free[w] -= alloc;
          r.commits.emplace_back(task, w, alloc);
        },
        {}, [] { return ResourceVector{16.0, 32000.0, 32000.0, 0.0}; },
        skip ? &r.memo : nullptr);
  };
  Run with;
  Run without;
  make(with);
  make(without);
  for (int round = 0; round < 1000; ++round) {
    SCOPED_TRACE(round);
    pass(with, true);
    pass(without, false);
    ASSERT_EQ(with.commits, without.commits);
    // Finish or fail (alternating) every attempt that is running.
    for (std::size_t g = 0; g < with.core->task_count(); ++g) {
      if (with.core->entry(g).phase != TaskPhase::Running) continue;
      for (Run* r : {&with, &without}) {
        const TaskEntry& e = r->core->entry(g);
        r->free[e.running_on] += e.alloc;
        const TaskSpec& spec = r->core->tasks()[g];
        if (spec.demand.fits_within(e.alloc)) {
          r->core->complete(g, spec.demand, spec.duration_s);
        } else {
          r->core->fail_attempt(g, 1.0, spec.demand.exceeded_mask(e.alloc));
        }
      }
    }
    ByteWriter a;
    ByteWriter b;
    with.core->save_state(a);
    without.core->save_state(b);
    ASSERT_EQ(a.bytes(), b.bytes());
    if (with.core->done()) break;
  }
  EXPECT_TRUE(with.core->done());
  EXPECT_LT(with.probes, without.probes);
}

// --- load_state validates the ready section ---------------------------------

/// Byte offset of the ready list's count in a save_state of `n` entries
/// with no failed attempts: u64 count, then per entry 4 u8 flags, u32
/// attempts, u64 revision, u64 worker, 4 f64 alloc, u64 deps, u64 failures.
constexpr std::size_t ready_offset(std::size_t n) {
  return 8 + n * (4 + 4 + 8 + 8 + 32 + 8 + 8);
}

std::vector<TaskSpec> three_tasks() {
  std::vector<TaskSpec> tasks(3);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].id = i;
    tasks[i].category = "c";
    tasks[i].demand = ResourceVector{1.0, 100.0, 100.0, 0.0};
  }
  return tasks;
}

struct SmallCore {
  std::vector<TaskSpec> tasks = three_tasks();
  TaskAllocator allocator =
      tora::core::make_allocator(tora::core::kMaxSeen, 1, kWorker);
  DispatchCore core{tasks, allocator, {}};
};

std::string patched(std::string bytes, std::size_t at, std::uint64_t v) {
  ByteWriter w;
  w.u64(v);
  bytes.replace(at, 8, w.bytes());
  return bytes;
}

void expect_rejected(const std::string& bytes) {
  SmallCore fresh;
  ByteReader r(bytes);
  EXPECT_THROW(fresh.core.load_state(r), std::runtime_error);
}

TEST(DispatchCoreLoad, RejectsReadyIdsOutOfRange) {
  SmallCore c;
  c.core.start();
  ByteWriter w;
  c.core.save_state(w);
  const std::size_t first = ready_offset(3) + 8;
  {
    SmallCore ok;
    ByteReader r(w.bytes());
    ok.core.load_state(r);
    EXPECT_EQ(ok.core.ready_size(), 3u);
  }
  expect_rejected(patched(w.bytes(), first, 1000000));
  expect_rejected(patched(w.bytes(), first, 3));
  expect_rejected(patched(w.bytes(), first, ~std::uint64_t{0}));
}

TEST(DispatchCoreLoad, RejectsReadyIdsListedTwiceOrNotQueued) {
  SmallCore c;
  c.core.start();
  // Task 0 runs; tasks 1 and 2 stay queued.
  bool given = false;
  c.core.dispatch_pass(
      [&](std::uint64_t,
          const ResourceVector&) -> std::optional<std::uint64_t> {
        if (given) return std::nullopt;
        given = true;
        return 0;
      },
      [](std::uint64_t, std::uint64_t, const ResourceVector&) {});
  ASSERT_EQ(c.core.entry(0).phase, TaskPhase::Running);
  ByteWriter w;
  c.core.save_state(w);
  const std::size_t count = ready_offset(3);
  const std::size_t first = count + 8;
  expect_rejected(patched(w.bytes(), first, 2));  // [2, 2]
  expect_rejected(patched(w.bytes(), first, 0));  // task 0 is Running
  // A longer list than there are queued tasks reads a duplicate or runs out
  // of bytes.
  expect_rejected(patched(w.bytes(), count, 3));
}

TEST(DispatchCoreLoad, RejectsPhaseBytesOutsideTaskPhase) {
  SmallCore c;
  c.core.start();
  ByteWriter w;
  c.core.save_state(w);
  std::string bytes = w.bytes();
  bytes[8] = static_cast<char>(5);  // task 0's phase: one past Fatal
  expect_rejected(bytes);
  bytes[8] = static_cast<char>(0xFF);
  expect_rejected(bytes);
}

}  // namespace
