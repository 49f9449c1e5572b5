// Deep-queue dispatch perf smoke: what one DispatchCore::dispatch_pass
// costs on a ready queue of about 10k retry tasks in 24 exact allocations
// (plus a few first-attempt tasks between them) against a saturated pool,
// the shape a bucketing manager's queue takes under load, against the
// deque-based pass the allocation-indexed lanes replaced
// (tests/deque_dispatch_core.hpp), which offers every queued task to the
// placer on every pass.
//
// Both cores are driven through the same operations and probed through
// the same placer as the runtimes build it: a no-fit memo cleared per pass
// in front of a first-fit scan. The lane pass is timed twice: given the
// memo, so it drops refused lanes, and without it (a runtime whose
// admission gate may close mid-call), so it offers every task as the
// deque does. The timed passes place nothing, so they repeat on unchanged
// state. The gate: identical commits and save_state bytes after the timed
// passes and after each of 20 passes over randomly shaped pools with room
// for a few placements; the binary exits 1 otherwise.
//
// Emits BENCH_dispatch.json (CI uploads it as the perf-smoke artifact).
// Exits 1 when the lane pass without the memo takes over 2x the deque
// pass of the same run, and, when given a committed baseline, when either
// lane pass takes over 3x its baseline microseconds.
//
// Usage: dispatch_hot_path [out.json] [baseline.json]

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/lifecycle/dispatch_core.hpp"
#include "core/lifecycle/no_fit_memo.hpp"
#include "core/registry.hpp"
#include "core/task.hpp"
#include "deque_dispatch_core.hpp"
#include "util/bytes.hpp"

namespace {

using tora::core::ResourceVector;
using tora::core::TaskAllocator;
using tora::core::TaskSpec;
using tora::core::lifecycle::DispatchCore;
using tora::core::lifecycle::NoFitMemo;
using tora::core::lifecycle::legacy::DequeCore;

constexpr std::size_t kCategories = 24;
constexpr std::size_t kRounds = 20;
constexpr std::size_t kRetriesPerRound = 500;
constexpr std::size_t kFreshPerRound = 24;
constexpr std::size_t kTasks = kRounds * (kRetriesPerRound + kFreshPerRound);
constexpr ResourceVector kWorker{16.0, 64000.0, 64000.0, 0.0};

std::string category(std::size_t c) {
  std::string name = "c";
  name += std::to_string(c);
  return name;
}

std::vector<TaskSpec> make_tasks() {
  std::vector<TaskSpec> tasks(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i) {
    tasks[i].id = i;
    tasks[i].category = category(i % kCategories);
    tasks[i].demand = ResourceVector{1.0, 1000.0, 100.0, 0.0};
    tasks[i].duration_s = 60.0;
  }
  return tasks;
}

TaskAllocator make_warm_allocator() {
  auto a = tora::core::make_allocator(tora::core::kMaxSeen, 1, kWorker);
  // One record per category, each a different shape (cores rise as memory
  // falls, so many pairs are incomparable), so every category predicts (and
  // escalates to) its own allocation.
  for (std::size_t c = 0; c < kCategories; ++c) {
    a.record_completion(
        category(c),
        ResourceVector{1.0 + static_cast<double>(c % 4),
                       800.0 + 150.0 * static_cast<double>(kCategories - c),
                       100.0, 0.0});
  }
  return a;
}

using Commit = std::tuple<std::uint64_t, std::uint64_t, ResourceVector>;

/// One core behind the runtimes' placer shape: the memo in front of a
/// first-fit scan over a small pool.
template <typename Core>
struct Rig {
  TaskAllocator allocator = make_warm_allocator();
  Core core;
  std::vector<ResourceVector> free;
  NoFitMemo memo;
  std::vector<Commit> commits;
  std::size_t probes = 0;

  explicit Rig(const std::vector<TaskSpec>& tasks)
      : core(tasks, allocator, {}, nullptr) {
    // Rounds of retries, each followed by a few first-attempt tasks: every
    // retry task is dispatched once and fails on memory, so it requeues in
    // its category's escalated allocation.
    std::uint64_t next = 0;
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::uint64_t begin = next;
      for (std::size_t i = 0; i < kRetriesPerRound; ++i) {
        core.mark_submitted(next++);
      }
      std::vector<std::uint64_t> started;
      core.dispatch_pass(
          [begin](std::uint64_t t, const ResourceVector&)
              -> std::optional<std::uint64_t> {
            if (t < begin) return std::nullopt;
            return 0;
          },
          [&started](std::uint64_t t, std::uint64_t, const ResourceVector&) {
            started.push_back(t);
          },
          {}, DispatchCore::kNoPlacementLimit, nullptr);
      for (std::uint64_t t : started) core.fail_attempt(t, 1.0, 2u);
      for (std::size_t i = 0; i < kFreshPerRound; ++i) {
        core.mark_submitted(next++);
      }
    }
  }

  std::size_t pass(bool skip) {
    memo.clear();
    return core.dispatch_pass(
        [this](std::uint64_t, const ResourceVector& alloc)
            -> std::optional<std::uint64_t> {
          ++probes;
          if (memo.refuses(alloc)) return std::nullopt;
          for (std::size_t w = 0; w < free.size(); ++w) {
            if (alloc.fits_within(free[w])) return w;
          }
          memo.record(alloc);
          return std::nullopt;
        },
        [this](std::uint64_t t, std::uint64_t w, const ResourceVector& alloc) {
          free[w] -= alloc;
          commits.emplace_back(t, w, alloc);
        },
        {}, DispatchCore::kNoPlacementLimit, skip ? &memo : nullptr);
  }

  std::string state() const {
    tora::util::ByteWriter w;
    core.save_state(w);
    return w.take();
  }
};

/// Best per-pass microseconds over `reps` batches of `batch` passes.
template <typename Fn>
double best_pass_us(int reps, int batch, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < batch; ++b) fn();
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      batch;
    best = std::min(best, us);
  }
  return best;
}

double parse_guard(const std::string& path, const std::string& name) {
  std::ifstream in(path);
  if (!in) return 0.0;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::string key = "\"" + name + "\":";
  const auto pos = text.find(key);
  if (pos == std::string::npos) return 0.0;
  return std::stod(text.substr(pos + key.size()));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_dispatch.json";
  const std::string baseline_path = argc > 2 ? argv[2] : "";
  constexpr int kReps = 15;
  constexpr int kBatch = 20;
  constexpr int kPlacingPasses = 20;

  const std::vector<TaskSpec> tasks = make_tasks();
  Rig<DispatchCore> lanes(tasks);
  Rig<DequeCore> deque(tasks);
  bool match = lanes.state() == deque.state();
  const std::size_t depth = lanes.core.ready_size();
  std::vector<ResourceVector> allocs;
  for (std::size_t t = 0; t < kTasks; ++t) {
    const auto& e = lanes.core.entry(t);
    if (!e.is_retry) continue;
    if (std::find(allocs.begin(), allocs.end(), e.alloc) == allocs.end()) {
      allocs.push_back(e.alloc);
    }
  }

  // Saturated pool: one worker with less room than any task asks for.
  lanes.free.assign(1, ResourceVector{0.5, 500.0, 50.0, 0.0});
  deque.free = lanes.free;
  // The first pass caches the first-attempt allocations; after it, every
  // pass repeats on identical state.
  lanes.pass(true);
  deque.pass(false);
  lanes.probes = 0;
  deque.probes = 0;
  const double legacy_us =
      best_pass_us(kReps, kBatch, [&] { deque.pass(false); });
  const double lane_us = best_pass_us(kReps, kBatch, [&] { lanes.pass(true); });
  const double passes = kReps * kBatch;
  const double legacy_probes = static_cast<double>(deque.probes) / passes;
  const double lane_probes = static_cast<double>(lanes.probes) / passes;
  lanes.probes = 0;
  const double unskipped_us =
      best_pass_us(kReps, kBatch, [&] { lanes.pass(false); });
  const double unskipped_probes = static_cast<double>(lanes.probes) / passes;
  match = match && lanes.commits.empty() && deque.commits.empty() &&
          lanes.state() == deque.state();

  // Passes with room for a few tasks, on pools of unevenly shaped workers
  // so that some retry allocations fit where others do not: the same
  // placements, the same state.
  std::mt19937_64 rng(7);
  std::size_t placed = 0;
  for (int p = 0; p < kPlacingPasses; ++p) {
    lanes.free.clear();
    for (int w = 0; w < 3; ++w) {
      lanes.free.push_back(ResourceVector{
          static_cast<double>(1 + rng() % 8),
          static_cast<double>(1000 + rng() % 8000), 1000.0, 0.0});
    }
    deque.free = lanes.free;
    const std::size_t n = lanes.pass(true);
    match = match && deque.pass(false) == n &&
            lanes.commits == deque.commits && lanes.state() == deque.state();
    placed += n;
  }
  match = match && placed > 0;

  std::cout << "dispatch_hot_path: " << depth << " queued tasks, "
            << allocs.size() << " retry allocations, best of " << kReps
            << " x " << kBatch << " passes\n"
            << "  deque pass: " << legacy_us << " us, " << legacy_probes
            << " probes\n"
            << "  lane pass:  " << lane_us << " us, " << lane_probes
            << " probes (" << legacy_us / lane_us << "x)\n"
            << "  lane pass, no memo: " << unskipped_us << " us, "
            << unskipped_probes << " probes (" << legacy_us / unskipped_us
            << "x)\n"
            << "  " << kPlacingPasses << " placing passes: " << placed
            << " placements, "
            << (match ? "identical" : "DIFFER") << " commits and state\n";

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"benchmark\": \"dispatch_hot_path\",\n"
      << "  \"queue_depth\": " << depth << ",\n"
      << "  \"retry_allocations\": " << allocs.size() << ",\n"
      << "  \"reps\": " << kReps << ",\n"
      << "  \"batch\": " << kBatch << ",\n"
      << "  \"legacy_pass_us\": " << legacy_us << ",\n"
      << "  \"pass_us\": " << lane_us << ",\n"
      << "  \"speedup\": " << legacy_us / lane_us << ",\n"
      << "  \"legacy_probes_per_pass\": " << legacy_probes << ",\n"
      << "  \"probes_per_pass\": " << lane_probes << ",\n"
      << "  \"unskipped_pass_us\": " << unskipped_us << ",\n"
      << "  \"unskipped_probes_per_pass\": " << unskipped_probes << ",\n"
      << "  \"placing_passes\": " << kPlacingPasses << ",\n"
      << "  \"placing_pass_placements\": " << placed << ",\n"
      << "  \"guard_pass_us\": " << lane_us << ",\n"
      << "  \"guard_unskipped_pass_us\": " << unskipped_us << ",\n"
      << "  \"state_match\": " << (match ? "true" : "false") << "\n"
      << "}\n";

  if (!match) {
    std::cerr << "dispatch_hot_path: placements or state differ from the "
                 "deque pass\n";
    return 1;
  }
  if (unskipped_us > 2.0 * legacy_us) {
    std::cerr << "perf regression: lane pass without the memo " << unskipped_us
              << " us exceeds 2x the deque pass (" << legacy_us << " us)\n";
    return 1;
  }
  if (!baseline_path.empty()) {
    bool regressed = false;
    for (const auto& [name, us] :
         {std::pair{"guard_pass_us", lane_us},
          std::pair{"guard_unskipped_pass_us", unskipped_us}}) {
      const double base = parse_guard(baseline_path, name);
      std::cout << "regression guard (" << name << "): " << us
                << " us vs baseline " << base << " us (limit 3x)\n";
      if (base > 0.0 && us > 3.0 * base) {
        std::cerr << "perf regression: " << name << " " << us
                  << " us exceeds 3x the committed baseline (" << base
                  << " us)\n";
        regressed = true;
      }
    }
    if (regressed) return 1;
  }
  return 0;
}
