// Rebuild hot-path perf smoke: per-observation cost of the bucketing
// engine as the record history grows, old engine vs the incremental one.
//
// The legacy series is a faithful replica of the pre-incremental
// BucketingPolicy (see git history of core/bucketing_policy.cpp): every
// observation does an O(n) sorted insert into an AoS record vector, and
// every predict rebuilds the full state — prefix sums over all n records,
// break-point computation, validated BucketSet construction, linear-scan
// sampling. The incremental series run the production engine twice:
//
//   * k = 1 (default schedule): rebuild before every predict, exactly the
//     legacy semantics. Every RNG draw must match the legacy series
//     BITWISE — the checksum gate below fails the binary otherwise.
//   * scheduled (growth = 1/64): rebuild points spread out geometrically
//     with the history size; observes stage in O(1) and most predicts
//     sample the standing bucket set. The final forced flush must produce
//     the legacy engine's exact bucket configuration (same record
//     multiset), which the second checksum gate verifies.
//
// A second table runs exhaustive_bucketing at k = 1 against a legacy
// replica whose break points come from the per-candidate forward scans EB
// used before it scored candidates from the store's prefix sums: one
// BucketSet::from_sorted (an O(n) pass) per candidate bucket count. Draws
// and final buckets must again match bitwise.
//
// Emits BENCH_rebuild.json (CI uploads it as the perf-smoke artifact) and,
// when given a committed baseline, enforces 3x regression guards on the
// greedy scheduled-engine and the EB k = 1 ns/cycle at the largest history.
//
// Usage: policy_rebuild_hot_path [out.json] [baseline.json]

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/bucket.hpp"
#include "core/exhaustive_bucketing.hpp"
#include "core/greedy_bucketing.hpp"
#include "core/record.hpp"
#include "core/record_store.hpp"
#include "util/rng.hpp"

namespace {

using tora::core::BucketSet;
using tora::core::ExhaustiveBucketing;
using tora::core::GreedyBucketing;
using tora::core::Record;
using tora::core::SortedRecords;
using tora::util::Rng;

std::uint64_t mix(std::uint64_t h, double v) {
  return (h ^ std::bit_cast<std::uint64_t>(v)) * 1099511628211ull;
}

std::uint64_t bucket_checksum(const BucketSet& set) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto& b : set.buckets()) {
    h = mix(h, b.rep);
    h = mix(h, b.prob);
    h = mix(h, b.weighted_mean);
    h = mix(h, b.sig_sum);
  }
  return h;
}

using BreakFn = std::function<std::vector<std::size_t>(const SortedRecords&)>;

/// EB's break points (default cap of 10 buckets) as computed before
/// prefix-sum scoring: every candidate built with a forward-scan BucketSet
/// and scored, strict < over b.
std::vector<std::size_t> per_candidate_scan_ends(const SortedRecords& sorted) {
  const std::size_t n = sorted.size();
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> best_ends{n - 1};
  for (std::size_t b = 1; b <= std::min<std::size_t>(10, n); ++b) {
    auto ends = ExhaustiveBucketing::even_spacing_ends(sorted.values, b);
    const double cost = tora::core::expected_waste(
        BucketSet::from_sorted(sorted.values, sorted.significances, ends,
                               sorted.sig_prefix.back()));
    if (cost < best_cost) {
      best_cost = cost;
      best_ends = std::move(ends);
    }
  }
  return best_ends;
}

/// The pre-incremental engine: sorted insertion per observe, full rebuild
/// per predict. Break indices come from `breaks` (a scratch policy or a
/// replica; break computation consumes no sampler state), so the replica
/// pays exactly the break-point cost the old engine paid in-line.
class LegacyEngine {
 public:
  LegacyEngine(std::uint64_t sampler_seed, BreakFn breaks)
      : rng_(sampler_seed), breaks_(std::move(breaks)) {}

  void observe(double value, double significance) {
    const auto pos = std::upper_bound(
        records_.begin(), records_.end(), value,
        [](double v, const Record& r) { return v < r.value; });
    records_.insert(pos, {value, significance});
    dirty_ = true;
  }

  double predict() {
    if (dirty_ || !built_) rebuild();
    return set_.sample_allocation(rng_);
  }

  const BucketSet& buckets() {
    if (dirty_ || !built_) rebuild();
    return set_;
  }

  std::size_t rebuild_count() const { return rebuilds_; }

 private:
  void rebuild() {
    const std::size_t n = records_.size();
    values_.resize(n);
    sigs_.resize(n);
    sig_prefix_.assign(n + 1, 0.0);
    vsig_prefix_.assign(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      values_[i] = records_[i].value;
      sigs_[i] = records_[i].significance;
      sig_prefix_[i + 1] = sig_prefix_[i] + sigs_[i];
      vsig_prefix_[i + 1] = vsig_prefix_[i] + values_[i] * sigs_[i];
    }
    const SortedRecords view{values_, sigs_, sig_prefix_, vsig_prefix_};
    set_ = BucketSet::from_break_indices(records_, breaks_(view));
    dirty_ = false;
    built_ = true;
    ++rebuilds_;
  }

  Rng rng_;
  BreakFn breaks_;
  std::vector<Record> records_;
  std::vector<double> values_, sigs_, sig_prefix_, vsig_prefix_;
  BucketSet set_;
  bool dirty_ = false;
  bool built_ = false;
  std::size_t rebuilds_ = 0;
};

std::vector<double> make_values(std::size_t n) {
  Rng rng(2024);
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double x = rng.normal(8192.0, 2048.0);
    if (x < 1.0) x = 1.0;
    v.push_back(x);
  }
  return v;
}

struct SeriesResult {
  double ns_per_cycle = 0.0;
  double rebuilds_per_s = 0.0;
  std::size_t exact_rescores = 0;  // EB rebuilds that took the exact path
  std::uint64_t draw_checksum = 0;
  std::uint64_t final_buckets = 0;
};

constexpr std::uint64_t kSamplerSeed = 77;

template <typename Engine, typename Finish>
SeriesResult run_series(Engine& engine, const std::vector<double>& values,
                        std::size_t history, std::size_t cycles,
                        std::size_t rebuilds_before, Finish finish) {
  for (std::size_t i = 0; i < history; ++i) {
    engine.observe(values[i], static_cast<double>(i) + 1.0);
  }
  SeriesResult r;
  std::uint64_t h = 1469598103934665603ull;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < cycles; ++c) {
    engine.observe(values[history + c],
                   static_cast<double>(history + c) + 1.0);
    h = mix(h, engine.predict());
  }
  const auto dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  r.ns_per_cycle = dt * 1e9 / static_cast<double>(cycles);
  r.rebuilds_per_s =
      static_cast<double>(engine.rebuild_count() - rebuilds_before) / dt;
  r.draw_checksum = h;
  r.final_buckets = finish(engine);
  return r;
}

struct SizeRow {
  std::size_t history = 0;
  std::size_t cycles = 0;
  SeriesResult legacy, k1, sched;
  SeriesResult eb_legacy, eb_k1;
};

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
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_rebuild.json";
  const std::string baseline_path = argc > 2 ? argv[2] : "";

  const std::vector<std::size_t> sizes{1000, 10000, 100000};
  std::vector<SizeRow> rows;
  bool all_match = true;

  for (std::size_t n : sizes) {
    SizeRow row;
    row.history = n;
    row.cycles = std::clamp<std::size_t>(2000000 / n, 50, 2000);
    const auto values = make_values(n + row.cycles);

    {
      GreedyBucketing oracle{Rng(0)};
      LegacyEngine legacy(kSamplerSeed, [&oracle](const SortedRecords& v) {
        return oracle.break_indices(v);
      });
      row.legacy = run_series(legacy, values, n, row.cycles, 0,
                              [](LegacyEngine& e) {
                                return bucket_checksum(e.buckets());
                              });
    }
    {
      GreedyBucketing k1{Rng(kSamplerSeed)};
      row.k1 = run_series(k1, values, n, row.cycles, k1.rebuild_count(),
                          [](GreedyBucketing& e) {
                            return bucket_checksum(e.fresh_buckets());
                          });
    }
    {
      GreedyBucketing sched{Rng(kSamplerSeed)};
      sched.set_rebuild_schedule({1.0 / 64.0});
      row.sched = run_series(sched, values, n, row.cycles,
                             sched.rebuild_count(), [](GreedyBucketing& e) {
                               return bucket_checksum(e.fresh_buckets());
                             });
    }

    {
      LegacyEngine legacy(kSamplerSeed, per_candidate_scan_ends);
      row.eb_legacy = run_series(legacy, values, n, row.cycles, 0,
                                 [](LegacyEngine& e) {
                                   return bucket_checksum(e.buckets());
                                 });
    }
    {
      ExhaustiveBucketing k1{Rng(kSamplerSeed)};
      const std::size_t rescores_before = k1.exact_rescore_count();
      row.eb_k1 = run_series(k1, values, n, row.cycles, k1.rebuild_count(),
                             [](ExhaustiveBucketing& e) {
                               return bucket_checksum(e.fresh_buckets());
                             });
      row.eb_k1.exact_rescores = k1.exact_rescore_count() - rescores_before;
    }

    const bool k1_match =
        row.k1.draw_checksum == row.legacy.draw_checksum &&
        row.k1.final_buckets == row.legacy.final_buckets;
    const bool eb_match =
        row.eb_k1.draw_checksum == row.eb_legacy.draw_checksum &&
        row.eb_k1.final_buckets == row.eb_legacy.final_buckets;
    const bool sched_match =
        row.sched.final_buckets == row.legacy.final_buckets;
    if (!k1_match) {
      std::cerr << "history " << n
                << ": k=1 engine diverged from the legacy engine\n";
      all_match = false;
    }
    if (!sched_match) {
      std::cerr << "history " << n
                << ": scheduled engine's flushed buckets diverged\n";
      all_match = false;
    }
    if (!eb_match) {
      std::cerr << "history " << n
                << ": EB k=1 engine diverged from the per-candidate scan\n";
      all_match = false;
    }
    std::cout << "history " << n << " (" << row.cycles << " cycles)\n"
              << "  legacy:      " << row.legacy.ns_per_cycle
              << " ns/cycle, " << row.legacy.rebuilds_per_s << " rebuilds/s\n"
              << "  incr (k=1):  " << row.k1.ns_per_cycle << " ns/cycle, "
              << row.k1.rebuilds_per_s << " rebuilds/s, draws "
              << (k1_match ? "match" : "MISMATCH") << "\n"
              << "  incr (sched):" << row.sched.ns_per_cycle
              << " ns/cycle, " << row.sched.rebuilds_per_s
              << " rebuilds/s, flush " << (sched_match ? "match" : "MISMATCH")
              << ", speedup "
              << row.legacy.ns_per_cycle / row.sched.ns_per_cycle << "x\n"
              << "  EB legacy:   " << row.eb_legacy.ns_per_cycle
              << " ns/cycle\n"
              << "  EB (k=1):    " << row.eb_k1.ns_per_cycle
              << " ns/cycle, " << row.eb_k1.exact_rescores
              << " exact re-scores, draws " << (eb_match ? "match" : "MISMATCH")
              << ", speedup "
              << row.eb_legacy.ns_per_cycle / row.eb_k1.ns_per_cycle << "x\n";
    rows.push_back(row);
  }

  const SizeRow& top = rows.back();
  const double speedup_max = top.legacy.ns_per_cycle / top.sched.ns_per_cycle;
  const double guard = top.sched.ns_per_cycle;
  const double eb_guard = top.eb_k1.ns_per_cycle;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"benchmark\": \"policy_rebuild_hot_path\",\n"
      << "  \"policy\": \"greedy_bucketing\",\n"
      << "  \"scheduled_growth\": " << 1.0 / 64.0 << ",\n"
      << "  \"series\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SizeRow& r = rows[i];
    const bool k1_match = r.k1.draw_checksum == r.legacy.draw_checksum;
    out << "    {\"history\": " << r.history << ", \"cycles\": " << r.cycles
        << ",\n"
        << "     \"legacy_ns_per_cycle\": " << r.legacy.ns_per_cycle
        << ", \"legacy_rebuilds_per_s\": " << r.legacy.rebuilds_per_s << ",\n"
        << "     \"incremental_k1_ns_per_cycle\": " << r.k1.ns_per_cycle
        << ", \"incremental_k1_rebuilds_per_s\": " << r.k1.rebuilds_per_s
        << ",\n"
        << "     \"incremental_scheduled_ns_per_cycle\": "
        << r.sched.ns_per_cycle << ", \"incremental_scheduled_rebuilds_per_s\": "
        << r.sched.rebuilds_per_s << ",\n"
        << "     \"speedup_k1\": " << r.legacy.ns_per_cycle / r.k1.ns_per_cycle
        << ", \"speedup_scheduled\": "
        << r.legacy.ns_per_cycle / r.sched.ns_per_cycle << ",\n"
        << "     \"k1_draws_match\": " << (k1_match ? "true" : "false")
        << ", \"scheduled_flush_matches\": "
        << (r.sched.final_buckets == r.legacy.final_buckets ? "true" : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"exhaustive_bucketing_k1\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SizeRow& r = rows[i];
    out << "    {\"history\": " << r.history << ", \"cycles\": " << r.cycles
        << ",\n"
        << "     \"legacy_ns_per_cycle\": " << r.eb_legacy.ns_per_cycle
        << ", \"k1_ns_per_cycle\": " << r.eb_k1.ns_per_cycle
        << ", \"speedup\": "
        << r.eb_legacy.ns_per_cycle / r.eb_k1.ns_per_cycle
        << ", \"k1_exact_rescores\": " << r.eb_k1.exact_rescores << ",\n"
        << "     \"draws_match\": "
        << (r.eb_k1.draw_checksum == r.eb_legacy.draw_checksum &&
                    r.eb_k1.final_buckets == r.eb_legacy.final_buckets
                ? "true"
                : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"speedup_at_max_history\": " << speedup_max << ",\n"
      << "  \"guard_ns_per_cycle\": " << guard << ",\n"
      << "  \"eb_guard_ns_per_cycle\": " << eb_guard << ",\n"
      << "  \"checksums_match\": " << (all_match ? "true" : "false") << "\n"
      << "}\n";

  if (!all_match) return 1;

  if (!baseline_path.empty()) {
    bool regressed = false;
    const auto check = [&](const char* what, const std::string& key,
                           double now) {
      const double base = parse_guard(baseline_path, key);
      if (base > 0.0 && now > 3.0 * base) {
        std::cerr << "perf regression: " << what << " " << now
                  << " ns/cycle at " << top.history
                  << " records exceeds 3x the committed baseline (" << base
                  << " ns/cycle)\n";
        regressed = true;
        return;
      }
      std::cout << "regression guard (" << what << "): " << now
                << " ns/cycle vs baseline " << base
                << " ns/cycle (limit 3x)\n";
    };
    check("greedy scheduled engine", "guard_ns_per_cycle", guard);
    check("EB k=1 engine", "eb_guard_ns_per_cycle", eb_guard);
    if (regressed) return 1;
  }
  return 0;
}
