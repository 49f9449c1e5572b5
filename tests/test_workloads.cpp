#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>
#include <string>

#include "workloads/colmena.hpp"
#include "workloads/synthetic.hpp"
#include "workloads/topeft.hpp"
#include "workloads/trace.hpp"
#include "workloads/workload.hpp"

namespace {

using tora::core::ResourceKind;
using tora::workloads::Workload;

std::map<std::string, std::size_t> category_counts(const Workload& w) {
  std::map<std::string, std::size_t> counts;
  for (const auto& t : w.tasks) ++counts[t.category];
  return counts;
}

TEST(Workloads, AllNamesGenerate) {
  for (const auto& name : tora::workloads::all_workflow_names()) {
    const Workload w = tora::workloads::make_workload(name, 1);
    EXPECT_EQ(w.name, name);
    EXPECT_FALSE(w.tasks.empty());
  }
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(tora::workloads::make_workload("nope", 1),
               std::invalid_argument);
}

TEST(Workloads, DenseOrderedIds) {
  for (const auto& name : tora::workloads::all_workflow_names()) {
    const Workload w = tora::workloads::make_workload(name, 2);
    for (std::size_t i = 0; i < w.tasks.size(); ++i) {
      ASSERT_EQ(w.tasks[i].id, i) << name;
    }
  }
}

TEST(Workloads, DeterministicUnderSeed) {
  const Workload a = tora::workloads::make_workload("bimodal", 77);
  const Workload b = tora::workloads::make_workload("bimodal", 77);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].demand, b.tasks[i].demand);
    EXPECT_EQ(a.tasks[i].duration_s, b.tasks[i].duration_s);
  }
}

TEST(Workloads, SeedsChangeContent) {
  const Workload a = tora::workloads::make_workload("normal", 1);
  const Workload b = tora::workloads::make_workload("normal", 2);
  bool differs = false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    differs |= !(a.tasks[i].demand == b.tasks[i].demand);
  }
  EXPECT_TRUE(differs);
}

TEST(Workloads, SyntheticHas1000TasksOneCategory) {
  for (const char* name : {"normal", "uniform", "exponential", "bimodal",
                           "trimodal"}) {
    const Workload w = tora::workloads::make_workload(name, 3);
    EXPECT_EQ(w.tasks.size(), 1000u) << name;
    EXPECT_EQ(category_counts(w).size(), 1u) << name;
  }
}

TEST(Workloads, DemandsWithinWorkerCapacity) {
  const tora::core::ResourceVector cap{16.0, 65536.0, 65536.0, 0.0};
  for (const auto& name : tora::workloads::all_workflow_names()) {
    const Workload w = tora::workloads::make_workload(name, 4);
    for (const auto& t : w.tasks) {
      ASSERT_TRUE(t.demand.fits_within(cap))
          << name << " task " << t.id << " demand " << t.demand;
      ASSERT_GT(t.demand.cores(), 0.0);
      ASSERT_GT(t.demand.memory_mb(), 0.0);
      ASSERT_GT(t.demand.disk_mb(), 0.0);
      ASSERT_GT(t.duration_s, 0.0);
      ASSERT_GT(t.peak_fraction, 0.0);
      ASSERT_LE(t.peak_fraction, 1.0);
    }
  }
}

TEST(Workloads, TrimodalPhasesMoveNonMonotonically) {
  // Phases are high -> low -> mid (see synthetic.cpp): the moving
  // distribution that punishes global-max anchoring.
  const Workload w = tora::workloads::make_workload("trimodal", 5);
  double m1 = 0, m2 = 0, m3 = 0;
  for (std::size_t i = 0; i < 333; ++i) {
    m1 += w.tasks[i].demand.memory_mb();
  }
  for (std::size_t i = 334; i < 666; ++i) {
    m2 += w.tasks[i].demand.memory_mb();
  }
  for (std::size_t i = 667; i < 1000; ++i) {
    m3 += w.tasks[i].demand.memory_mb();
  }
  EXPECT_GT(m1 / 333, m3 / 333);  // high > mid
  EXPECT_LT(m2 / 332, m3 / 333);  // low < mid
}

TEST(Workloads, BimodalHasTwoMemoryClusters) {
  const Workload w = tora::workloads::make_workload("bimodal", 6);
  std::size_t low = 0, high = 0, mid = 0;
  for (const auto& t : w.tasks) {
    const double m = t.demand.memory_mb();
    if (m < 3500.0) ++low;
    else if (m > 4500.0) ++high;
    else ++mid;
  }
  EXPECT_GT(low, 300u);
  EXPECT_GT(high, 300u);
  EXPECT_LT(mid, 100u);
}

TEST(Workloads, ExponentialHasOutliers) {
  const Workload w = tora::workloads::make_workload("exponential", 7);
  double max_mem = 0.0, sum = 0.0;
  for (const auto& t : w.tasks) {
    max_mem = std::max(max_mem, t.demand.memory_mb());
    sum += t.demand.memory_mb();
  }
  const double mean = sum / static_cast<double>(w.tasks.size());
  EXPECT_GT(max_mem, 4.0 * mean);  // a genuine long tail
}

TEST(Workloads, ColmenaStructure) {
  const Workload w = tora::workloads::make_workload("colmena_xtb", 8);
  const auto counts = category_counts(w);
  EXPECT_EQ(counts.at("evaluate_mpnn"), 228u);
  EXPECT_EQ(counts.at("compute_atomization_energy"), 1000u);
  // Phasing: all evaluate_mpnn tasks come first.
  for (std::size_t i = 0; i < 228; ++i) {
    ASSERT_EQ(w.tasks[i].category, "evaluate_mpnn");
  }
  for (std::size_t i = 228; i < w.tasks.size(); ++i) {
    ASSERT_EQ(w.tasks[i].category, "compute_atomization_energy");
  }
}

TEST(Workloads, ColmenaResourceBands) {
  const Workload w = tora::workloads::make_workload("colmena_xtb", 9);
  for (const auto& t : w.tasks) {
    if (t.category == "evaluate_mpnn") {
      EXPECT_GE(t.demand.memory_mb(), 1000.0);
      EXPECT_LE(t.demand.memory_mb(), 1200.0);
    } else {
      EXPECT_LT(t.demand.memory_mb(), 400.0);
      EXPECT_GE(t.demand.cores(), 0.9);
      EXPECT_LE(t.demand.cores(), 3.6);
    }
    // Tiny disk footprint (~10 MB) for every task.
    EXPECT_LT(t.demand.disk_mb(), 20.0);
  }
}

TEST(Workloads, TopEFTStructure) {
  const Workload w = tora::workloads::make_workload("topeft", 10);
  const auto counts = category_counts(w);
  EXPECT_EQ(counts.at("preprocessing"), 363u);
  EXPECT_EQ(counts.at("processing"), 3994u);
  EXPECT_EQ(counts.at("accumulating"), 212u);
  EXPECT_EQ(w.tasks.size(), 363u + 3994u + 212u);
  // Preprocessing strictly first.
  for (std::size_t i = 0; i < 363; ++i) {
    ASSERT_EQ(w.tasks[i].category, "preprocessing");
  }
}

TEST(Workloads, TopEFTConstantDisk) {
  const Workload w = tora::workloads::make_workload("topeft", 11);
  for (const auto& t : w.tasks) {
    ASSERT_DOUBLE_EQ(t.demand.disk_mb(), 306.0);
  }
}

TEST(Workloads, TopEFTProcessingMemoryBimodal) {
  const Workload w = tora::workloads::make_workload("topeft", 12);
  std::size_t low = 0, high = 0;
  for (const auto& t : w.tasks) {
    if (t.category != "processing") continue;
    if (t.demand.memory_mb() < 520.0) ++low;
    else ++high;
  }
  EXPECT_GT(low, 1000u);
  EXPECT_GT(high, 1000u);
}

TEST(Workloads, TopEFTCoreOutliers) {
  const Workload w = tora::workloads::make_workload("topeft", 13);
  std::size_t small = 0, outliers = 0;
  for (const auto& t : w.tasks) {
    if (t.demand.cores() <= 1.05) ++small;
    if (t.demand.cores() > 1.2) ++outliers;
  }
  EXPECT_GT(small, w.tasks.size() * 8 / 10);
  EXPECT_GT(outliers, 50u);
}

TEST(Workloads, SyntheticSpecValidation) {
  tora::workloads::SyntheticSpec empty;
  empty.name = "empty";
  EXPECT_THROW(tora::workloads::generate_synthetic(empty, 1),
               std::invalid_argument);
  tora::workloads::SyntheticSpec null_dist;
  null_dist.name = "bad";
  null_dist.phases.push_back({});
  EXPECT_THROW(tora::workloads::generate_synthetic(null_dist, 1),
               std::invalid_argument);
}

// ------------------------------------------------------------------ trace

TEST(Trace, RoundTrip) {
  const Workload w = tora::workloads::make_workload("topeft", 14);
  std::stringstream buf;
  tora::workloads::write_trace(buf, w);
  const Workload r = tora::workloads::read_trace(buf, w.name);
  ASSERT_EQ(r.tasks.size(), w.tasks.size());
  for (std::size_t i = 0; i < w.tasks.size(); ++i) {
    EXPECT_EQ(r.tasks[i].category, w.tasks[i].category);
    EXPECT_DOUBLE_EQ(r.tasks[i].demand.cores(), w.tasks[i].demand.cores());
    EXPECT_DOUBLE_EQ(r.tasks[i].demand.memory_mb(),
                     w.tasks[i].demand.memory_mb());
    EXPECT_DOUBLE_EQ(r.tasks[i].duration_s, w.tasks[i].duration_s);
    EXPECT_DOUBLE_EQ(r.tasks[i].peak_fraction, w.tasks[i].peak_fraction);
  }
}

TEST(Trace, RejectsMalformedInput) {
  std::stringstream no_header("1,2,3\n");
  EXPECT_THROW(tora::workloads::read_trace(no_header), std::invalid_argument);
  std::stringstream bad_field(
      "id,category,cores,memory_mb,disk_mb,duration_s,peak_fraction\n"
      "0,c,abc,1,1,1,0.5\n");
  EXPECT_THROW(tora::workloads::read_trace(bad_field), std::invalid_argument);
  std::stringstream bad_id(
      "id,category,cores,memory_mb,disk_mb,duration_s,peak_fraction\n"
      "5,c,1,1,1,1,0.5\n");
  EXPECT_THROW(tora::workloads::read_trace(bad_id), std::invalid_argument);
}

TEST(Trace, RejectsNonFiniteAndUnrepresentableFields) {
  const std::string header =
      "id,category,cores,memory_mb,disk_mb,duration_s,peak_fraction\n";
  for (const char* row : {"0,c,nan,1,1,1,0.5\n", "0,c,1,inf,1,1,0.5\n",
                          "0,c,1,1,1,-inf,0.5\n", "0,c,1,1,1,1,nan\n",
                          "nan,c,1,1,1,1,0.5\n", "-1,c,1,1,1,1,0.5\n",
                          "1e300,c,1,1,1,1,0.5\n"}) {
    std::stringstream in(header + row);
    EXPECT_THROW(tora::workloads::read_trace(in), std::invalid_argument)
        << row;
  }
  std::stringstream ok(header + "0,c,1,1,1,1,0.5\n");
  EXPECT_EQ(tora::workloads::read_trace(ok).tasks.size(), 1u);
}

}  // namespace
