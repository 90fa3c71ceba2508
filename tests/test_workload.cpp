// Tests for the workload profiles and program-level features.

#include <gtest/gtest.h>

#include <set>

#include "arch/params.hpp"
#include "core/features.hpp"
#include "util/error.hpp"
#include "workload/workload.hpp"

namespace autopower::workload {
namespace {

/// The P block of a feature row: program features as the models see them.
std::vector<double> program_row(const ProgramFeatures& f) {
  return core::feature_vector(arch::ComponentKind::kBpTage,
                              {.hardware = false, .program = true},
                              arch::boom_config("C1"), arch::EventVector{},
                              f);
}

TEST(Workloads, EightRiscvTests) {
  const auto& ws = riscv_tests_workloads();
  ASSERT_EQ(ws.size(), 8u);
  const std::set<std::string> expected{"dhrystone", "median", "multiply",
                                       "qsort",     "rsort",  "towers",
                                       "spmv",      "vvadd"};
  std::set<std::string> actual;
  for (const auto& w : ws) actual.insert(w.name);
  EXPECT_EQ(actual, expected);
}

TEST(Workloads, TwoTraceWorkloads) {
  const auto& ws = trace_workloads();
  ASSERT_EQ(ws.size(), 2u);
  EXPECT_EQ(ws[0].name, "gemm");
  EXPECT_EQ(ws[1].name, "spmm");
  // Large workloads: millions of dynamic instructions (paper: millions of
  // cycles).
  EXPECT_GE(ws[0].instructions, 1'000'000u);
  EXPECT_GE(ws[1].instructions, 1'000'000u);
  // Phased kernels.
  EXPECT_GE(ws[0].phases.size(), 2u);
  EXPECT_GE(ws[1].phases.size(), 2u);
}

TEST(Workloads, MixFractionsAreSane) {
  auto check = [](const WorkloadProfile& w) {
    for (const auto& ph : w.phases) {
      const double sum = ph.branch_frac + ph.load_frac + ph.store_frac +
                         ph.fp_frac + ph.muldiv_frac;
      EXPECT_GT(ph.weight, 0.0) << w.name << "/" << ph.name;
      EXPECT_LT(sum, 1.0) << w.name << "/" << ph.name;
      EXPECT_GE(ph.ilp, 1.0) << w.name;
      EXPECT_GE(ph.branch_entropy, 0.0);
      EXPECT_LE(ph.branch_entropy, 1.0);
      EXPECT_GT(ph.dcache_footprint_kb, 0.0);
      EXPECT_GT(ph.icache_footprint_kb, 0.0);
      EXPECT_GE(ph.dcache_stride_frac, 0.0);
      EXPECT_LE(ph.dcache_stride_frac, 1.0);
    }
  };
  for (const auto& w : riscv_tests_workloads()) check(w);
  for (const auto& w : trace_workloads()) check(w);
}

TEST(Workloads, CharacteristicSignatures) {
  // Workload identities follow their classical characterisation.
  const auto& vvadd = workload_by_name("vvadd");
  const auto& qsort = workload_by_name("qsort");
  const auto& spmv = workload_by_name("spmv");
  // vvadd streams: lowest branch entropy, highest ILP.
  EXPECT_LT(vvadd.average(&WorkloadPhase::branch_entropy),
            qsort.average(&WorkloadPhase::branch_entropy));
  EXPECT_GT(vvadd.average(&WorkloadPhase::ilp),
            qsort.average(&WorkloadPhase::ilp));
  // spmv gathers: irregular (low stride fraction), fp-heavy.
  EXPECT_LT(spmv.average(&WorkloadPhase::dcache_stride_frac), 0.5);
  EXPECT_GT(spmv.average(&WorkloadPhase::fp_frac), 0.1);
  EXPECT_DOUBLE_EQ(qsort.average(&WorkloadPhase::fp_frac), 0.0);
}

TEST(Workloads, AverageIsWeighted) {
  WorkloadProfile w;
  w.name = "synthetic";
  WorkloadPhase a;
  a.weight = 3.0;
  a.ilp = 1.0;
  WorkloadPhase b;
  b.weight = 1.0;
  b.ilp = 5.0;
  w.phases = {a, b};
  EXPECT_DOUBLE_EQ(w.average(&WorkloadPhase::ilp), 2.0);
}

TEST(Workloads, AverageOnEmptyThrows) {
  WorkloadProfile w;
  w.name = "empty";
  EXPECT_THROW((void)w.average(&WorkloadPhase::ilp), util::InvalidArgument);
}

TEST(Workloads, LookupByName) {
  EXPECT_EQ(workload_by_name("gemm").name, "gemm");
  EXPECT_EQ(workload_by_name("towers").name, "towers");
  EXPECT_THROW((void)workload_by_name("doom"), util::InvalidArgument);
}

TEST(ProgramFeatures, VectorMatchesNames) {
  const auto f = program_features(workload_by_name("dhrystone"));
  const auto row = program_row(f);
  ASSERT_EQ(row.size(), ProgramFeatures::names().size());
  EXPECT_EQ(row.front(), f.log_instructions);
  EXPECT_EQ(row.back(), f.icache_footprint_kb);
}

TEST(ProgramFeatures, MicroarchitectureIndependent) {
  // Derived from the profile only — identical regardless of when/where
  // it's computed, and log-scaled instruction counts are finite.
  const auto a = program_features(workload_by_name("spmv"));
  const auto b = program_features(workload_by_name("spmv"));
  EXPECT_EQ(program_row(a), program_row(b));
  EXPECT_GT(a.log_instructions, 3.0);
  EXPECT_LT(a.log_instructions, 8.0);
}

TEST(ProgramFeatures, ReflectWorkloadMix) {
  const auto vvadd = program_features(workload_by_name("vvadd"));
  const auto towers = program_features(workload_by_name("towers"));
  EXPECT_GT(vvadd.load_frac, towers.load_frac);
  EXPECT_LT(vvadd.branch_frac, towers.branch_frac);
}

}  // namespace
}  // namespace autopower::workload
