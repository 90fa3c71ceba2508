// Workload profiles — the stand-in for the riscv-tests binaries (and the
// GEMM/SPMM kernels of the power-trace experiment).
//
// A workload is described by its dynamic-instruction profile: phases with
// an instruction mix, inherent ILP, branch predictability, and cache
// footprints.  The performance simulator turns a profile plus a hardware
// configuration into event parameters; the profile alone also yields the
// microarchitecture-independent "program-level features" AutoPower feeds
// to its activity models (paper Sec. II-B: features unaffected by the
// performance simulator's inaccuracy).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace autopower::workload {

/// One execution phase of a workload.
struct WorkloadPhase {
  std::string name;
  /// Fraction of the workload's dynamic instructions spent in this phase.
  double weight = 1.0;
  /// Inherent instruction-level parallelism (independent ops per cycle the
  /// program offers an infinitely wide machine).
  double ilp = 2.0;
  // Dynamic instruction mix (fractions of all instructions; the remainder
  // is plain integer ALU work).
  double branch_frac = 0.15;
  double load_frac = 0.20;
  double store_frac = 0.10;
  double fp_frac = 0.0;
  double muldiv_frac = 0.02;
  /// Inherent branch unpredictability in [0, 1]: 0 = perfectly regular
  /// loops, 1 = data-dependent chaos.
  double branch_entropy = 0.3;
  /// Data working-set size and access regularity.
  double dcache_footprint_kb = 16.0;
  double dcache_stride_frac = 0.7;  ///< fraction of sequential/strided refs
  /// Code working-set size.
  double icache_footprint_kb = 4.0;
  /// Average dependent-load latency sensitivity (pointer chasing).
  double mem_serialisation = 0.2;
};

/// A complete workload: named phases plus total dynamic instructions.
struct WorkloadProfile {
  std::string name;
  std::uint64_t instructions = 100'000;
  std::vector<WorkloadPhase> phases;

  /// Weighted average of a phase quantity over the whole run.
  [[nodiscard]] double average(double WorkloadPhase::* field) const;
};

/// Program-level feature vector (microarchitecture independent).
struct ProgramFeatures {
  double log_instructions = 0.0;
  double branch_frac = 0.0;
  double load_frac = 0.0;
  double store_frac = 0.0;
  double fp_frac = 0.0;
  double muldiv_frac = 0.0;
  double ilp = 0.0;
  double branch_entropy = 0.0;
  double dcache_footprint_kb = 0.0;
  double icache_footprint_kb = 0.0;

  [[nodiscard]] static std::vector<std::string> names();
  /// Field-wise ==, so a NaN field makes two feature sets unequal.
  bool operator==(const ProgramFeatures&) const = default;
};

/// Extracts the program-level features of a profile.
[[nodiscard]] ProgramFeatures program_features(const WorkloadProfile& profile);

/// The eight riscv-tests evaluation workloads of the paper:
/// dhrystone, median, multiply, qsort, rsort, towers, spmv, vvadd.
[[nodiscard]] const std::vector<WorkloadProfile>& riscv_tests_workloads();

/// The two large power-trace workloads (paper Table IV): GEMM and SPMM,
/// multi-million-cycle phased kernels.
[[nodiscard]] const std::vector<WorkloadProfile>& trace_workloads();

/// Extension workloads NOT part of the paper's evaluation grid (fft,
/// coremark): used to study generalisation to workloads the models never
/// saw during training (bench_ext_unseen_workloads).
[[nodiscard]] const std::vector<WorkloadProfile>& extension_workloads();

/// Looks up any known workload by name; throws if unknown.
[[nodiscard]] const WorkloadProfile& workload_by_name(std::string_view name);

}  // namespace autopower::workload
