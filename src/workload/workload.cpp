#include "workload/workload.hpp"

#include <cmath>

#include "util/error.hpp"

namespace autopower::workload {

double WorkloadProfile::average(double WorkloadPhase::* field) const {
  AP_REQUIRE(!phases.empty(), "workload has no phases: " + name);
  double acc = 0.0;
  double wsum = 0.0;
  for (const auto& ph : phases) {
    acc += ph.weight * (ph.*field);
    wsum += ph.weight;
  }
  return acc / wsum;
}

std::vector<std::string> ProgramFeatures::names() {
  return {"P.LogInstructions", "P.BranchFrac",   "P.LoadFrac",
          "P.StoreFrac",       "P.FpFrac",       "P.MulDivFrac",
          "P.Ilp",             "P.BranchEntropy", "P.DcacheFootprintKb",
          "P.IcacheFootprintKb"};
}

ProgramFeatures program_features(const WorkloadProfile& profile) {
  ProgramFeatures f;
  f.log_instructions =
      std::log10(static_cast<double>(profile.instructions));
  f.branch_frac = profile.average(&WorkloadPhase::branch_frac);
  f.load_frac = profile.average(&WorkloadPhase::load_frac);
  f.store_frac = profile.average(&WorkloadPhase::store_frac);
  f.fp_frac = profile.average(&WorkloadPhase::fp_frac);
  f.muldiv_frac = profile.average(&WorkloadPhase::muldiv_frac);
  f.ilp = profile.average(&WorkloadPhase::ilp);
  f.branch_entropy = profile.average(&WorkloadPhase::branch_entropy);
  f.dcache_footprint_kb =
      profile.average(&WorkloadPhase::dcache_footprint_kb);
  f.icache_footprint_kb =
      profile.average(&WorkloadPhase::icache_footprint_kb);
  return f;
}

namespace {

WorkloadPhase phase(std::string name, double weight) {
  WorkloadPhase p;
  p.name = std::move(name);
  p.weight = weight;
  return p;
}

std::vector<WorkloadProfile> make_riscv_tests() {
  std::vector<WorkloadProfile> out;

  {  // dhrystone: the classic branchy integer benchmark, tiny footprint.
    WorkloadProfile w;
    w.name = "dhrystone";
    w.instructions = 360'000;
    auto p = phase("main", 1.0);
    p.ilp = 2.2;
    p.branch_frac = 0.17;
    p.load_frac = 0.21;
    p.store_frac = 0.11;
    p.muldiv_frac = 0.01;
    p.branch_entropy = 0.25;
    p.dcache_footprint_kb = 6.0;
    p.dcache_stride_frac = 0.75;
    p.icache_footprint_kb = 6.0;
    p.mem_serialisation = 0.15;
    w.phases = {p};
    out.push_back(std::move(w));
  }
  {  // median: 1-D median filter over a vector; load heavy, compare chains.
    WorkloadProfile w;
    w.name = "median";
    w.instructions = 140'000;
    auto p = phase("filter", 1.0);
    p.ilp = 2.0;
    p.branch_frac = 0.16;
    p.load_frac = 0.30;
    p.store_frac = 0.08;
    p.branch_entropy = 0.45;
    p.dcache_footprint_kb = 8.0;
    p.dcache_stride_frac = 0.85;
    p.icache_footprint_kb = 2.0;
    p.mem_serialisation = 0.25;
    w.phases = {p};
    out.push_back(std::move(w));
  }
  {  // multiply: software multiply via shift-add loops; regular branches.
    WorkloadProfile w;
    w.name = "multiply";
    w.instructions = 220'000;
    auto p = phase("shift-add", 1.0);
    p.ilp = 1.8;
    p.branch_frac = 0.22;
    p.load_frac = 0.12;
    p.store_frac = 0.05;
    p.muldiv_frac = 0.00;
    p.branch_entropy = 0.18;
    p.dcache_footprint_kb = 3.0;
    p.dcache_stride_frac = 0.9;
    p.icache_footprint_kb = 1.5;
    p.mem_serialisation = 0.1;
    w.phases = {p};
    out.push_back(std::move(w));
  }
  {  // qsort: recursive quicksort; data-dependent branches, mid footprint.
    WorkloadProfile w;
    w.name = "qsort";
    w.instructions = 260'000;
    auto p = phase("partition", 1.0);
    p.ilp = 1.7;
    p.branch_frac = 0.19;
    p.load_frac = 0.26;
    p.store_frac = 0.13;
    p.branch_entropy = 0.65;
    p.dcache_footprint_kb = 24.0;
    p.dcache_stride_frac = 0.55;
    p.icache_footprint_kb = 2.5;
    p.mem_serialisation = 0.3;
    w.phases = {p};
    out.push_back(std::move(w));
  }
  {  // rsort: radix sort; streaming passes, very regular branches.
    WorkloadProfile w;
    w.name = "rsort";
    w.instructions = 300'000;
    auto p = phase("radix-pass", 1.0);
    p.ilp = 2.6;
    p.branch_frac = 0.10;
    p.load_frac = 0.31;
    p.store_frac = 0.18;
    p.branch_entropy = 0.12;
    p.dcache_footprint_kb = 64.0;
    p.dcache_stride_frac = 0.8;
    p.icache_footprint_kb = 2.0;
    p.mem_serialisation = 0.15;
    w.phases = {p};
    out.push_back(std::move(w));
  }
  {  // towers: Towers of Hanoi; deep recursion, low ILP, predictable.
    WorkloadProfile w;
    w.name = "towers";
    w.instructions = 120'000;
    auto p = phase("recurse", 1.0);
    p.ilp = 1.4;
    p.branch_frac = 0.20;
    p.load_frac = 0.24;
    p.store_frac = 0.16;
    p.branch_entropy = 0.22;
    p.dcache_footprint_kb = 4.0;
    p.dcache_stride_frac = 0.6;
    p.icache_footprint_kb = 1.5;
    p.mem_serialisation = 0.35;
    w.phases = {p};
    out.push_back(std::move(w));
  }
  {  // spmv: sparse matrix-vector product; irregular gathers, some FP.
    WorkloadProfile w;
    w.name = "spmv";
    w.instructions = 240'000;
    auto p = phase("gather", 1.0);
    p.ilp = 2.1;
    p.branch_frac = 0.09;
    p.load_frac = 0.34;
    p.store_frac = 0.06;
    p.fp_frac = 0.24;
    p.branch_entropy = 0.3;
    p.dcache_footprint_kb = 128.0;
    p.dcache_stride_frac = 0.3;
    p.icache_footprint_kb = 1.5;
    p.mem_serialisation = 0.5;
    w.phases = {p};
    out.push_back(std::move(w));
  }
  {  // vvadd: streaming vector add; wide ILP, near-zero branch entropy.
    WorkloadProfile w;
    w.name = "vvadd";
    w.instructions = 200'000;
    auto p = phase("stream", 1.0);
    p.ilp = 3.6;
    p.branch_frac = 0.07;
    p.load_frac = 0.40;
    p.store_frac = 0.20;
    p.branch_entropy = 0.05;
    p.dcache_footprint_kb = 192.0;
    p.dcache_stride_frac = 1.0;
    p.icache_footprint_kb = 1.0;
    p.mem_serialisation = 0.05;
    w.phases = {p};
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<WorkloadProfile> make_trace_workloads() {
  std::vector<WorkloadProfile> out;

  {  // GEMM: blocked dense matrix multiply — alternating pack/compute
    // phases give the power trace its max/min structure.
    WorkloadProfile w;
    w.name = "gemm";
    w.instructions = 3'200'000;
    auto pack = phase("pack", 0.12);
    pack.ilp = 2.8;
    pack.branch_frac = 0.08;
    pack.load_frac = 0.38;
    pack.store_frac = 0.24;
    pack.fp_frac = 0.02;
    pack.branch_entropy = 0.08;
    pack.dcache_footprint_kb = 256.0;
    pack.dcache_stride_frac = 0.95;
    pack.icache_footprint_kb = 1.0;
    pack.mem_serialisation = 0.1;
    auto compute = phase("compute", 0.80);
    compute.ilp = 3.4;
    compute.branch_frac = 0.05;
    compute.load_frac = 0.30;
    compute.store_frac = 0.06;
    compute.fp_frac = 0.46;
    compute.branch_entropy = 0.04;
    compute.dcache_footprint_kb = 24.0;  // blocked: tile fits in cache
    compute.dcache_stride_frac = 0.95;
    compute.icache_footprint_kb = 0.8;
    compute.mem_serialisation = 0.05;
    auto writeback = phase("writeback", 0.08);
    writeback.ilp = 2.4;
    writeback.branch_frac = 0.07;
    writeback.load_frac = 0.20;
    writeback.store_frac = 0.36;
    writeback.fp_frac = 0.04;
    writeback.branch_entropy = 0.06;
    writeback.dcache_footprint_kb = 256.0;
    writeback.dcache_stride_frac = 1.0;
    writeback.icache_footprint_kb = 0.8;
    writeback.mem_serialisation = 0.1;
    w.phases = {pack, compute, writeback};
    out.push_back(std::move(w));
  }
  {  // SPMM: sparse x dense matrix multiply — irregular row phases
    // interleaved with dense accumulation bursts.
    WorkloadProfile w;
    w.name = "spmm";
    w.instructions = 2'600'000;
    auto index = phase("index-walk", 0.30);
    index.ilp = 1.6;
    index.branch_frac = 0.14;
    index.load_frac = 0.36;
    index.store_frac = 0.05;
    index.fp_frac = 0.04;
    index.branch_entropy = 0.55;
    index.dcache_footprint_kb = 320.0;
    index.dcache_stride_frac = 0.25;
    index.icache_footprint_kb = 1.5;
    index.mem_serialisation = 0.6;
    auto accum = phase("accumulate", 0.62);
    accum.ilp = 2.9;
    accum.branch_frac = 0.07;
    accum.load_frac = 0.32;
    accum.store_frac = 0.12;
    accum.fp_frac = 0.34;
    accum.branch_entropy = 0.18;
    accum.dcache_footprint_kb = 48.0;
    accum.dcache_stride_frac = 0.7;
    accum.icache_footprint_kb = 1.2;
    accum.mem_serialisation = 0.2;
    auto flush = phase("row-flush", 0.08);
    flush.ilp = 2.2;
    flush.branch_frac = 0.09;
    flush.load_frac = 0.18;
    flush.store_frac = 0.34;
    flush.fp_frac = 0.05;
    flush.branch_entropy = 0.1;
    flush.dcache_footprint_kb = 128.0;
    flush.dcache_stride_frac = 0.9;
    flush.icache_footprint_kb = 1.0;
    flush.mem_serialisation = 0.12;
    w.phases = {index, accum, flush};
    out.push_back(std::move(w));
  }
  return out;
}

std::vector<WorkloadProfile> make_extension_workloads() {
  std::vector<WorkloadProfile> out;

  {  // fft: butterfly stages — fp heavy with strided bit-reversed access.
    WorkloadProfile w;
    w.name = "fft";
    w.instructions = 280'000;
    auto p = phase("butterfly", 1.0);
    p.ilp = 2.7;
    p.branch_frac = 0.08;
    p.load_frac = 0.30;
    p.store_frac = 0.16;
    p.fp_frac = 0.34;
    p.muldiv_frac = 0.0;
    p.branch_entropy = 0.1;
    p.dcache_footprint_kb = 96.0;
    p.dcache_stride_frac = 0.5;  // bit-reversed addressing
    p.icache_footprint_kb = 1.2;
    p.mem_serialisation = 0.15;
    w.phases = {p};
    out.push_back(std::move(w));
  }
  {  // coremark: mixed list/matrix/state-machine kernel, integer only.
    WorkloadProfile w;
    w.name = "coremark";
    w.instructions = 420'000;
    auto list = phase("list", 0.4);
    list.ilp = 1.6;
    list.branch_frac = 0.21;
    list.load_frac = 0.27;
    list.store_frac = 0.09;
    list.branch_entropy = 0.5;
    list.dcache_footprint_kb = 12.0;
    list.dcache_stride_frac = 0.35;  // pointer chasing
    list.icache_footprint_kb = 5.0;
    list.mem_serialisation = 0.55;
    auto matrix = phase("matrix", 0.35);
    matrix.ilp = 2.8;
    matrix.branch_frac = 0.09;
    matrix.load_frac = 0.28;
    matrix.store_frac = 0.12;
    matrix.muldiv_frac = 0.06;
    matrix.branch_entropy = 0.08;
    matrix.dcache_footprint_kb = 10.0;
    matrix.dcache_stride_frac = 0.9;
    matrix.icache_footprint_kb = 2.0;
    matrix.mem_serialisation = 0.1;
    auto state = phase("state-machine", 0.25);
    state.ilp = 1.5;
    state.branch_frac = 0.26;
    state.load_frac = 0.18;
    state.store_frac = 0.07;
    state.branch_entropy = 0.6;
    state.dcache_footprint_kb = 2.0;
    state.dcache_stride_frac = 0.7;
    state.icache_footprint_kb = 4.0;
    state.mem_serialisation = 0.25;
    w.phases = {list, matrix, state};
    out.push_back(std::move(w));
  }
  return out;
}

}  // namespace

const std::vector<WorkloadProfile>& riscv_tests_workloads() {
  static const std::vector<WorkloadProfile> workloads = make_riscv_tests();
  return workloads;
}

const std::vector<WorkloadProfile>& trace_workloads() {
  static const std::vector<WorkloadProfile> workloads = make_trace_workloads();
  return workloads;
}

const std::vector<WorkloadProfile>& extension_workloads() {
  static const std::vector<WorkloadProfile> workloads =
      make_extension_workloads();
  return workloads;
}

const WorkloadProfile& workload_by_name(std::string_view name) {
  for (const auto& w : riscv_tests_workloads()) {
    if (w.name == name) return w;
  }
  for (const auto& w : trace_workloads()) {
    if (w.name == name) return w;
  }
  for (const auto& w : extension_workloads()) {
    if (w.name == name) return w;
  }
  throw util::InvalidArgument("unknown workload: " + std::string(name));
}

}  // namespace autopower::workload
