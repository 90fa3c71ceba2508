// Tests for the out-of-order performance simulator (gem5 stand-in):
// determinism, event-stream consistency invariants, configuration
// sensitivity, and trace/aggregate agreement.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "sim/perfsim.hpp"
#include "util/error.hpp"

namespace autopower::sim {
namespace {

using arch::EventKind;
using arch::HwParam;

const workload::WorkloadProfile& wl(const char* name) {
  return workload::workload_by_name(name);
}

TEST(PerfSim, Deterministic) {
  PerfSimulator a;
  PerfSimulator b;
  const auto& cfg = arch::boom_config("C6");
  const auto ea = a.simulate(cfg, wl("qsort"));
  const auto eb = b.simulate(cfg, wl("qsort"));
  for (std::size_t i = 0; i < arch::kNumEvents; ++i) {
    const auto k = static_cast<EventKind>(i);
    EXPECT_DOUBLE_EQ(ea[k], eb[k]) << arch::event_name(k);
  }
}

TEST(PerfSim, InstructionsMatchWorkload) {
  PerfSimulator sim;
  const auto& w = wl("dhrystone");
  const auto ev = sim.simulate(arch::boom_config("C4"), w);
  EXPECT_NEAR(ev[EventKind::kInstructions],
              static_cast<double>(w.instructions),
              0.01 * static_cast<double>(w.instructions));
}

TEST(PerfSim, IpcWithinStructuralBounds) {
  PerfSimulator sim;
  for (const auto& cfg : arch::boom_design_space()) {
    for (const auto& w : workload::riscv_tests_workloads()) {
      const auto ev = sim.simulate(cfg, w);
      const double ipc = ev.rate(EventKind::kInstructions);
      EXPECT_GT(ipc, 0.0) << cfg.name() << "/" << w.name;
      EXPECT_LE(ipc, cfg.value_d(HwParam::kDecodeWidth) + 1e-9)
          << cfg.name() << "/" << w.name;
    }
  }
}

TEST(PerfSim, EventConsistencyInvariants) {
  PerfSimulator sim;
  for (const char* cname : {"C1", "C8", "C15"}) {
    const auto& cfg = arch::boom_config(cname);
    for (const auto& w : workload::riscv_tests_workloads()) {
      const auto ev = sim.simulate(cfg, w);
      // Speculative streams are supersets of the committed stream.
      EXPECT_GE(ev[EventKind::kDecodedUops],
                ev[EventKind::kCommittedUops] * 0.999);
      // Misses never exceed accesses.
      EXPECT_LE(ev[EventKind::kICacheMisses],
                ev[EventKind::kICacheAccesses] + 1e-9);
      EXPECT_LE(ev[EventKind::kDcacheMisses],
                ev[EventKind::kDcacheAccesses] + 1e-9);
      EXPECT_LE(ev[EventKind::kDtlbMisses],
                ev[EventKind::kDtlbAccesses] + 1e-9);
      // Mispredicts never exceed branches.
      EXPECT_LE(ev[EventKind::kBpMispredicts],
                ev[EventKind::kBranches] + 1e-9);
      // Occupancy averages stay within the structures.
      EXPECT_LE(ev.rate(EventKind::kRobOccupancy),
                cfg.value_d(HwParam::kRobEntry));
      EXPECT_LE(ev.rate(EventKind::kLdqOcc),
                cfg.value_d(HwParam::kLdqStqEntry));
      EXPECT_LE(ev.rate(EventKind::kFetchBufferOcc),
                cfg.value_d(HwParam::kFetchBufferEntry));
      // Instruction classes sum to the committed instructions.
      const double classes =
          ev[EventKind::kBranches] + ev[EventKind::kLoads] +
          ev[EventKind::kStores] + ev[EventKind::kIntAluInstrs] +
          ev[EventKind::kMulDivInstrs] + ev[EventKind::kFpInstrs];
      EXPECT_NEAR(classes, ev[EventKind::kInstructions],
                  0.001 * ev[EventKind::kInstructions]);
    }
  }
}

TEST(PerfSim, WiderMachineIsFaster) {
  PerfSimulator sim;
  // C4 (DecodeWidth 2) vs C13 (DecodeWidth 5), same workload with ILP to
  // exploit.
  const double ipc_narrow =
      sim.simulate(arch::boom_config("C4"), wl("vvadd"))
          .rate(EventKind::kInstructions);
  const double ipc_wide =
      sim.simulate(arch::boom_config("C13"), wl("vvadd"))
          .rate(EventKind::kInstructions);
  EXPECT_GT(ipc_wide, ipc_narrow);
}

TEST(PerfSim, BiggerCachesMissLess) {
  PerfSimulator sim;
  // C1: 2-way caches vs C3: 8-way, same decode width 1.
  const auto small = sim.simulate(arch::boom_config("C1"), wl("qsort"));
  const auto large = sim.simulate(arch::boom_config("C3"), wl("qsort"));
  EXPECT_LT(large[EventKind::kDcacheMisses] /
                large[EventKind::kDcacheAccesses],
            small[EventKind::kDcacheMisses] /
                    small[EventKind::kDcacheAccesses] +
                1e-9);
}

TEST(PerfSim, BranchyWorkloadMispredictsMore) {
  PerfSimulator sim;
  const auto& cfg = arch::boom_config("C8");
  const auto regular = sim.simulate(cfg, wl("vvadd"));
  const auto chaotic = sim.simulate(cfg, wl("qsort"));
  const double miss_regular = regular[EventKind::kBpMispredicts] /
                              regular[EventKind::kBranches];
  const double miss_chaotic = chaotic[EventKind::kBpMispredicts] /
                              chaotic[EventKind::kBranches];
  EXPECT_GT(miss_chaotic, miss_regular);
}

TEST(PerfSim, PhaseRatesExposed) {
  PerfSimulator sim;
  const auto& cfg = arch::boom_config("C5");
  const auto& w = wl("gemm");
  const PhaseRates pr0 = sim.phase_rates(cfg, w, 0);
  EXPECT_GT(pr0.ipc, 0.0);
  // A repeat call (structural cache warm) returns equal rates.
  const PhaseRates again = sim.phase_rates(cfg, w, 0);
  EXPECT_EQ(again.ipc, pr0.ipc);
  for (std::size_t e = 0; e < arch::kNumEvents; ++e) {
    const auto k = static_cast<EventKind>(e);
    EXPECT_EQ(again.rates[k], pr0.rates[k]) << arch::event_name(k);
  }
  EXPECT_EQ(again.misses.icache, pr0.misses.icache);
  EXPECT_EQ(again.misses.dcache, pr0.misses.dcache);
  EXPECT_EQ(again.misses.itlb, pr0.misses.itlb);
  EXPECT_EQ(again.misses.dtlb, pr0.misses.dtlb);
  EXPECT_EQ(again.misses.bp, pr0.misses.bp);
  EXPECT_THROW((void)sim.phase_rates(cfg, w, 99), util::InvalidArgument);
}

// The rate model is public on its own; feeding it the simulator's own
// measured misses must reproduce the simulator bit for bit, so a
// simulator-only term cannot slip in.
TEST(PerfSim, RatesFromMissesReproducesSimulator) {
  PerfSimulator sim;
  for (const auto& cfg : arch::boom_design_space()) {
    for (const auto* suite : {&workload::riscv_tests_workloads(),
                              &workload::trace_workloads(),
                              &workload::extension_workloads()}) {
      for (const auto& w : *suite) {
        for (std::size_t i = 0; i < w.phases.size(); ++i) {
          const PhaseRates pr = sim.phase_rates(cfg, w, i);
          const PhaseRates again = rates_from_misses(cfg, w.phases[i],
                                                     pr.misses);
          const std::string where = cfg.name() + "/" + w.name + "#" +
                                    std::to_string(i);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(again.ipc),
                    std::bit_cast<std::uint64_t>(pr.ipc))
              << where;
          for (std::size_t e = 0; e < arch::kNumEvents; ++e) {
            const auto k = static_cast<EventKind>(e);
            EXPECT_EQ(std::bit_cast<std::uint64_t>(again.rates[k]),
                      std::bit_cast<std::uint64_t>(pr.rates[k]))
                << where << " " << arch::event_name(k);
          }
        }
      }
    }
  }
}

// 64 * BranchCount predictor entries: beyond 2^30 the table size no
// longer fits the predictor's int index, so the cell must fail loudly
// rather than hang (20M) or silently shrink to one entry (40M).
TEST(PerfSim, OversizedBranchPredictorThrows) {
  PerfSimulator sim;
  const auto& c7 = arch::boom_config("C7");
  for (int bc : {20000000, 40000000}) {
    std::array<int, arch::kNumHwParams> values{};
    for (HwParam p : arch::all_hw_params()) {
      values[static_cast<std::size_t>(p)] = c7.value(p);
    }
    values[static_cast<std::size_t>(HwParam::kBranchCount)] = bc;
    const arch::HardwareConfig cfg("C7'", values);
    EXPECT_THROW((void)sim.simulate(cfg, wl("dhrystone")),
                 util::InvalidArgument)
        << "BranchCount=" << bc;
  }
}

TEST(PerfSim, TraceCoversWholeRun) {
  SimOptions opt;
  opt.window_cycles = 50;
  PerfSimulator sim(opt);
  const auto& cfg = arch::boom_config("C8");
  const auto& w = wl("median");
  const auto aggregate = sim.simulate(cfg, w);
  const auto windows = sim.simulate_trace(cfg, w);
  ASSERT_FALSE(windows.empty());

  double cycles = 0.0;
  double instrs = 0.0;
  for (const auto& win : windows) {
    cycles += win.cycles();
    instrs += win[EventKind::kInstructions];
  }
  EXPECT_NEAR(cycles, aggregate.cycles(), 51.0);  // last partial window
  // Window modulation is zero-mean-ish: totals agree within a few %.
  EXPECT_NEAR(instrs, aggregate[EventKind::kInstructions],
              0.03 * aggregate[EventKind::kInstructions]);
}

TEST(PerfSim, TraceWindowsHaveFixedLength) {
  PerfSimulator sim;
  const auto windows =
      sim.simulate_trace(arch::boom_config("C2"), wl("towers"));
  for (std::size_t i = 0; i + 1 < windows.size(); ++i) {
    EXPECT_NEAR(windows[i].cycles(), 50.0, 1e-6) << "window " << i;
  }
}

TEST(PerfSim, TraceShowsPhaseVariation) {
  // GEMM's pack/compute/writeback phases must leave a visible power-
  // relevant signature (fp activity varies across windows).
  PerfSimulator sim;
  const auto windows =
      sim.simulate_trace(arch::boom_config("C4"), wl("gemm"));
  double min_fp = 1e18;
  double max_fp = -1.0;
  for (const auto& w : windows) {
    min_fp = std::min(min_fp, w[EventKind::kFpInstrs]);
    max_fp = std::max(max_fp, w[EventKind::kFpInstrs]);
  }
  EXPECT_GT(max_fp, 2.0 * (min_fp + 1e-9));
}

TEST(PerfSim, MultiMillionCycleTraces) {
  // Paper Sec. III-B5: GEMM/SPMM run for millions of cycles.
  PerfSimulator sim;
  const auto ev = sim.simulate(arch::boom_config("C3"), wl("gemm"));
  EXPECT_GT(ev.cycles(), 1'000'000.0);
}

}  // namespace
}  // namespace autopower::sim
