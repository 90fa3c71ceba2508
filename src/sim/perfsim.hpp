// Performance simulator (the gem5 stand-in).
//
// A window-based out-of-order timing model: per workload phase it measures
// I/D-cache, TLB and branch-predictor behaviour with genuine structural
// simulations (sim/cache, sim/branch), then composes an interval IPC model
// with width, queue and MSHR constraints, and finally emits the full
// event-parameter vector of arch/events.hpp.  The composition step is the
// public rates_from_misses(), the one rate model the explore surrogate
// also runs (on closed-form miss estimates).
//
// Two entry points:
//   * simulate()        — whole-workload aggregate events (training and
//                         average-power evaluation),
//   * simulate_trace()  — consecutive fixed-length windows (default 50
//                         cycles, paper Sec. III-B5) for time-based power
//                         trace prediction.
//
// The model is deterministic and intentionally *approximate*: the golden
// activity model (src/power) derives its labels from richer functions of
// the same underlying behaviour, reproducing the gem5-vs-RTL gap the paper
// identifies as a root cause of ML power-model error.
//
// Memoisation is one shared layer.  The five expensive structural
// measurements per phase (I/D-cache, I/D-TLB, branch predictor) are
// decoupled into a util::StructuralSimCache, each keyed ONLY on the
// hardware parameters that sub-simulation reads plus the phase's stream
// profile — so a sweep varying ROB/width/queue parameters reuses every
// cache and branch measurement across configurations.  Composing a
// phase's rates from its miss rates is cheap, so it is recomputed on
// every call rather than memoised.
//
// Thread-safety: a PerfSimulator holds no mutable state of its own, so
// one instance may be shared by any number of threads, and any number of
// instances may share one StructuralSimCache.  Results are bit-identical
// to a fresh, unshared simulator in all cases (every memoised value is a
// pure function of its key).
#pragma once

#include <memory>
#include <vector>

#include "arch/events.hpp"
#include "arch/params.hpp"
#include "util/structural_cache.hpp"
#include "workload/workload.hpp"

namespace autopower::sim {

/// Tuning knobs of the performance simulator.
struct SimOptions {
  int window_cycles = 50;     ///< trace window length (paper: 50 cycles)
  int sample_accesses = 6000; ///< cache-stream samples per phase
  int sample_branches = 6000; ///< branch-stream samples per phase
  /// Number of times a multi-phase workload's phase sequence repeats in
  /// the trace schedule (outer loop of blocked GEMM/SPMM kernels).
  int phase_repeats = 24;
};

/// Miss rates of one phase on one configuration: the five structural
/// measurements the interval model composes into events.
struct MissRates {
  double icache = 0.0;  ///< I-cache misses per access
  double dcache = 0.0;  ///< D-cache misses per access
  double itlb = 0.0;    ///< I-TLB misses per access
  double dtlb = 0.0;    ///< D-TLB misses per access
  double bp = 0.0;      ///< branch mispredicts per branch
};

/// Per-cycle event rates of one steady-state phase on one configuration.
struct PhaseRates {
  double ipc = 0.0;
  arch::EventVector rates;  ///< per-cycle rates; kCycles == 1
  MissRates misses;         ///< the miss rates `rates` were composed from
};

/// The interval IPC + event-rate model: composes one phase's per-cycle
/// rates from its miss rates.  A pure function — PerfSimulator feeds it
/// sampled structural measurements, the explore surrogate closed-form
/// estimates, so both run exactly the same model.
[[nodiscard]] PhaseRates rates_from_misses(const arch::HardwareConfig& cfg,
                                           const workload::WorkloadPhase& phase,
                                           const MissRates& misses);

/// The out-of-order CPU timing model.
class PerfSimulator {
 public:
  /// A simulator with a private structural cache (standalone use).
  PerfSimulator();
  explicit PerfSimulator(SimOptions options);
  /// A simulator sharing `structural` with other instances.  `structural`
  /// must not be null.
  PerfSimulator(SimOptions options,
                std::shared_ptr<util::StructuralSimCache> structural);

  /// Aggregate event counters for a whole workload run.
  [[nodiscard]] arch::EventVector simulate(
      const arch::HardwareConfig& cfg,
      const workload::WorkloadProfile& profile) const;

  /// Event counters for consecutive windows of `window_cycles` cycles
  /// covering the whole run (last window may be shorter).
  [[nodiscard]] std::vector<arch::EventVector> simulate_trace(
      const arch::HardwareConfig& cfg,
      const workload::WorkloadProfile& profile) const;

  /// Steady-state rates for one phase (exposed for tests).
  [[nodiscard]] PhaseRates phase_rates(
      const arch::HardwareConfig& cfg,
      const workload::WorkloadProfile& profile,
      std::size_t phase_index) const;

  [[nodiscard]] const SimOptions& options() const noexcept { return options_; }

  /// The structural sub-simulation cache this instance reads and fills.
  /// Pass it to another PerfSimulator's constructor to share measurements.
  [[nodiscard]] const std::shared_ptr<util::StructuralSimCache>&
  structural_cache() const noexcept {
    return structural_;
  }

 private:
  SimOptions options_;
  std::shared_ptr<util::StructuralSimCache> structural_;
};

}  // namespace autopower::sim
