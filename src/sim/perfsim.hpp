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
// Memoisation is two-layered.  The five expensive structural measurements
// per phase (I/D-cache, I/D-TLB, branch predictor) are decoupled into a
// shared util::StructuralSimCache, each keyed ONLY on the hardware
// parameters that sub-simulation reads plus the phase's stream profile —
// so a sweep varying ROB/width/queue parameters reuses every cache and
// branch measurement across configurations.  Each simulator instance
// fronts the shared cache with a private util::StructuralL1 (one array
// probe per hit, no locks), so warm lookups never touch the shared tier.
// The composed per-(config, phase) PhaseRates are additionally memoised
// per simulator instance; that memo is BOUNDED (SimOptions::
// phase_memo_max) and flushed wholesale when full, so a million-config
// streaming sweep does not accumulate an unbounded map — PhaseRates are
// pure functions of their key, so a flush only costs recomputation.
//
// Thread-safety: a PerfSimulator instance is NOT safe to share across
// threads (the instance-level PhaseRates memo and the private L1 are
// unguarded), but any number of instances may safely share one
// StructuralSimCache — that is the supported way to reuse structural work
// across sweep/serve workers.  Results are bit-identical to a fresh,
// unshared simulator in all cases (every memoised value is a pure
// function of its key).
#pragma once

#include <cstdint>
#include <map>
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
  /// Bound on the per-instance PhaseRates memo.  When an insert would
  /// exceed it the whole memo is flushed (entries are pure functions of
  /// their key, so this only costs recomputation).  <= 0 means unbounded.
  /// At ~300 bytes per entry the default keeps an instance under ~20 MiB
  /// even on a 10^7-config streaming sweep.
  int phase_memo_max = 65536;
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
  /// A simulator sharing `structural` with other instances (sweep/serve
  /// workers).  `structural` must not be null.
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

  /// Steady-state rates for one phase (memoised; exposed for tests).
  /// The reference stays valid only until the next phase_rates call — a
  /// later insert may flush the bounded memo (SimOptions::phase_memo_max).
  [[nodiscard]] const PhaseRates& phase_rates(
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
  /// Private first-level memo in front of structural_; thread-private
  /// like the instance itself, so its hit path needs no synchronisation.
  mutable util::StructuralL1 l1_;
  mutable std::map<std::uint64_t, PhaseRates> memo_;
};

}  // namespace autopower::sim
