// Surrogate-guided design-space exploration.
//
// The trained AutoPower model is a cheap oracle over the hardware
// parameter space, so beyond ~10^5 grid cells the exhaustive sweep stops
// being the right tool: explore runs a multi-objective evolutionary
// search — candidate generation (seeded random + mutation / crossover
// over the grid axes, deduplicated against a visited set), MODEL-scored
// ranking (closed-form proxy event estimation feeding
// AutoPowerModel::predict_total_batch; no simulator in the inner loop),
// NSGA-II-style non-dominated sorting with crowding-distance selection,
// and per-generation SIMULATOR verification of the elites batched
// through serve::evaluate_configs (sharing one StructuralSimCache, so
// neighbouring elites reuse each other's structural measurements).
// Verified truths are re-injected as calibration anchors (a k-NN ratio
// correction of the proxy's per-workload ipc / mW) and as parents for
// the next generation, and the model-vs-simulator elite error is
// reported per generation.
//
// Objectives: maximise ipc_per_watt, minimise mean total mW, minimise an
// analytic area proxy (a fixed weighted sum of the Table II parameters —
// no silicon data in this repo, but a deterministic monotone stand-in is
// enough to shape a frontier).
//
// Determinism: every stochastic choice draws from a counter-based
// util::Rng stream keyed (seed, generation, slot), scoring writes
// results by slot index, and verification goes through the
// thread-invariant evaluate_configs — so the frontier JSONL is
// byte-identical for a fixed seed at ANY thread count.  Checkpoints
// reuse the serve/checkpoint crc-JSONL format (one line per VERIFIED
// configuration, fingerprint extended with the explore identity): a
// resumed run replays the verified rows as a memo and re-walks the
// deterministic search, skipping already-verified evaluations, so the
// final frontier is byte-identical to an uninterrupted run even after a
// SIGKILL mid-generation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/events.hpp"
#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "serve/sweep.hpp"
#include "util/rng.hpp"
#include "util/structural_cache.hpp"
#include "workload/workload.hpp"

namespace autopower::explore {

/// One candidate's objective vector.  Larger ipc_per_watt is better;
/// smaller total_mw and area are better.
struct Objectives {
  double ipc_per_watt = 0.0;
  double total_mw = 0.0;
  double area = 0.0;
};

/// Pareto dominance: `a` dominates `b` when it is no worse on every
/// objective and strictly better on at least one.
[[nodiscard]] bool dominates(const Objectives& a, const Objectives& b) noexcept;

/// Deterministic analytic area proxy (arbitrary units): a fixed weighted
/// sum of the 14 Table II parameters, weights reflecting rough relative
/// silicon cost (issue/cache structures heavy, TLB/branch tables light).
[[nodiscard]] double area_proxy(const arch::HardwareConfig& cfg) noexcept;

/// Fast non-dominated sort: returns the Pareto rank of every objective
/// vector (0 = non-dominated front, 1 = non-dominated after removing
/// front 0, ...).  O(M N^2) like NSGA-II's fast-non-dominated-sort.
[[nodiscard]] std::vector<std::size_t> non_dominated_rank(
    std::span<const Objectives> objs);

/// NSGA-II crowding distance of the members of one front (`front` holds
/// indices into `objs`).  Returned in `front` order; boundary members of
/// every objective get +infinity.  Objectives with zero spread
/// contribute nothing.
[[nodiscard]] std::vector<double> crowding_distance(
    std::span<const Objectives> objs, std::span<const std::size_t> front);

// ---- Grid-coordinate candidate operators (public for property tests).
// A candidate is a digit vector: one value-list index per axis, in axis
// order.  The flat grid index uses the GridCursor mixed-radix encoding
// (first axis varies slowest).

[[nodiscard]] std::size_t digits_to_index(
    std::span<const std::size_t> digits,
    std::span<const serve::SweepAxis> axes);
[[nodiscard]] std::vector<std::size_t> index_to_digits(
    std::size_t index, std::span<const serve::SweepAxis> axes);

/// Point mutation: re-draws 1–2 axes (uniformly chosen) to uniform
/// in-range values.  Always returns an in-grid digit vector.
[[nodiscard]] std::vector<std::size_t> mutate(
    std::span<const std::size_t> digits,
    std::span<const serve::SweepAxis> axes, util::Rng& rng);

/// Uniform crossover: each axis takes parent a's or b's digit with
/// probability 1/2.  Always returns an in-grid digit vector.
[[nodiscard]] std::vector<std::size_t> crossover(
    std::span<const std::size_t> a, std::span<const std::size_t> b,
    std::span<const serve::SweepAxis> axes, util::Rng& rng);

/// Closed-form proxy event estimation: the simulator's own rate model
/// (sim::rates_from_misses) fed smooth analytic stand-ins for the
/// sampled structural miss rates.  A pure function of (configuration,
/// workload) — no run history — so a resumed search recomputes
/// identical scores.  The estimate feeds predict_total_batch for
/// surrogate power; absolute accuracy is corrected per-workload by the
/// k-NN anchor calibration.
[[nodiscard]] arch::EventVector proxy_events(
    const arch::HardwareConfig& cfg,
    const workload::WorkloadProfile& profile);

struct ExploreSpec {
  std::string base = "C8";             ///< Table II baseline config
  std::vector<serve::SweepAxis> axes;  ///< grid axes (the search space)
  std::vector<std::string> workloads;  ///< evaluation workloads
  std::size_t threads = 1;
  std::uint64_t seed = 1;
  std::size_t population = 64;   ///< candidates scored per generation
  std::size_t generations = 20;
  /// Elites simulator-verified per generation; 0 = verify every scored
  /// candidate (the differential-oracle mode).
  std::size_t verify_top = 16;
  std::string checkpoint;  ///< crc-JSONL checkpoint path ("" = off)
  bool resume = false;     ///< replay `checkpoint` first
};

/// One Pareto-frontier member: the verified sweep row plus its area.
struct FrontierRow {
  serve::SweepRow row;      ///< row.index = grid index, row.rank = 1-based
  double area = 0.0;        ///< area_proxy of row.config
};

struct ExploreReport {
  std::vector<FrontierRow> frontier;  ///< ipc_per_watt desc, index asc
  std::size_t grid_configs = 0;       ///< grid size
  std::size_t generations_run = 0;
  std::size_t candidates_scored = 0;  ///< model-scored candidates
  std::size_t verified = 0;           ///< simulator-evaluated this run
  std::size_t resumed = 0;            ///< rows replayed from checkpoint
  /// Mean relative |surrogate ipc_per_watt − verified| per generation,
  /// over that generation's newly verified elites (0 when none).
  std::vector<double> elite_err;
  util::StructuralSimCache::Stats structural;  ///< sub-memo hit/miss
};

/// Runs the search.  Deterministic for a fixed spec (any thread count);
/// resuming a killed run converges to the identical frontier.  Throws
/// util::Error for an unknown base config, unknown workloads, an empty
/// workload/axis list, or a corrupt checkpoint.
[[nodiscard]] ExploreReport run_explore(
    const core::AutoPowerModel& model, const ExploreSpec& spec,
    std::shared_ptr<util::StructuralSimCache> structural = nullptr);

/// Writes the frontier as JSONL, one member per line:
///   {"rank":1,<append_row_json body>,"area_proxy":...}
/// Numbers round-trip exactly (serve::json_number).
void write_frontier(std::ostream& out, const ExploreReport& report);

}  // namespace autopower::explore
