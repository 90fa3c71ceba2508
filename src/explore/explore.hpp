// Design-space exploration with exact scoring.
//
// Beyond ~10^5 grid cells the exhaustive sweep spends almost all of its
// work on configurations the frontier will never contain: explore runs a
// multi-objective evolutionary search instead.  Per generation it draws
// candidates (seeded random + mutation / crossover / ±1 neighbour /
// random immigrant over the grid axes, deduplicated against a visited
// set, plus forced ±1 hill-climb probes around the best row so far),
// scores every one exactly through serve::evaluate_configs (simulate,
// then one batched AutoPowerModel predict, sharing one
// StructuralSimCache), and folds the rows into an incremental Pareto
// archive whose members, with the generation's candidates, are the next
// generation's parents.
//
// Objectives: maximise ipc_per_watt, minimise mean total mW, minimise an
// analytic area proxy (a fixed weighted sum of the Table II parameters —
// no silicon data in this repo, but a deterministic monotone stand-in is
// enough to shape a frontier).
//
// Determinism: every stochastic choice draws from a counter-based
// util::Rng stream keyed (seed, generation, slot), and scoring goes
// through the thread-invariant evaluate_configs — so the frontier JSONL
// is byte-identical for a fixed seed at ANY thread count.  Checkpoints
// reuse the serve/checkpoint crc-JSONL format (one line per scored
// configuration, fingerprint extended with the explore identity): a
// resumed run replays the rows as a memo and re-walks the deterministic
// search, skipping already-scored evaluations, so the final frontier is
// byte-identical to an uninterrupted run even after a SIGKILL
// mid-generation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "serve/sweep.hpp"
#include "util/rng.hpp"
#include "util/structural_cache.hpp"

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

/// Incremental Pareto archive: the non-dominated members, keyed by
/// grid index, of every objective vector inserted so far.  Front 0 of a
/// set is unique and dominance is transitive, so the archive equals the
/// first non-dominated front of everything inserted, whatever the
/// insertion order.  Equal vectors do not dominate each other, so
/// duplicates all stay.
using ParetoArchive = std::map<std::size_t, Objectives>;

/// Drops (index, objs) if a member dominates it; otherwise evicts the
/// members it dominates and inserts it.  `index` must not already be a
/// member.
void archive_insert(ParetoArchive& archive, std::size_t index,
                    const Objectives& objs);

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

struct ExploreSpec {
  std::string base = "C8";             ///< Table II baseline config
  std::vector<serve::SweepAxis> axes;  ///< grid axes (the search space)
  std::vector<std::string> workloads;  ///< evaluation workloads
  std::size_t threads = 1;
  std::uint64_t seed = 1;
  std::size_t population = 64;   ///< candidates drawn per generation
  std::size_t generations = 20;
  std::string checkpoint;  ///< crc-JSONL checkpoint path ("" = off)
  bool resume = false;     ///< replay `checkpoint` first
};

/// One Pareto-frontier member: the scored sweep row plus its area.
struct FrontierRow {
  serve::SweepRow row;      ///< row.index = grid index, row.rank = 1-based
  double area = 0.0;        ///< area_proxy of row.config
};

struct ExploreReport {
  std::vector<FrontierRow> frontier;  ///< ipc_per_watt desc, index asc
  std::size_t grid_configs = 0;       ///< grid size
  std::size_t generations_run = 0;
  std::size_t verified = 0;           ///< simulator-evaluated this run
  std::size_t resumed = 0;            ///< rows replayed from checkpoint
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
