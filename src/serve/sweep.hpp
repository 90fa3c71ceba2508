// Streaming parallel design-space sweep driver.
//
// The workload architecture-level power models exist for: enumerate a
// config-grid spec (axis lists over Table II hardware parameters applied
// to a base configuration), evaluate every (configuration, workload) cell
// — performance simulation + power prediction — via util::parallel_for, and
// rank the configurations into a JSONL report.
//
// The grid is never materialised: a GridCursor yields configuration
// *indices* and reconstructs each HardwareConfig on demand (mixed-radix
// decode), so a 10^7-cell sweep holds O(workers x chunk + top-K) rows,
// not O(grid).  The sweep is one util::parallel_for over chunks of
// contiguous indices (~8 per worker, at most 1024 configs each), so
// skewed per-cell costs cannot idle a thread while chunks remain.  A
// chunk is simulated cell by cell, then predicted in one
// predict_total_batch call (split at a fixed 256 contexts), which is
// element-wise bit-identical to per-cell predict_total but amortises its
// fixed per-call cost.  Its rows then go into the sweep's one ranker (a
// bounded K-heap with `--top K`), sorted at the end.  A `--checkpoint` file
// records every finished configuration as a crc-guarded JSONL line;
// `--resume` replays it and skips the finished indices, and the final
// report is byte-identical to an uninterrupted run (serve/checkpoint.hpp
// documents the format and torn-line policy).
//
// Every worker borrows the call's ONE PerfSimulator and its
// util::StructuralSimCache, so neighbouring grid points (which differ
// only in a few parameters) reuse each other's cache/TLB/branch
// structural measurements.  On a grid that varies ROB/width/queue
// parameters only the first configurations miss the memo, and chunk c
// of a T-worker sweep starts every row's W workloads at (c % T) * W / T,
// so the chunks that run together split that cold work instead of each
// repeating all of it (a key two chunks fill at the same moment is still
// computed twice; the memo keeps one).  Results are bit-identical to
// evaluating each cell with a fresh, unshared simulator, for any thread
// count, any chunk order, and any `--memory-budget`
// (`bench_sim_throughput` enforces these properties).
//
// Grid spec syntax (CLI `--grid`): semicolon-separated axes, each
// "Param=v1,v2,...", e.g. "RobEntry=64,96,128;FetchWidth=4,8".  Axis
// order is report order; the first axis varies slowest.  A cell whose
// configuration cannot be simulated (e.g. a non-power-of-two
// ICacheFetchBytes) fails alone with its error message, like a bad batch
// request.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "util/structural_cache.hpp"

namespace autopower::serve {

/// One grid axis: the values a hardware parameter sweeps over.
struct SweepAxis {
  arch::HwParam param = arch::HwParam::kFetchWidth;
  std::vector<int> values;
};

/// How the ranked report orders configurations.
enum class SweepMetric {
  kIpcPerWatt,  ///< mean IPC / mean watts, descending (the DSE default)
  kIpc,         ///< mean IPC, descending
  kPower,       ///< mean total mW, ascending
};

[[nodiscard]] std::string_view to_string(SweepMetric metric) noexcept;
/// Parses "ipc_per_watt" | "ipc" | "power"; throws on anything else.
[[nodiscard]] SweepMetric sweep_metric_from_string(std::string_view text);

struct SweepSpec {
  std::string base = "C8";                ///< Table II baseline config
  std::vector<SweepAxis> axes;            ///< grid axes (may be empty)
  std::vector<std::string> workloads;     ///< evaluation workloads
  std::size_t threads = 1;
  SweepMetric metric = SweepMetric::kIpcPerWatt;
  std::size_t top = 0;                    ///< 0 = report every config
  std::string checkpoint;                 ///< JSONL checkpoint path ("" = off)
  bool resume = false;                    ///< replay `checkpoint` first
  /// Approximate byte bound for the shared structural cache when
  /// run_sweep creates its own (0 = unbounded); ignored when the caller
  /// passes a cache in.
  std::uint64_t memory_budget = 0;
};

/// Parses the `--grid` spec ("RobEntry=64,96;FetchWidth=4,8").  Throws
/// util::Error on unknown parameters, duplicate axes, empty or
/// non-positive value lists, or malformed syntax.
[[nodiscard]] std::vector<SweepAxis> parse_grid(std::string_view spec);

/// Lazy mixed-radix enumeration of a config grid: the cartesian product
/// of `axes` applied to `base`, addressed by index in [0, size()).  The
/// first axis varies slowest (index 0 is the base point of every axis),
/// matching the report order of the former materialised expansion.
/// Config names are deterministic: "<base>+Param=v+..." (base's own name
/// for an empty grid).  There is NO size cap beyond std::size_t overflow
/// — callers stream indices instead of materialising configs.
/// Thread-safe: all accessors are const and touch no shared mutable
/// state, so sweep workers decode from one shared cursor.
class GridCursor {
 public:
  /// Throws util::Error on an empty axis value list or a product that
  /// overflows std::size_t.
  GridCursor(const arch::HardwareConfig& base,
             std::span<const SweepAxis> axes);

  [[nodiscard]] std::size_t size() const noexcept { return total_; }

  /// Writes config `index`'s full parameter vector into `values`.
  void values_at(std::size_t index,
                 std::array<int, arch::kNumHwParams>& values) const;

  /// Formats config `index`'s name into `name` (clearing it first).
  /// Callers reuse one scratch string across a streaming loop, so the
  /// per-config cost is a few appends into already-reserved storage —
  /// no repeated std::to_string temporaries.
  void format_name(std::size_t index, std::string& name) const;

  /// Materialises one configuration (the convenience path; streaming
  /// callers use values_at/format_name with reused scratch space).
  [[nodiscard]] arch::HardwareConfig config_at(std::size_t index) const;

 private:
  std::string base_name_;
  std::array<int, arch::kNumHwParams> base_values_{};
  std::vector<SweepAxis> axes_;
  std::size_t total_ = 1;
};

/// Cartesian product of the axes applied to `base`, materialised.  Kept
/// for small grids and tests; refuses to materialise more than 1e6
/// configurations — stream via GridCursor instead.
[[nodiscard]] std::vector<arch::HardwareConfig> expand_grid(
    const arch::HardwareConfig& base, std::span<const SweepAxis> axes);

/// One (configuration, workload) evaluation.
struct SweepCell {
  std::string workload;
  bool ok = false;
  std::string error;      ///< set when !ok
  double total_mw = 0.0;  ///< predicted average power
  double ipc = 0.0;       ///< simulated instructions per cycle
};

/// One configuration's row of the ranked report.
struct SweepRow {
  arch::HardwareConfig config;
  std::vector<SweepCell> cells;    ///< one per workload, spec order
  double mean_total_mw = 0.0;      ///< over ok cells
  double mean_ipc = 0.0;
  double ipc_per_watt = 0.0;
  std::size_t failed = 0;          ///< cells that failed
  std::size_t rank = 0;            ///< 1-based rank under the spec metric
  std::size_t index = 0;           ///< grid index (the deterministic
                                   ///< tie-break; not serialised)
};

struct SweepReport {
  std::vector<SweepRow> rows;  ///< ranked best-first (truncated to top)
  std::size_t configs = 0;     ///< grid size before truncation
  std::size_t evaluations = 0;
  std::size_t resumed = 0;     ///< rows replayed from a checkpoint
  util::StructuralSimCache::Stats structural;  ///< sub-memo hit/miss
};

/// Runs the sweep: streams grid indices from a GridCursor in chunks over
/// `spec.threads` workers (clamped to the host's hardware concurrency)
/// sharing one structural cache (`structural` if given, else a fresh one
/// bounded by `spec.memory_budget`), and ranks the rows — through one
/// bounded top-K heap when `spec.top` is set.  Deterministic: the report
/// is bit-identical for any thread count, any chunk completion order,
/// any memory budget, any pre-warmed cache state, and any
/// checkpoint/resume split.  Throws util::Error for an unknown base
/// config, unknown workloads, an empty workload list, a corrupt
/// checkpoint, or a checkpoint write failure (chunks that start after a
/// failed chunk return at once).
[[nodiscard]] SweepReport run_sweep(
    const core::AutoPowerModel& model, const SweepSpec& spec,
    std::shared_ptr<util::StructuralSimCache> structural = nullptr);

/// Evaluates an explicit configuration list — every (config, workload)
/// cell, performance simulation + power prediction — in config chunks
/// over `threads` workers (clamped like run_sweep), predicting each chunk
/// in one batch like run_sweep, sharing one structural cache
/// (`structural` if given, else a fresh unbounded one).  Returns one
/// finalized row per config, in input order, with row.index = input
/// position (callers that address a grid rewrite it).  Rows are
/// bit-identical to the run_sweep rows for the same configs, for any
/// thread count.  This is the verification path for callers (the
/// explore loop) that pick sparse, non-contiguous grid points instead
/// of streaming a whole grid.  Throws util::Error on unknown or empty
/// workloads.
[[nodiscard]] std::vector<SweepRow> evaluate_configs(
    const core::AutoPowerModel& model,
    std::span<const arch::HardwareConfig> configs,
    std::span<const std::string> workloads, std::size_t threads,
    std::shared_ptr<util::StructuralSimCache> structural = nullptr);

/// Appends the body of one row's JSON object — everything after the
/// opening '{' and the "rank" member:
///   "config":"C8+RobEntry=96","params":{...},"mean_total_mw":...,
///   "mean_ipc":...,"ipc_per_watt":...,"failed":0,
///   "cells":[{"workload":...,"ok":true,"total_mw":...,"ipc":...},...]
/// Shared by the final report writer and the checkpoint writer so a
/// replayed row reproduces its original bytes exactly (numbers round-trip
/// through serve::append_json_number).
void append_row_json(std::string& out, const SweepRow& row);

/// Writes the report as JSONL, one ranked row per line:
///   {"rank":1,<append_row_json body>}
/// Numbers round-trip exactly (serve::append_json_number).
void write_sweep_report(std::ostream& out, const SweepReport& report);

}  // namespace autopower::serve
