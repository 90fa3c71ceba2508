// AutoPower — the paper's primary contribution.
//
// Fully automated, few-shot architecture-level power modeling by power
// group decoupling: per component, independent models for the clock, SRAM
// and logic power groups (each itself decoupled into structural ridge
// sub-models and activity GBT sub-models).  Train on as few as two known
// configurations; predict per-component, per-group power for any
// configuration/workload — including per-50-cycle windows for time-based
// power traces (paper Sec. III-B5).
//
// Typical use:
//
//   sim::PerfSimulator sim;                    // gem5 stand-in
//   power::GoldenPowerModel golden;            // VLSI-flow stand-in
//   auto train = exp::make_contexts(sim, {"C1", "C15"}, workloads);
//   core::AutoPowerModel model;
//   model.train(train, golden);
//   auto prediction = model.predict(ctx);      // PowerResult, mW
#pragma once

#include <array>
#include <iosfwd>
#include <span>
#include <string>

#include "core/clock_model.hpp"
#include "core/logic_model.hpp"
#include "core/sample.hpp"
#include "core/sram_model.hpp"
#include "ml/forest_bundle.hpp"
#include "power/report.hpp"

namespace autopower::core {

/// Hyper-parameters for all of AutoPower's sub-models.
struct AutoPowerOptions {
  ClockModelOptions clock;
  SramModelOptions sram;
  LogicModelOptions logic;
};

/// The end-to-end AutoPower model: 22 components x 3 power groups.
///
/// Thread safety: train(), load() and the file wrappers mutate the model
/// and must not run concurrently with anything else.  train() may itself
/// fan the independent sub-model fits out through util::parallel_for
/// (`threads` parameter); each task writes a disjoint per-component slot,
/// so the trained model — and hence its saved archive — is byte-identical
/// at any thread count.  Once training or loading has completed, every
/// const method — predict(), predict_batch(), predict_total(),
/// predict_trace(), the per-component model accessors — only reads
/// immutable state and is safe to call concurrently from any number of
/// threads on one shared instance (the serving layer in src/serve/ relies
/// on this: a model is published as shared_ptr<const AutoPowerModel> and
/// queried by a whole thread pool).
class AutoPowerModel {
 public:
  AutoPowerModel() = default;
  explicit AutoPowerModel(AutoPowerOptions options) : options_(options) {}

  /// Trains every per-component group model.  `samples` should cover the
  /// known configurations x training workloads; golden labels are read
  /// from the golden flow (synthesis reports, RTL activity, power sim).
  /// With `threads > 1` the 22 x 3 independent sub-model fits run through
  /// util::parallel_for; results land in fixed per-component slots, so the
  /// model is identical (archives byte-equal) at any thread count.
  void train(std::span<const EvalContext> samples,
             const power::GoldenPowerModel& golden, std::size_t threads = 1);

  /// Rows per tile of the tile-major prediction loop: every batch call
  /// walks its contexts kTileRows at a time, so each component's H+E+P
  /// feature tile and the forests' outputs stay cache-resident however
  /// long the batch (a gemm trace is ~55k windows).
  static constexpr std::size_t kTileRows = 512;

  /// Full per-component, per-group power prediction (mW): predict_batch
  /// of one context.
  [[nodiscard]] power::PowerResult predict(const EvalContext& ctx) const;

  /// Batched prediction: one PowerResult per context, evaluated
  /// tile-major.  Per tile of kTileRows contexts and per component, one
  /// H+E+P feature tile is assembled; each distinct row of it (keyed by
  /// its bytes) is ranked once by the component's ForestBundle and feeds
  /// the clock, SRAM and logic models, each of whose GBT sub-models makes
  /// one pass over the distinct rows, and every duplicate gets its first
  /// occurrence's groups.  A sweep's cells share most components' rows
  /// (power group decoupling gives each component only its own H), so
  /// this walks a fraction of the rows.  Element i does not depend on the
  /// rest of the batch.
  [[nodiscard]] std::vector<power::PowerResult> predict_batch(
      std::span<const EvalContext> ctxs) const;

  /// Total core power (mW): predict_total_batch of one context.
  [[nodiscard]] double predict_total(const EvalContext& ctx) const;

  /// Batched totals: element i is bit-identical to
  /// predict(ctxs[i]).total(), evaluated by the same tile-major loop as
  /// predict_batch, distinct rows and all, but holding only one
  /// PowerGroups accumulator per context instead of the full
  /// 22-component breakdown — the scoring path for search loops and
  /// power traces that never look at per-component power.
  [[nodiscard]] std::vector<double> predict_total_batch(
      std::span<const EvalContext> ctxs) const;

  /// Per-window total power for a time-based power trace; element i is
  /// bit-identical to predict(windows[i]).total().  When every window
  /// shares one cfg pointer and equal ProgramFeatures (one design running
  /// one program), only the E features differ between windows, and the
  /// ranks of a window's event rates against every threshold its
  /// component's forests test decide every branch, hence every group
  /// output.  So each component keys its windows by those ranks, and each
  /// distinct rank vector (a trace cell) is predicted once, from its first
  /// window, through the tile-major loop's body (a 55k-window gemm trace
  /// has 9-87 cells per component).  Any other span, and any model whose
  /// clock group reads raw E (ClockModelOptions::linear_alpha), runs
  /// predict_total_batch.
  [[nodiscard]] std::vector<double> predict_trace(
      std::span<const EvalContext> windows) const;

  // Per-component group models, for the Fig. 7 / Fig. 8 studies.
  [[nodiscard]] const ClockPowerModel& clock_model(
      arch::ComponentKind c) const;
  [[nodiscard]] const SramPowerModel& sram_model(
      arch::ComponentKind c) const;
  [[nodiscard]] const LogicPowerModel& logic_model(
      arch::ComponentKind c) const;
  /// Component c's clock, SRAM and logic GBT sub-models, bundled with
  /// their fit-time tables: the rank pass every batch call shares.
  [[nodiscard]] const ml::ForestBundle& forests(arch::ComponentKind c) const;

  [[nodiscard]] bool trained() const noexcept { return trained_; }

  /// Content fingerprint of this model's serialized archive (16 hex chars),
  /// set by train() and load().  Equal fingerprints mean byte-identical
  /// archives, so the serving layer keys every memo on it: two models — or
  /// two versions of one model across a hot-swap — can never alias cache
  /// entries.  Empty only for a default-constructed, untrained model.
  [[nodiscard]] const std::string& fingerprint() const noexcept {
    return fingerprint_;
  }

  /// Serializes the fully-trained model (all 22 x 3 sub-models).
  void save(std::ostream& out) const;
  /// Restores a model previously written by save().
  void load(std::istream& in);
  /// File-based convenience wrappers.
  void save_to_file(const std::string& path) const;
  void load_from_file(const std::string& path);

 private:
  AutoPowerOptions options_;
  std::array<ClockPowerModel, arch::kNumComponents> clock_;
  std::array<SramPowerModel, arch::kNumComponents> sram_;
  std::array<LogicPowerModel, arch::kNumComponents> logic_;
  std::array<ml::ForestBundle, arch::kNumComponents> forests_;
  /// One component's trace cells: the events its forests test and, per
  /// event, the sorted distinct thresholds over every node of every tree
  /// of its forests (NaN thresholds, which every value passes alike, left
  /// out).
  struct TraceCells {
    std::vector<arch::EventKind> events;
    std::vector<std::vector<double>> thresholds;
  };
  std::array<TraceCells, arch::kNumComponents> trace_cells_;
  /// False when some clock model reads raw E (linear_alpha): ranks then
  /// do not decide its output, and predict_trace keys nothing.
  bool cells_decide_ = false;
  bool trained_ = false;
  std::string fingerprint_;

  void refresh_fingerprint();
  /// Rebuilds forests_, trace_cells_ and cells_decide_ (train and load).
  void rebuild_forests();
  /// Component i's GBT sub-models: clock, then SRAM, then logic.
  [[nodiscard]] std::vector<const ml::GBTRegressor*> component_forests(
      std::size_t i) const;

  /// The one tile-major loop behind predict_batch and
  /// predict_total_batch: calls sink(component, j, groups) with the group
  /// powers of ctxs[j], each context's components in Table III order.
  /// Each distinct component row of a tile is ranked and walked once.
  template <typename Sink>
  void for_each_group_power(std::span<const EvalContext> ctxs,
                            Sink&& sink) const;
  [[nodiscard]] std::vector<double> totals(
      std::span<const EvalContext> ctxs) const;
};

}  // namespace autopower::core
