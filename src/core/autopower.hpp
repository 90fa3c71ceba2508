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
#include <memory>
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

class AutoPowerModel;

/// Activity cells: the outputs of one AutoPowerModel's GBT forests, keyed
/// per component by the cell of the threshold grid its row falls in.
///
/// A component's clock, SRAM and logic forests test some of the features
/// of its H+E+P row, each against a finite set of thresholds.  Two rows
/// whose values have equal ranks against every tested threshold take the
/// same branch at every node, so every forest gives them the same output.
/// A table maps each component's rank vectors (cells) to those outputs,
/// walked once from the first row that reached the cell.
///
/// Thread safety: safe to share across threads; append-only, so a cell,
/// once inserted, never changes.  A predict call locks a component's
/// table once per tile to look its cells up, walks the misses outside the
/// lock, and locks again to insert them (the first insert of a cell wins;
/// every thread computes the same bytes).  Past kCapacity cells per
/// component, misses are walked without being inserted.  The table is
/// bound to the model it was made for; train() or load() on that model
/// makes every later predict call with it throw.
class ActivityCells {
 public:
  /// Most cells held per component.  A cell costs its rank key and one
  /// double per forest, ~150 bytes, so a full table holds ~13 MiB.
  static constexpr std::size_t kCapacity = 4096;

  /// An empty table for `model`, which must outlive the table.
  explicit ActivityCells(const AutoPowerModel& model);
  ~ActivityCells();
  ActivityCells(const ActivityCells&) = delete;
  ActivityCells& operator=(const ActivityCells&) = delete;

  /// Cells held for component c.
  [[nodiscard]] std::size_t size(arch::ComponentKind c) const;

 private:
  friend class AutoPowerModel;
  struct Table;
  const AutoPowerModel* model_;
  std::string fingerprint_;  ///< the model's when the table was made
  std::unique_ptr<Table[]> tables_;
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
/// immutable state (besides the thread-safe ActivityCells it is handed)
/// and is safe to call concurrently from any number of threads on one
/// shared instance (the serving layer in src/serve/ relies on this: a
/// model is published as shared_ptr<const AutoPowerModel> and queried by
/// a whole thread pool).
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
  /// walks its contexts kTileRows at a time, so each component's rank keys
  /// and group outputs stay cache-resident however long the batch (a gemm
  /// trace is ~55k windows).
  static constexpr std::size_t kTileRows = 512;

  /// Full per-component, per-group power prediction (mW): predict_batch
  /// of one context.
  [[nodiscard]] power::PowerResult predict(const EvalContext& ctx) const;

  /// Batched prediction: one PowerResult per context, evaluated
  /// tile-major through an ActivityCells table made for this call.  Per
  /// tile of kTileRows contexts and per component, each row is keyed by
  /// its activity cell: the ranks of its H features once per distinct
  /// cfg, of its P features once per distinct ProgramFeatures, and of its
  /// E features per row.  Each cell's forest outputs are walked once per
  /// table, from its first row, and the structural sub-models run once
  /// per distinct component H; each row's groups combine the two by
  /// Eq. 7 and 10-12.  Element i is bit-identical to predict(ctxs[i]) and
  /// does not depend on the rest of the batch.
  [[nodiscard]] std::vector<power::PowerResult> predict_batch(
      std::span<const EvalContext> ctxs) const;

  /// Total core power (mW): predict_total_batch of one context.
  [[nodiscard]] double predict_total(const EvalContext& ctx) const;

  /// Batched totals: element i is bit-identical to
  /// predict(ctxs[i]).total(), evaluated by the same loop as
  /// predict_batch but holding only one PowerGroups accumulator per
  /// context instead of the full 22-component breakdown: the scoring path
  /// for search loops and power traces that never look at per-component
  /// power.  `cells` is the table to look activity cells up in and add
  /// them to (it must have been made for this model); a sweep shares one
  /// across all of its calls and threads, so each cell is walked once per
  /// sweep.  nullptr makes a table for this call alone.
  [[nodiscard]] std::vector<double> predict_total_batch(
      std::span<const EvalContext> ctxs,
      ActivityCells* cells = nullptr) const;

  /// Per-window total power for a time-based power trace: exactly
  /// predict_total_batch(windows).  A one-design trace (one cfg and one
  /// program) differs from window to window only in E, so each tile costs
  /// one cell lookup and one PowerGroups add per (window, component).
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
  /// One component's activity-cell index: the features of its H+E+P row
  /// that some tree of its forests tests, by family, each with the sorted
  /// distinct thresholds over every node of every tree (NaN thresholds,
  /// which every value passes alike, left out), and its forests in
  /// component_forests order.
  struct CellIndex {
    struct Feature {
      std::size_t at = 0;  ///< index within its H, E or P block
      std::vector<double> thresholds;
    };
    std::vector<Feature> h, e, p;
    std::vector<const ml::GBTRegressor*> forests;
    [[nodiscard]] std::size_t key_width() const noexcept {
      return h.size() + e.size() + p.size();
    }
  };
  std::array<CellIndex, arch::kNumComponents> cells_;
  bool trained_ = false;
  std::string fingerprint_;

  friend class ActivityCells;

  void refresh_fingerprint();
  /// Rebuilds forests_ and cells_ (train and load).
  void rebuild_forests();
  /// Component i's GBT sub-models: clock, then SRAM, then logic.
  [[nodiscard]] std::vector<const ml::GBTRegressor*> component_forests(
      std::size_t i) const;

  /// The one tile-major loop behind predict_batch and
  /// predict_total_batch: calls sink(component, j, groups) with the group
  /// powers of ctxs[j], each context's components in Table III order.
  template <typename Sink>
  void for_each_group_power(std::span<const EvalContext> ctxs,
                            ActivityCells& cells, Sink&& sink) const;
};

}  // namespace autopower::core
