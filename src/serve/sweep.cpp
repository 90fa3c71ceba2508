#include "serve/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <exception>
#include <limits>
#include <mutex>
#include <ostream>
#include <utility>

#include "arch/events.hpp"
#include "serve/checkpoint.hpp"
#include "serve/jsonl.hpp"
#include "sim/perfsim.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "workload/workload.hpp"

namespace autopower::serve {

std::string_view to_string(SweepMetric metric) noexcept {
  switch (metric) {
    case SweepMetric::kIpcPerWatt: return "ipc_per_watt";
    case SweepMetric::kIpc: return "ipc";
    case SweepMetric::kPower: return "power";
  }
  return "ipc_per_watt";
}

SweepMetric sweep_metric_from_string(std::string_view text) {
  if (text == "ipc_per_watt") return SweepMetric::kIpcPerWatt;
  if (text == "ipc") return SweepMetric::kIpc;
  if (text == "power") return SweepMetric::kPower;
  throw util::InvalidArgument("unknown sweep metric: " + std::string(text) +
                              " (expected ipc_per_watt | ipc | power)");
}

namespace {

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  while (!text.empty()) {
    const std::size_t pos = text.find(sep);
    out.push_back(text.substr(0, pos));
    if (pos == std::string_view::npos) break;
    text.remove_prefix(pos + 1);
  }
  return out;
}

void append_int(std::string& out, long long value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

}  // namespace

std::vector<SweepAxis> parse_grid(std::string_view spec) {
  AP_REQUIRE(!spec.empty(), "empty grid spec");
  std::vector<SweepAxis> axes;
  for (std::string_view axis_text : split(spec, ';')) {
    AP_REQUIRE(!axis_text.empty(), "empty axis in grid spec");
    const std::size_t eq = axis_text.find('=');
    AP_REQUIRE(eq != std::string_view::npos,
               "grid axis needs Param=v1,v2,...: " + std::string(axis_text));
    SweepAxis axis;
    axis.param = arch::hw_param_by_name(axis_text.substr(0, eq));
    for (const SweepAxis& existing : axes) {
      AP_REQUIRE(existing.param != axis.param,
                 "duplicate grid axis: " +
                     std::string(arch::hw_param_name(axis.param)));
    }
    for (std::string_view token : split(axis_text.substr(eq + 1), ',')) {
      axis.values.push_back(
          util::parse_int(token, "grid value", 1, 99999999));
    }
    AP_REQUIRE(!axis.values.empty(), "grid axis has no values: " +
                                         std::string(axis_text));
    axes.push_back(std::move(axis));
  }
  return axes;
}

GridCursor::GridCursor(const arch::HardwareConfig& base,
                       std::span<const SweepAxis> axes)
    : base_name_(base.name()), axes_(axes.begin(), axes.end()) {
  AP_REQUIRE(axes_.size() <= arch::kNumHwParams,
             "grid has more axes than hardware parameters");
  for (arch::HwParam p : arch::all_hw_params()) {
    base_values_[static_cast<std::size_t>(p)] = base.value(p);
  }
  for (const SweepAxis& axis : axes_) {
    AP_REQUIRE(!axis.values.empty(), "grid axis has no values");
    AP_REQUIRE(
        total_ <= std::numeric_limits<std::size_t>::max() /
                      axis.values.size(),
        "grid size overflows std::size_t");
    total_ *= axis.values.size();
  }
}

void GridCursor::values_at(std::size_t index,
                           std::array<int, arch::kNumHwParams>& values) const {
  values = base_values_;
  // Mixed-radix decode, last axis fastest (the first axis varies
  // slowest), matching the materialised expansion's enumeration order.
  std::size_t n = index;
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const SweepAxis& axis = axes_[a];
    values[static_cast<std::size_t>(axis.param)] =
        axis.values[n % axis.values.size()];
    n /= axis.values.size();
  }
}

void GridCursor::format_name(std::size_t index, std::string& name) const {
  // Axis digits in forward (name) order; ctor capped axes at
  // kNumHwParams so a stack array suffices.
  std::array<std::size_t, arch::kNumHwParams> digit{};
  std::size_t n = index;
  for (std::size_t a = axes_.size(); a-- > 0;) {
    digit[a] = n % axes_[a].values.size();
    n /= axes_[a].values.size();
  }
  name.clear();
  name += base_name_;
  for (std::size_t a = 0; a < axes_.size(); ++a) {
    name += '+';
    name += arch::hw_param_name(axes_[a].param);
    name += '=';
    append_int(name, axes_[a].values[digit[a]]);
  }
}

arch::HardwareConfig GridCursor::config_at(std::size_t index) const {
  std::array<int, arch::kNumHwParams> values{};
  values_at(index, values);
  std::string name;
  format_name(index, name);
  return arch::HardwareConfig(std::move(name), values);
}

std::vector<arch::HardwareConfig> expand_grid(
    const arch::HardwareConfig& base, std::span<const SweepAxis> axes) {
  const GridCursor cursor(base, axes);
  AP_REQUIRE(cursor.size() <= 1'000'000,
             "grid expands to more than 1e6 configurations");
  std::vector<arch::HardwareConfig> out;
  out.reserve(cursor.size());
  for (std::size_t n = 0; n < cursor.size(); ++n) {
    out.push_back(cursor.config_at(n));
  }
  return out;
}

namespace {

/// A sweep's workloads, resolved up front: an unknown name is a spec
/// error (it would fail every cell), unlike a bad grid point which fails
/// alone.
struct SweepWorkloads {
  std::vector<const workload::WorkloadProfile*> profiles;
  std::vector<workload::ProgramFeatures> programs;

  explicit SweepWorkloads(std::span<const std::string> names) {
    profiles.reserve(names.size());
    programs.reserve(names.size());
    for (const std::string& name : names) {
      profiles.push_back(&workload::workload_by_name(name));
      programs.push_back(workload::program_features(*profiles.back()));
    }
  }
};

/// Most contexts one predict_total_batch call sees.  The call walks any
/// batch in AutoPowerModel::kTileRows tiles, so the cap only bounds the
/// context buffer of a 1024-config chunk.
constexpr std::size_t kPredictBatch = 256;

/// Configs per chunk: ~8 chunks per worker so a skewed grid still
/// balances across the pool, capped so a chunk's rows stay small.
std::size_t chunk_size(std::size_t n_configs, std::size_t workers) {
  return std::clamp<std::size_t>(n_configs / (workers * 8), 1, 1024);
}

/// Evaluates chunks of rows for one run_sweep or evaluate_configs call,
/// so both produce bit-identical rows for the same configuration; every
/// chunk borrows the call's one simulator and keeps its buffers local.
/// The one thing chunks share that changes is the call's
/// core::ActivityCells table, which is thread-safe and append-only: each
/// activity cell is walked once per call, by whichever chunk reaches it
/// first, and every chunk reads the same outputs.  evaluate() simulates
/// every (config, workload) cell of the chunk — a simulate failure fails
/// only its own cell — then predicts the cells that simulated in
/// predict_total_batch calls of at most kPredictBatch contexts.  Batched
/// totals are element-wise bit-identical to predict_total, so batching
/// and the shared table change only the cost.
///
/// Chunk `c` walks each row's workloads starting at
/// (c % workers) * W / workers (wrapping).  parallel_for hands chunks out
/// in index order, so the chunks that start together on a cold
/// structural memo simulate disjoint workloads first and then hit each
/// other's entries instead of all simulating the same ones.  Each cell
/// still lands in row.cells[j] for workload j, so the order changes
/// only the cost.
class ChunkEvaluator {
 public:
  ChunkEvaluator(const core::AutoPowerModel& model,
                 const sim::PerfSimulator& sim,
                 const SweepWorkloads& workloads, std::size_t workers)
      : model_(model),
        sim_(sim),
        workloads_(workloads),
        workers_(workers),
        cells_(model) {}

  /// Fills the cells and summary means of chunk `c`'s `rows`, whose
  /// configs are set.
  void evaluate(std::size_t c, std::span<SweepRow> rows) const {
    if (rows.empty()) return;
    const bool timed = util::MetricsRegistry::enabled();
    const auto start = timed ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};
    const std::size_t n_workloads = workloads_.profiles.size();
    const std::size_t first_workload = (c % workers_) * n_workloads / workers_;
    std::vector<core::EvalContext> ctxs;  // simulated, awaiting predict
    std::vector<SweepCell*> pending;      // the cell each context fills
    ctxs.reserve(std::min(kPredictBatch, rows.size() * n_workloads));
    pending.reserve(ctxs.capacity());
    for (SweepRow& row : rows) {
      row.cells.assign(n_workloads, SweepCell{});
      for (std::size_t k = 0; k < n_workloads; ++k) {
        const std::size_t j = (first_workload + k) % n_workloads;
        const workload::WorkloadProfile& profile = *workloads_.profiles[j];
        SweepCell& cell = row.cells[j];
        cell.workload = profile.name;
        core::EvalContext ctx;
        ctx.cfg = &row.config;
        ctx.workload = profile.name;
        ctx.program = workloads_.programs[j];
        try {
          ctx.events = sim_.simulate(row.config, profile);
        } catch (const std::exception& e) {
          cell.error = e.what();
          continue;
        }
        ctxs.push_back(std::move(ctx));
        pending.push_back(&cell);
        if (ctxs.size() == kPredictBatch) predict(ctxs, pending);
      }
    }
    predict(ctxs, pending);
    for (SweepRow& row : rows) finalize(row);

    // One observation per cell: its share of the chunk's wall time.
    const std::size_t n_cells = rows.size() * n_workloads;
    m_cells_.add(n_cells);
    if (timed) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      const std::uint64_t share =
          ns > 0 ? static_cast<std::uint64_t>(ns) / n_cells : 0u;
      for (std::size_t i = 0; i < n_cells; ++i) {
        m_cell_latency_.observe(share);
      }
    }
  }

 private:
  /// One batched predict over `ctxs`, scattered back into their cells,
  /// then clears both buffers.  No per-row predict failure exists, so a
  /// throw fails every cell of the batch with its message.
  void predict(std::vector<core::EvalContext>& ctxs,
               std::vector<SweepCell*>& pending) const {
    if (ctxs.empty()) return;
    try {
      const std::vector<double> totals =
          model_.predict_total_batch(ctxs, &cells_);
      for (std::size_t k = 0; k < ctxs.size(); ++k) {
        SweepCell& cell = *pending[k];
        cell.total_mw = totals[k];
        cell.ipc = ctxs[k].events.rate(arch::EventKind::kInstructions);
        cell.ok = true;
      }
    } catch (const std::exception& e) {
      for (SweepCell* cell : pending) cell->error = e.what();
    }
    ctxs.clear();
    pending.clear();
  }

  void finalize(SweepRow& row) const {
    double mw = 0.0, ipc = 0.0;
    std::size_t ok = 0;
    for (const SweepCell& cell : row.cells) {
      if (!cell.ok) continue;
      mw += cell.total_mw;
      ipc += cell.ipc;
      ++ok;
    }
    row.failed = row.cells.size() - ok;
    m_failed_.add(row.failed);
    row.mean_total_mw = 0.0;
    row.mean_ipc = 0.0;
    row.ipc_per_watt = 0.0;
    if (ok > 0) {
      row.mean_total_mw = mw / static_cast<double>(ok);
      row.mean_ipc = ipc / static_cast<double>(ok);
      if (row.mean_total_mw > 0.0) {
        row.ipc_per_watt = row.mean_ipc / (row.mean_total_mw / 1000.0);
      }
    }
  }

  const core::AutoPowerModel& model_;
  const sim::PerfSimulator& sim_;
  const SweepWorkloads& workloads_;
  const std::size_t workers_;
  mutable core::ActivityCells cells_;
  util::Counter& m_cells_ =
      util::MetricsRegistry::global().counter("serve.sweep.cells");
  util::Counter& m_failed_ =
      util::MetricsRegistry::global().counter("serve.sweep.cells_failed");
  util::Histogram& m_cell_latency_ =
      util::MetricsRegistry::global().histogram("serve.sweep.cell_latency_ns");
};

/// Metric under which a row sorts; larger is always better (power is
/// negated).  Rows with no successful cell sort last.
double row_score(const SweepRow& row, SweepMetric metric) {
  if (row.failed == row.cells.size()) {
    return -std::numeric_limits<double>::infinity();
  }
  switch (metric) {
    case SweepMetric::kIpcPerWatt: return row.ipc_per_watt;
    case SweepMetric::kIpc: return row.mean_ipc;
    case SweepMetric::kPower: return -row.mean_total_mw;
  }
  return row.ipc_per_watt;
}

/// The report's total order: metric score descending, grid index
/// ascending as the deterministic tie-break — equivalent to a
/// stable_sort over grid-ordered rows, but independent of which thread
/// evaluated a row and in which order chunks finished.
bool row_better(const SweepRow& a, const SweepRow& b, SweepMetric metric) {
  const double sa = row_score(a, metric);
  const double sb = row_score(b, metric);
  if (sa != sb) return sa > sb;
  return a.index < b.index;
}

/// Bounded best-K collector: a min-heap (front = worst kept row) under
/// row_better, so a streaming sweep holds K rows instead of the whole
/// grid.  k == 0 keeps everything (report-all mode).
class TopKRanker {
 public:
  TopKRanker(std::size_t k, SweepMetric metric) : k_(k), metric_(metric) {}

  void offer(SweepRow&& row) {
    if (k_ == 0) {
      rows_.push_back(std::move(row));
      return;
    }
    const auto worst_first = [this](const SweepRow& a, const SweepRow& b) {
      return row_better(a, b, metric_);
    };
    if (rows_.size() < k_) {
      rows_.push_back(std::move(row));
      std::push_heap(rows_.begin(), rows_.end(), worst_first);
      return;
    }
    if (!row_better(row, rows_.front(), metric_)) return;
    std::pop_heap(rows_.begin(), rows_.end(), worst_first);
    rows_.back() = std::move(row);
    std::push_heap(rows_.begin(), rows_.end(), worst_first);
  }

  /// Kept rows, heap-ordered (callers sort them).
  std::vector<SweepRow>& rows() { return rows_; }

 private:
  std::size_t k_;
  SweepMetric metric_;
  std::vector<SweepRow> rows_;
};

}  // namespace

SweepReport run_sweep(const core::AutoPowerModel& model, const SweepSpec& spec,
                      std::shared_ptr<util::StructuralSimCache> structural) {
  AP_REQUIRE(!spec.workloads.empty(), "sweep needs at least one workload");
  AP_REQUIRE(!spec.resume || !spec.checkpoint.empty(),
             "sweep resume needs a checkpoint path");
  const arch::HardwareConfig& base = arch::boom_config(spec.base);
  const GridCursor cursor(base, spec.axes);
  const std::size_t n_configs = cursor.size();
  const std::size_t n_workloads = spec.workloads.size();
  const SweepWorkloads workloads(spec.workloads);

  if (structural == nullptr) {
    // --memory-budget sizes the structural cache; entries are ~64 B
    // apiece, with a floor so tiny budgets still cache something.
    std::size_t max_entries = 0;
    if (spec.memory_budget > 0) {
      max_entries = std::max<std::size_t>(
          1024, static_cast<std::size_t>(
                    spec.memory_budget /
                    util::StructuralSimCache::kApproxEntryBytes));
    }
    structural =
        std::make_shared<util::StructuralSimCache>(/*shards_per_sub=*/8,
                                                   max_entries);
  }
  const util::StructuralSimCache::Stats before = structural->stats();
  const sim::PerfSimulator sim(sim::SimOptions{}, structural);

  // One ranker for the whole sweep: replayed checkpoint rows go in
  // first, then every chunk's rows under the mutex, taken once per chunk.
  // The (score, grid index) order is total over distinct indices, so the
  // kept rows are independent of thread count and chunk completion order.
  TopKRanker ranker(spec.top, spec.metric);
  std::mutex ranker_mu;

  // Checkpoint replay + writer.  Replayed indices are marked done before
  // any chunk starts, so `done` is read-only while they run.
  std::size_t resumed = 0;
  std::vector<std::uint8_t> done;
  std::unique_ptr<CheckpointWriter> checkpoint;
  if (!spec.checkpoint.empty()) {
    const std::string fingerprint =
        sweep_fingerprint(spec.base, spec.axes, spec.workloads,
                          model.fingerprint());
    std::uint64_t keep_bytes = 0;
    if (spec.resume) {
      CheckpointReplay replay = load_checkpoint(spec.checkpoint, fingerprint,
                                                n_configs, n_workloads);
      keep_bytes = replay.valid_bytes;
      resumed = replay.rows.size();
      if (resumed > 0) done.assign(n_configs, 0);
      for (SweepRow& row : replay.rows) {
        done[row.index] = 1;
        ranker.offer(std::move(row));
      }
    }
    checkpoint = std::make_unique<CheckpointWriter>(
        spec.checkpoint, fingerprint, n_configs, n_workloads, keep_bytes);
  }

  // Process-wide instruments; the cells counter is what the CLI's
  // --progress monitor polls while the sweep runs.
  auto& registry = util::MetricsRegistry::global();
  auto& m_chunks = registry.counter("serve.sweep.chunks");
  const auto sweep_start = std::chrono::steady_clock::now();

  const std::size_t workers = util::parallel_width(n_configs, spec.threads);
  const std::size_t chunk = chunk_size(n_configs, workers);
  const std::size_t n_chunks = (n_configs + chunk - 1) / chunk;
  const ChunkEvaluator evaluator(model, sim, workloads, workers);

  // A chunk that throws (a checkpoint write, an allocation) leaves
  // unevaluated configs and possibly unwritten checkpoint rows;
  // parallel_for rethrows, so the sweep fails loudly rather than rank a
  // partial grid.  parallel_for still runs every other index, so chunks
  // that start after a failure return at once instead of evaluating the
  // rest of the grid first.
  std::atomic<bool> failed{false};
  util::parallel_for(n_chunks, workers, [&](std::size_t c) {
    if (failed.load(std::memory_order_relaxed)) return;
    try {
      m_chunks.inc();
      const std::size_t begin = c * chunk;
      const std::size_t end = std::min(begin + chunk, n_configs);
      std::vector<SweepRow> rows;
      rows.reserve(end - begin);
      std::string name;
      std::array<int, arch::kNumHwParams> values{};
      for (std::size_t i = begin; i < end; ++i) {
        if (!done.empty() && done[i]) continue;  // replayed from checkpoint
        cursor.values_at(i, values);
        cursor.format_name(i, name);
        SweepRow& row = rows.emplace_back();
        row.index = i;
        row.config = arch::HardwareConfig(name, values);
      }
      evaluator.evaluate(c, rows);
      if (checkpoint != nullptr) {
        std::string json;
        for (const SweepRow& row : rows) {
          json.clear();
          append_row_json(json, row);
          checkpoint->append(row.index, json);
        }
      }
      std::lock_guard lock(ranker_mu);
      for (SweepRow& row : rows) ranker.offer(std::move(row));
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      throw;
    }
  });
  if (checkpoint != nullptr) checkpoint->close();

  SweepReport report;
  report.configs = n_configs;
  report.evaluations = n_configs * n_workloads;
  report.resumed = resumed;
  {
    const util::StructuralSimCache::Stats after = structural->stats();
    report.structural = {after.hits - before.hits,
                         after.misses - before.misses,
                         after.evictions - before.evictions};
  }
  if (util::MetricsRegistry::enabled()) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    registry.gauge("serve.sweep.cells_per_sec")
        .set(elapsed > 0.0 ? static_cast<double>(report.evaluations) /
                                 elapsed
                           : 0.0);
    structural->export_metrics(registry);
  }

  // A full sort of the K (or all) kept rows.
  report.rows = std::move(ranker.rows());
  std::sort(report.rows.begin(), report.rows.end(),
            [&spec](const SweepRow& a, const SweepRow& b) {
              return row_better(a, b, spec.metric);
            });
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    report.rows[i].rank = i + 1;
  }
  return report;
}

std::vector<SweepRow> evaluate_configs(
    const core::AutoPowerModel& model,
    std::span<const arch::HardwareConfig> configs,
    std::span<const std::string> workloads, std::size_t threads,
    std::shared_ptr<util::StructuralSimCache> structural) {
  AP_REQUIRE(!workloads.empty(),
             "evaluate_configs needs at least one workload");
  const SweepWorkloads resolved(workloads);
  std::vector<SweepRow> rows(configs.size());
  if (configs.empty()) return rows;
  const sim::PerfSimulator sim =
      structural == nullptr
          ? sim::PerfSimulator()
          : sim::PerfSimulator(sim::SimOptions{}, std::move(structural));

  // Results land at their input index, so the output order (and every
  // byte of it) is independent of which thread runs which chunk.
  const std::size_t workers = util::parallel_width(configs.size(), threads);
  const std::size_t chunk = chunk_size(configs.size(), workers);
  const std::size_t n_chunks = (configs.size() + chunk - 1) / chunk;
  const ChunkEvaluator evaluator(model, sim, resolved, workers);
  util::parallel_for(n_chunks, workers, [&](std::size_t c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(begin + chunk, configs.size());
    for (std::size_t i = begin; i < end; ++i) {
      rows[i].index = i;
      rows[i].config = configs[i];
    }
    evaluator.evaluate(c, std::span(rows).subspan(begin, end - begin));
  });
  return rows;
}

void append_row_json(std::string& out, const SweepRow& row) {
  out += "\"config\":\"";
  out += json_escape(row.config.name());
  out += "\",\"params\":{";
  bool first = true;
  for (arch::HwParam p : arch::all_hw_params()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += arch::hw_param_name(p);
    out += "\":";
    append_int(out, row.config.value(p));
  }
  out += "},\"mean_total_mw\":";
  append_json_number(out, row.mean_total_mw);
  out += ",\"mean_ipc\":";
  append_json_number(out, row.mean_ipc);
  out += ",\"ipc_per_watt\":";
  append_json_number(out, row.ipc_per_watt);
  out += ",\"failed\":";
  append_int(out, static_cast<long long>(row.failed));
  out += ",\"cells\":[";
  for (std::size_t i = 0; i < row.cells.size(); ++i) {
    const SweepCell& cell = row.cells[i];
    if (i > 0) out += ',';
    out += "{\"workload\":\"";
    out += json_escape(cell.workload);
    out += "\",\"ok\":";
    out += cell.ok ? "true" : "false";
    if (cell.ok) {
      out += ",\"total_mw\":";
      append_json_number(out, cell.total_mw);
      out += ",\"ipc\":";
      append_json_number(out, cell.ipc);
    } else {
      out += ",\"error\":\"";
      out += json_escape(cell.error);
      out += '"';
    }
    out += '}';
  }
  out += ']';
}

void write_sweep_report(std::ostream& out, const SweepReport& report) {
  std::string line;
  for (const SweepRow& row : report.rows) {
    // Stream-flavoured fault: latches badbit like a full disk, caught by
    // the caller's flush_and_check — a torn report must exit non-zero.
    AUTOPOWER_FAULT_STREAM("serve.report.write_row", out);
    line.clear();
    line += "{\"rank\":";
    append_int(line, static_cast<long long>(row.rank));
    line += ',';
    append_row_json(line, row);
    line += "}\n";
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

}  // namespace autopower::serve
