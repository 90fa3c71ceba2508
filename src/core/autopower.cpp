#include "core/autopower.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/features.hpp"
#include "util/archive.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace autopower::core {

namespace {

// Per-group sub-model fit timings plus the whole train() wall time;
// one histogram observation per sub-model fit (22 per group per train).
struct TrainMetrics {
  util::Histogram& train_ns;
  util::Histogram& clock_fit_ns;
  util::Histogram& sram_fit_ns;
  util::Histogram& logic_fit_ns;
  util::Counter& submodel_fits;
};

// Pinned power traces: the compile cost (one observation per pinned
// trace) and, summed over every forest of the trace, the trees its tables
// hold and the trees each window still walks.
struct TraceMetrics {
  util::Histogram& pin_ns;
  util::Counter& tabled_trees;
  util::Counter& walked_trees;
};

TraceMetrics& trace_metrics() {
  auto& r = util::MetricsRegistry::global();
  static TraceMetrics m{r.histogram("core.predict_trace.pin_ns"),
                        r.counter("core.predict_trace.tabled_trees"),
                        r.counter("core.predict_trace.walked_trees")};
  return m;
}

// Component rows the tile-major loop assembled and the distinct ones it
// ranked and walked, one add each per (tile, component).
struct RowMetrics {
  util::Counter& rows;
  util::Counter& distinct_rows;
};

RowMetrics& row_metrics() {
  auto& r = util::MetricsRegistry::global();
  static RowMetrics m{r.counter("core.predict.rows"),
                      r.counter("core.predict.distinct_rows")};
  return m;
}

TrainMetrics& train_metrics() {
  auto& r = util::MetricsRegistry::global();
  static TrainMetrics m{r.histogram("core.train.train_ns"),
                        r.histogram("core.train.clock_fit_ns"),
                        r.histogram("core.train.sram_fit_ns"),
                        r.histogram("core.train.logic_fit_ns"),
                        r.counter("core.train.submodel_fits")};
  return m;
}

// Multiply-xorshift over the row's bit patterns.
std::uint64_t row_hash(std::span<const double> row) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const double v : row) {
    h = (h ^ std::bit_cast<std::uint64_t>(v)) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return h;
}

// Keys each row of a feature tile by its bytes, so rows that differ only
// by -0.0/+0.0 or by a NaN payload stay distinct: an open-addressed
// table, at most half full, of indices into the compacted rows.
class DistinctRows {
 public:
  // Moves the first occurrence of each distinct row of `rows` (n rows,
  // `arity` wide) to the front, in first-seen order, and returns their
  // count m.  slot[j] names row j's distinct row; cfgs[k] is the config
  // of distinct row k's first occurrence in `tile`.
  std::size_t compact(std::span<double> rows, std::size_t arity,
                      std::span<const EvalContext> tile,
                      std::span<std::uint32_t> slot,
                      std::span<const arch::HardwareConfig*> cfgs) {
    const std::size_t n = tile.size();
    const std::size_t mask = std::bit_ceil(2 * n) - 1;
    table_.assign(mask + 1, kEmpty);
    std::size_t m = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const auto row = rows.subspan(j * arity, arity);
      const std::uint64_t h = row_hash(row);
      std::size_t b = h & mask;
      for (; table_[b] != kEmpty; b = (b + 1) & mask) {
        const std::uint32_t k = table_[b];
        if (hashes_[k] == h &&
            std::memcmp(rows.data() + k * arity, row.data(),
                        arity * sizeof(double)) == 0) {
          break;
        }
      }
      if (table_[b] == kEmpty) {
        table_[b] = static_cast<std::uint32_t>(m);
        hashes_[m] = h;
        if (m != j) {
          std::copy(row.begin(), row.end(), rows.begin() + m * arity);
        }
        cfgs[m] = tile[j].cfg;
        ++m;
      }
      slot[j] = table_[b];
    }
    return m;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  std::vector<std::uint32_t> table_;
  std::array<std::uint64_t, AutoPowerModel::kTileRows> hashes_{};
};

}  // namespace

void AutoPowerModel::train(std::span<const EvalContext> samples,
                           const power::GoldenPowerModel& golden,
                           std::size_t threads) {
  AP_REQUIRE(!samples.empty(), "AutoPower needs training samples");
  util::ScopedTimer train_timer(train_metrics().train_ns);
  // Reset every slot up front (serially — cheap) so the fit tasks below
  // only ever touch their own component's models.
  for (arch::ComponentKind c : arch::all_components()) {
    const auto i = static_cast<std::size_t>(c);
    clock_[i] = ClockPowerModel(options_.clock);
    sram_[i] = SramPowerModel(options_.sram);
    logic_[i] = LogicPowerModel(options_.logic);
  }

  // 22 components x 3 groups = 66 independent fits, task t fitting group
  // t % 3 of component t / 3.  Each task writes one pre-reset slot and
  // nothing else, so the trained model does not depend on scheduling:
  // archives are byte-identical at any thread count.
  util::parallel_for(3 * arch::kNumComponents, threads, [&](std::size_t t) {
    const arch::ComponentKind c = arch::all_components()[t / 3];
    const auto i = static_cast<std::size_t>(c);
    switch (t % 3) {
      case 0: {
        util::ScopedTimer timer(train_metrics().clock_fit_ns);
        clock_[i].train(c, samples, golden);
        break;
      }
      case 1: {
        util::ScopedTimer timer(train_metrics().sram_fit_ns);
        sram_[i].train(c, samples, golden);
        break;
      }
      default: {
        util::ScopedTimer timer(train_metrics().logic_fit_ns);
        logic_[i].train(c, samples, golden);
        break;
      }
    }
    train_metrics().submodel_fits.inc();
  });
  rebuild_forests();
  trained_ = true;
  refresh_fingerprint();
}

std::vector<const ml::GBTRegressor*> AutoPowerModel::component_forests(
    std::size_t i) const {
  auto out = clock_[i].forests();
  for (const auto& group : {sram_[i].forests(), logic_[i].forests()}) {
    out.insert(out.end(), group.begin(), group.end());
  }
  return out;
}

void AutoPowerModel::rebuild_forests() {
  for (std::size_t i = 0; i < arch::kNumComponents; ++i) {
    forests_[i] = ml::ForestBundle(component_forests(i));
  }
}

void AutoPowerModel::refresh_fingerprint() {
  // Fingerprint the archive bytes, not the in-memory layout, so a trained
  // model and a load() of its saved archive carry the same identity token.
  std::ostringstream archive;
  save(archive);
  fingerprint_ = util::content_fingerprint(archive.str());
}

void AutoPowerModel::save(std::ostream& out) const {
  AP_REQUIRE(trained_, "cannot save an untrained AutoPower model");
  util::ArchiveWriter w(out);
  w.write("autopower.format", std::int64_t{1});
  w.write("autopower.components",
          static_cast<std::int64_t>(arch::kNumComponents));
  for (arch::ComponentKind c : arch::all_components()) {
    const auto i = static_cast<std::size_t>(c);
    clock_[i].save(w);
    sram_[i].save(w);
    logic_[i].save(w);
  }
}

void AutoPowerModel::load(std::istream& in) {
  // Slurp the whole archive first: the fingerprint must hash exactly the
  // bytes that were parsed, and hashing a replay of the same buffer keeps
  // the two trivially in sync.
  std::ostringstream buf;
  buf << in.rdbuf();
  AP_REQUIRE(!in.bad(), "failed reading AutoPower archive stream");
  const std::string bytes = buf.str();
  std::istringstream replay(bytes);
  util::ArchiveReader r(replay);
  AP_REQUIRE(r.read_int("autopower.format") == 1,
             "unsupported AutoPower archive format");
  AP_REQUIRE(r.read_int("autopower.components") ==
                 static_cast<std::int64_t>(arch::kNumComponents),
             "archive component count does not match this build");
  for (arch::ComponentKind c : arch::all_components()) {
    const auto i = static_cast<std::size_t>(c);
    clock_[i].load(r);
    sram_[i].load(r);
    logic_[i].load(r);
    // Slot i's structural sub-models must read component i's H: the
    // tile-major loop keys rows by that component's H+E+P features.
    if (clock_[i].component() != c || sram_[i].component() != c ||
        logic_[i].component() != c) {
      throw util::InvalidArgument(
          "corrupt AutoPower archive: a group model in the " +
          std::string(arch::component_name(c)) +
          " slot belongs to another component");
    }
  }
  rebuild_forests();
  trained_ = true;
  fingerprint_ = util::content_fingerprint(bytes);
}

void AutoPowerModel::save_to_file(const std::string& path) const {
  std::ofstream out(path);
  AP_REQUIRE(out.good(), "cannot open file for writing: " + path);
  save(out);
  AP_REQUIRE(out.good(), "failed writing model file: " + path);
}

void AutoPowerModel::load_from_file(const std::string& path) {
  std::ifstream in(path);
  AP_REQUIRE(in.good(), "cannot open model file: " + path);
  load(in);
}

template <typename Sink>
void AutoPowerModel::for_each_group_power(std::span<const EvalContext> ctxs,
                                          const Bundles& bundles, bool dedupe,
                                          Sink&& sink) const {
  AP_REQUIRE(trained_, "AutoPower not trained");
  // Tile-major: per tile and component, one H+E+P feature tile is ranked
  // once and feeds all three group models (the H+E forests read each
  // row's prefix), so the tile, its ranks and every forest's outputs stay
  // cache-resident.  Every group output is a function of the component's
  // row alone, so with `dedupe` only the first row of each distinct byte
  // pattern is ranked and walked, and its groups go to every duplicate.
  // Each context still sees its components in Table III order.
  std::array<double, kTileRows> clock;
  std::array<double, kTileRows> sram;
  std::array<double, kTileRows> reg;
  std::array<double, kTileRows> comb;
  std::array<std::uint32_t, kTileRows> slot{};
  std::array<const arch::HardwareConfig*, kTileRows> cfgs{};
  DistinctRows distinct;
  ml::ForestTile ranked;
  auto& metrics = row_metrics();
  for (std::size_t begin = 0; begin < ctxs.size(); begin += kTileRows) {
    const auto tile =
        ctxs.subspan(begin, std::min(kTileRows, ctxs.size() - begin));
    const std::size_t n = tile.size();
    for (arch::ComponentKind c : arch::all_components()) {
      const auto i = static_cast<std::size_t>(c);
      auto rows = feature_rows(c, FeatureSpec::hep(), tile);
      const std::size_t arity = rows.size() / n;
      std::size_t m = n;
      if (dedupe) {
        m = distinct.compact(rows, arity, tile, slot, cfgs);
      } else {
        for (std::size_t j = 0; j < n; ++j) {
          slot[j] = static_cast<std::uint32_t>(j);
          cfgs[j] = tile[j].cfg;
        }
      }
      metrics.rows.add(n);
      metrics.distinct_rows.add(m);
      const ml::ForestBundle& forests = bundles[i];
      forests.rank({rows.data(), m * arity}, arity, ranked);
      const std::span<const arch::HardwareConfig* const> row_cfgs(cfgs.data(),
                                                                  m);
      clock_[i].predict_tile(row_cfgs, forests, ranked, {clock.data(), m});
      sram_[i].predict_tile(row_cfgs, forests, ranked, {sram.data(), m});
      logic_[i].predict_tile(row_cfgs, forests, ranked, {reg.data(), m},
                             {comb.data(), m});
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint32_t k = slot[j];
        sink(c, begin + j,
             power::PowerGroups{clock[k], sram[k], reg[k], comb[k]});
      }
    }
  }
}

power::PowerResult AutoPowerModel::predict(const EvalContext& ctx) const {
  return predict_batch({&ctx, 1}).front();
}

std::vector<power::PowerResult> AutoPowerModel::predict_batch(
    std::span<const EvalContext> ctxs) const {
  if (ctxs.empty()) return {};  // nothing to do, even untrained
  std::vector<power::PowerResult> out(ctxs.size());
  for (auto& r : out) r.components.resize(arch::kNumComponents);
  for_each_group_power(ctxs, forests_, /*dedupe=*/true,
                       [&](arch::ComponentKind c, std::size_t j,
                           const power::PowerGroups& groups) {
                         out[j].components[static_cast<std::size_t>(c)] = {
                             c, groups};
                       });
  return out;
}

double AutoPowerModel::predict_total(const EvalContext& ctx) const {
  return predict_total_batch({&ctx, 1}).front();
}

std::vector<double> AutoPowerModel::predict_total_batch(
    std::span<const EvalContext> ctxs) const {
  if (ctxs.empty()) return {};
  return totals(ctxs, forests_, /*dedupe=*/true);
}

std::vector<double> AutoPowerModel::totals(std::span<const EvalContext> ctxs,
                                           const Bundles& bundles,
                                           bool dedupe) const {
  // Each context keeps one running PowerGroups instead of a 22-component
  // vector.  The per-field accumulation in component order followed by
  // clock+sram+logic_register+logic_comb reproduces
  // PowerResult::totals().total() exactly, so every element is
  // bit-identical to predict(ctxs[i]).total().
  std::vector<power::PowerGroups> acc(ctxs.size());
  for_each_group_power(ctxs, bundles, dedupe,
                       [&](arch::ComponentKind, std::size_t j,
                           const power::PowerGroups& groups) {
                         acc[j] += groups;
                       });
  std::vector<double> out;
  out.reserve(ctxs.size());
  for (const power::PowerGroups& groups : acc) out.push_back(groups.total());
  return out;
}

std::vector<double> AutoPowerModel::predict_trace(
    std::span<const EvalContext> windows) const {
  if (windows.empty()) return {};
  AP_REQUIRE(trained_, "AutoPower not trained");
  auto& metrics = trace_metrics();
  const EvalContext& first = windows.front();
  const bool one_design =
      std::all_of(windows.begin(), windows.end(), [&](const EvalContext& w) {
        return w.cfg == first.cfg && w.program == first.program;
      });
  if (!one_design) return totals(windows, forests_, /*dedupe=*/true);

  // Pin each component's H block (from the shared cfg) and P block (from
  // the shared program) at the first window's values; E stays free.
  Bundles pinned;
  {
    util::ScopedTimer pin_timer(metrics.pin_ns);
    for (arch::ComponentKind c : arch::all_components()) {
      const auto i = static_cast<std::size_t>(c);
      const auto row = feature_vector(c, FeatureSpec::hep(), *first.cfg,
                                      first.events, first.program);
      const std::size_t e_begin = arch::component_hw_params(c).size();
      const std::size_t e_end = e_begin + arch::component_events(c).size();
      std::vector<std::optional<double>> pins(row.size());
      for (std::size_t f = 0; f < row.size(); ++f) {
        if (f < e_begin || f >= e_end) pins[f] = row[f];
      }
      pinned[i] = ml::ForestBundle(component_forests(i), pins, windows.size());
      metrics.tabled_trees.add(pinned[i].tabled_trees());
      metrics.walked_trees.add(pinned[i].walked_trees());
    }
  }
  // A trace's windows are distinct rows: hashing them finds nothing and
  // costs about a sixth of this call (DESIGN.md, "Distinct rows per tile").
  return totals(windows, pinned, /*dedupe=*/false);
}

const ClockPowerModel& AutoPowerModel::clock_model(
    arch::ComponentKind c) const {
  return clock_[static_cast<std::size_t>(c)];
}

const SramPowerModel& AutoPowerModel::sram_model(
    arch::ComponentKind c) const {
  return sram_[static_cast<std::size_t>(c)];
}

const LogicPowerModel& AutoPowerModel::logic_model(
    arch::ComponentKind c) const {
  return logic_[static_cast<std::size_t>(c)];
}

const ml::ForestBundle& AutoPowerModel::forests(arch::ComponentKind c) const {
  return forests_[static_cast<std::size_t>(c)];
}

}  // namespace autopower::core
