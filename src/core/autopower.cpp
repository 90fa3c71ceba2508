#include "core/autopower.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>
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

// Per trace on the cell path: its windows, and the cells it evaluated
// summed over the 22 components.  Registered by the first such trace, so
// snapshots of runs without one do not list them.
struct CellMetrics {
  util::Counter& windows;
  util::Counter& cells;
};

CellMetrics& cell_metrics() {
  auto& r = util::MetricsRegistry::global();
  static CellMetrics m{r.counter("core.predict_trace.windows"),
                       r.counter("core.predict_trace.cells")};
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

// One multiply-xorshift step of row_hash and the trace cells' key hash.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0xff51afd7ed558ccdULL;
  return h ^ (h >> 32);
}

constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

// Multiply-xorshift over the row's bit patterns.
std::uint64_t row_hash(std::span<const double> row) {
  std::uint64_t h = kHashSeed;
  for (const double v : row) h = mix(h, std::bit_cast<std::uint64_t>(v));
  return h;
}

// Numbers keys of `width` values in first-seen order, comparing them as
// bit patterns (so rows that differ only by -0.0/+0.0 or by a NaN
// payload stay distinct): an open-addressed table of key numbers, doubled
// before it is half full.  keys() holds each key once, in number order.
template <typename T>
class KeyTable {
 public:
  explicit KeyTable(std::size_t width) : width_(width) {}

  // Forgets every key; the next key is numbered 0.
  void reset(std::size_t width) {
    width_ = width;
    keys_.clear();
    hashes_.clear();
    std::fill(table_.begin(), table_.end(), kEmpty);
  }

  // The number of the key key[k * stride], k < width, whose hash is h;
  // a new key gets number size() - 1.
  std::uint32_t insert(const T* key, std::size_t stride, std::uint64_t h) {
    if (2 * (hashes_.size() + 1) > table_.size()) grow();
    const std::size_t mask = table_.size() - 1;
    std::size_t b = h & mask;
    for (; table_[b] != kEmpty; b = (b + 1) & mask) {
      const std::uint32_t k = table_[b];
      if (hashes_[k] == h && same(k, key, stride)) return k;
    }
    const auto k = static_cast<std::uint32_t>(hashes_.size());
    table_[b] = k;
    hashes_.push_back(h);
    for (std::size_t v = 0; v < width_; ++v) keys_.push_back(key[v * stride]);
    return k;
  }

  [[nodiscard]] std::size_t size() const noexcept { return hashes_.size(); }
  [[nodiscard]] std::span<const T> keys() const noexcept { return keys_; }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  using Bits =
      std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;

  bool same(std::uint32_t k, const T* key, std::size_t stride) const {
    const T* const stored = keys_.data() + k * width_;
    for (std::size_t v = 0; v < width_; ++v) {
      if (std::bit_cast<Bits>(stored[v]) !=
          std::bit_cast<Bits>(key[v * stride])) {
        return false;
      }
    }
    return true;
  }

  void grow() {
    table_.assign(std::max<std::size_t>(2 * table_.size(), 64), kEmpty);
    const std::size_t mask = table_.size() - 1;
    for (std::uint32_t k = 0; k < hashes_.size(); ++k) {
      std::size_t b = hashes_[k] & mask;
      while (table_[b] != kEmpty) b = (b + 1) & mask;
      table_[b] = k;
    }
  }

  std::size_t width_;
  std::vector<T> keys_;
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> table_;
};

// The tile-major loop's per-component body: m H+E+P rows of one
// component, ranked once by its bundle, feed its clock, SRAM and logic
// models (the H+E forests read each row's prefix); cfgs[k] is row k's
// config.  Row k's groups are then at(k).  Every group output is a
// function of the component's row alone.
class GroupTile {
 public:
  void predict(const ClockPowerModel& clock, const SramPowerModel& sram,
               const LogicPowerModel& logic, const ml::ForestBundle& forests,
               std::span<const double> rows, std::size_t arity,
               std::span<const arch::HardwareConfig* const> cfgs) {
    const std::size_t m = cfgs.size();
    forests.rank(rows.first(m * arity), arity, ranked_);
    clock.predict_tile(cfgs, forests, ranked_, {clock_.data(), m});
    sram.predict_tile(cfgs, forests, ranked_, {sram_.data(), m});
    logic.predict_tile(cfgs, forests, ranked_, {reg_.data(), m},
                       {comb_.data(), m});
  }

  [[nodiscard]] power::PowerGroups at(std::size_t k) const {
    return {clock_[k], sram_[k], reg_[k], comb_[k]};
  }

 private:
  static constexpr std::size_t kRows = AutoPowerModel::kTileRows;
  std::array<double, kRows> clock_;
  std::array<double, kRows> sram_;
  std::array<double, kRows> reg_;
  std::array<double, kRows> comb_;
  ml::ForestTile ranked_;
};

// Sums each context's groups as PowerResult::totals().total() does, so
// every element is bit-identical to predict(ctx).total().
std::vector<double> group_totals(std::span<const power::PowerGroups> acc) {
  std::vector<double> out;
  out.reserve(acc.size());
  for (const power::PowerGroups& groups : acc) out.push_back(groups.total());
  return out;
}

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
  cells_decide_ = true;
  for (arch::ComponentKind c : arch::all_components()) {
    const auto i = static_cast<std::size_t>(c);
    const auto forests = component_forests(i);
    forests_[i] = ml::ForestBundle(forests);
    cells_decide_ = cells_decide_ && !clock_[i].linear_alpha();

    // Event k is feature e_begin + k of the component's H+E+P row.
    // Equality merges -0.0 with +0.0, which every value compares against
    // alike.
    const auto events = arch::component_events(c);
    const std::size_t e_begin = arch::component_hw_params(c).size();
    std::vector<std::vector<double>> per_event(events.size());
    for (const ml::GBTRegressor* forest : forests) {
      for (const ml::RegressionTree& tree : forest->trees()) {
        for (const auto& node : tree.nodes()) {
          const auto k = static_cast<std::size_t>(node.feature) - e_begin;
          if (node.feature >= 0 && k < events.size() &&
              !std::isnan(node.threshold)) {
            per_event[k].push_back(node.threshold);
          }
        }
      }
    }
    TraceCells& cells = trace_cells_[i];
    cells = {};
    for (std::size_t k = 0; k < events.size(); ++k) {
      auto& u = per_event[k];
      if (u.empty()) continue;  // no tree reads the event
      std::sort(u.begin(), u.end());
      u.erase(std::unique(u.begin(), u.end()), u.end());
      cells.events.push_back(events[k]);
      cells.thresholds.push_back(std::move(u));
    }
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
                                          Sink&& sink) const {
  AP_REQUIRE(trained_, "AutoPower not trained");
  // Tile-major: per tile and component, one H+E+P feature tile is ranked
  // once and feeds all three group models, so the tile, its ranks and
  // every forest's outputs stay cache-resident.  Only the first row of
  // each distinct byte pattern is ranked and walked, and its groups go to
  // every duplicate.  Each context still sees its components in Table III
  // order.
  std::array<std::uint32_t, kTileRows> slot{};
  std::array<const arch::HardwareConfig*, kTileRows> cfgs{};
  KeyTable<double> distinct(0);
  GroupTile groups;
  auto& metrics = row_metrics();
  for (std::size_t begin = 0; begin < ctxs.size(); begin += kTileRows) {
    const auto tile =
        ctxs.subspan(begin, std::min(kTileRows, ctxs.size() - begin));
    const std::size_t n = tile.size();
    for (arch::ComponentKind c : arch::all_components()) {
      const auto i = static_cast<std::size_t>(c);
      const auto rows = feature_rows(c, FeatureSpec::hep(), tile);
      const std::size_t arity = rows.size() / n;
      distinct.reset(arity);
      for (std::size_t j = 0; j < n; ++j) {
        const double* const row = rows.data() + j * arity;
        const std::size_t known = distinct.size();
        slot[j] = distinct.insert(row, 1, row_hash({row, arity}));
        if (distinct.size() > known) cfgs[known] = tile[j].cfg;
      }
      const std::size_t m = distinct.size();
      metrics.rows.add(n);
      metrics.distinct_rows.add(m);
      groups.predict(clock_[i], sram_[i], logic_[i], forests_[i],
                     distinct.keys(), arity, {cfgs.data(), m});
      for (std::size_t j = 0; j < n; ++j) {
        sink(c, begin + j, groups.at(slot[j]));
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
  for_each_group_power(ctxs, [&](arch::ComponentKind c, std::size_t j,
                                 const power::PowerGroups& groups) {
    out[j].components[static_cast<std::size_t>(c)] = {c, groups};
  });
  return out;
}

double AutoPowerModel::predict_total(const EvalContext& ctx) const {
  return predict_total_batch({&ctx, 1}).front();
}

std::vector<double> AutoPowerModel::predict_total_batch(
    std::span<const EvalContext> ctxs) const {
  if (ctxs.empty()) return {};
  return totals(ctxs);
}

std::vector<double> AutoPowerModel::totals(
    std::span<const EvalContext> ctxs) const {
  // Each context keeps one running PowerGroups instead of a 22-component
  // vector, accumulated field by field in component order.
  std::vector<power::PowerGroups> acc(ctxs.size());
  for_each_group_power(ctxs, [&](arch::ComponentKind, std::size_t j,
                                 const power::PowerGroups& groups) {
    acc[j] += groups;
  });
  return group_totals(acc);
}

std::vector<double> AutoPowerModel::predict_trace(
    std::span<const EvalContext> windows) const {
  if (windows.empty()) return {};
  AP_REQUIRE(trained_, "AutoPower not trained");
  const EvalContext& first = windows.front();
  const bool one_design =
      std::all_of(windows.begin(), windows.end(), [&](const EvalContext& w) {
        return w.cfg == first.cfg && w.program == first.program;
      });
  if (!one_design || !cells_decide_) return totals(windows);

  // Every window has the same H and P, so a component's row differs from
  // window to window only in its E rates.  Two windows whose rates have
  // equal ranks against the component's trace cells take the same branch
  // at every node of every tree of its forests (!(x < t) ranks NaN and
  // values above the top threshold alike), so they reach the same leaves
  // and get the same forest outputs; the group formulas read only the
  // cfg and those outputs.  Each cell is therefore predicted once, from
  // its first window, and its groups go to every window of the cell,
  // accumulated per window in component order as totals() does.
  std::vector<KeyTable<std::uint32_t>> keys;
  std::array<std::vector<power::PowerGroups>, arch::kNumComponents> cells;
  for (const TraceCells& tc : trace_cells_) {
    keys.emplace_back(tc.events.size());
  }
  std::vector<power::PowerGroups> acc(windows.size());
  std::array<const arch::HardwareConfig*, kTileRows> cfgs;
  cfgs.fill(first.cfg);
  std::array<double, kTileRows> rates;
  std::array<std::uint64_t, kTileRows> hashes;
  std::array<std::uint32_t, kTileRows> cell;
  std::vector<std::uint32_t> ranks;
  std::vector<double> rows;
  GroupTile groups;
  for (std::size_t begin = 0; begin < windows.size(); begin += kTileRows) {
    const auto tile =
        windows.subspan(begin, std::min(kTileRows, windows.size() - begin));
    const std::size_t n = tile.size();
    for (arch::ComponentKind c : arch::all_components()) {
      const auto i = static_cast<std::size_t>(c);
      const TraceCells& tc = trace_cells_[i];
      // ranks[k * n + j]: window j's rank on the component's k-th event.
      ranks.resize(tc.events.size() * n);
      std::fill_n(hashes.begin(), n, kHashSeed);
      for (std::size_t k = 0; k < tc.events.size(); ++k) {
        for (std::size_t j = 0; j < n; ++j) {
          rates[j] = tile[j].events.rate(tc.events[k]);
        }
        std::uint32_t* const r = ranks.data() + k * n;
        ml::rank_values({rates.data(), n}, tc.thresholds[k], r);
        for (std::size_t j = 0; j < n; ++j) hashes[j] = mix(hashes[j], r[j]);
      }
      rows.clear();
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t known = keys[i].size();
        cell[j] = keys[i].insert(ranks.data() + j, n, hashes[j]);
        if (keys[i].size() == known) continue;
        feature_vector_into(c, FeatureSpec::hep(), *tile[j].cfg,
                            tile[j].events, tile[j].program, rows);
      }
      const std::size_t fresh = keys[i].size() - cells[i].size();
      if (fresh > 0) {
        groups.predict(clock_[i], sram_[i], logic_[i], forests_[i], rows,
                       rows.size() / fresh, {cfgs.data(), fresh});
        for (std::size_t k = 0; k < fresh; ++k) {
          cells[i].push_back(groups.at(k));
        }
      }
      for (std::size_t j = 0; j < n; ++j) acc[begin + j] += cells[i][cell[j]];
    }
  }
  auto& metrics = cell_metrics();
  metrics.windows.add(windows.size());
  for (const auto& component_cells : cells) {
    metrics.cells.add(component_cells.size());
  }
  return group_totals(acc);
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
