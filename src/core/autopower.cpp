#include "core/autopower.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <type_traits>

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

// Component rows the tile-major loop keyed, and the activity cells it
// walked through the forests (table misses), one add each per tile and
// component.
struct PredictMetrics {
  util::Counter& rows;
  util::Counter& cells;
};

PredictMetrics& predict_metrics() {
  auto& r = util::MetricsRegistry::global();
  static PredictMetrics m{r.counter("core.predict.rows"),
                          r.counter("core.predict.cells")};
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

// One multiply-xorshift step of the key hashes.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0xff51afd7ed558ccdULL;
  return h ^ (h >> 32);
}

constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

// Tiles compare programs as bytes; the P block has no padding.
static_assert(sizeof(workload::ProgramFeatures) ==
              kNumProgramFeatures * sizeof(double));

// Multiply-xorshift over bit patterns.
template <typename T>
std::uint64_t key_hash(std::span<const T> key) {
  std::uint64_t h = kHashSeed;
  for (const T v : key) {
    if constexpr (std::is_same_v<T, double>) {
      h = mix(h, std::bit_cast<std::uint64_t>(v));
    } else {
      h = mix(h, v);
    }
  }
  return h;
}

// Numbers keys of `width` values in first-seen order, comparing them as
// bit patterns (so keys that differ only by -0.0/+0.0 or by a NaN
// payload stay distinct): an open-addressed table of key numbers, doubled
// before it is half full.
template <typename T>
class KeyTable {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  explicit KeyTable(std::size_t width) : width_(width) {}

  // Forgets every key; the next key is numbered 0.
  void reset(std::size_t width) {
    width_ = width;
    keys_.clear();
    hashes_.clear();
    std::fill(table_.begin(), table_.end(), kAbsent);
  }

  // The number of the key key[k * stride], k < width, whose hash is h, or
  // kAbsent.
  [[nodiscard]] std::uint32_t find(const T* key, std::size_t stride,
                                   std::uint64_t h) const {
    if (table_.empty()) return kAbsent;
    const std::size_t mask = table_.size() - 1;
    for (std::size_t b = h & mask; table_[b] != kAbsent; b = (b + 1) & mask) {
      const std::uint32_t k = table_[b];
      if (hashes_[k] == h && same(k, key, stride)) return k;
    }
    return kAbsent;
  }

  // find(), numbering a new key size() - 1.
  std::uint32_t insert(const T* key, std::size_t stride, std::uint64_t h) {
    if (2 * (hashes_.size() + 1) > table_.size()) grow();
    const std::size_t mask = table_.size() - 1;
    std::size_t b = h & mask;
    for (; table_[b] != kAbsent; b = (b + 1) & mask) {
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
  [[nodiscard]] const T* key(std::uint32_t k) const noexcept {
    return keys_.data() + k * width_;
  }
  [[nodiscard]] std::uint64_t hash(std::uint32_t k) const noexcept {
    return hashes_[k];
  }

 private:
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
    table_.assign(std::max<std::size_t>(2 * table_.size(), 64), kAbsent);
    const std::size_t mask = table_.size() - 1;
    for (std::uint32_t k = 0; k < hashes_.size(); ++k) {
      std::size_t b = hashes_[k] & mask;
      while (table_[b] != kAbsent) b = (b + 1) & mask;
      table_[b] = k;
    }
  }

  std::size_t width_;
  std::vector<T> keys_;
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> table_;
};

// The rank of x against the sorted, non-empty thresholds.
std::uint32_t rank_of(double x, std::span<const double> thresholds) {
  std::uint32_t r = 0;
  ml::rank_values({&x, 1}, thresholds, &r);
  return r;
}

}  // namespace

// One component's cells: rank keys (CellIndex::key_width values) and
// `width` forest outputs per key, in key order.
struct ActivityCells::Table {
  std::mutex mu;
  KeyTable<std::uint32_t> keys{0};
  std::vector<double> activity;
  std::size_t width = 0;

  // Copies the outputs of each key of `cells` the table holds to
  // out[k * width...] and appends the other keys' numbers to `missing`.
  void lookup(const KeyTable<std::uint32_t>& cells, std::span<double> out,
              std::vector<std::uint32_t>& missing) {
    const std::lock_guard lock(mu);
    for (std::uint32_t k = 0; k < cells.size(); ++k) {
      const std::uint32_t at = keys.find(cells.key(k), 1, cells.hash(k));
      if (at == KeyTable<std::uint32_t>::kAbsent) {
        missing.push_back(k);
        continue;
      }
      std::copy_n(activity.begin() + at * width, width,
                  out.begin() + k * width);
    }
  }

  // Adds the `missing` keys of `cells` with their outputs in `out`, while
  // there is room.  A key another thread added meanwhile keeps its (equal)
  // outputs.
  void insert(const KeyTable<std::uint32_t>& cells,
              std::span<const std::uint32_t> missing,
              std::span<const double> out) {
    const std::lock_guard lock(mu);
    for (const std::uint32_t k : missing) {
      if (keys.size() == kCapacity) return;
      const std::size_t known = keys.size();
      keys.insert(cells.key(k), 1, cells.hash(k));
      if (keys.size() == known) continue;
      activity.insert(activity.end(), out.begin() + k * width,
                      out.begin() + (k + 1) * width);
    }
  }
};

ActivityCells::ActivityCells(const AutoPowerModel& model)
    : model_(&model),
      fingerprint_(model.fingerprint()),
      tables_(std::make_unique<Table[]>(arch::kNumComponents)) {
  for (std::size_t i = 0; i < arch::kNumComponents; ++i) {
    tables_[i].keys.reset(model.cells_[i].key_width());
    tables_[i].width = model.cells_[i].forests.size();
  }
}

ActivityCells::~ActivityCells() = default;

std::size_t ActivityCells::size(arch::ComponentKind c) const {
  Table& table = tables_[static_cast<std::size_t>(c)];
  const std::lock_guard lock(table.mu);
  return table.keys.size();
}

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
  for (arch::ComponentKind c : arch::all_components()) {
    const auto i = static_cast<std::size_t>(c);
    CellIndex& index = cells_[i];
    index = {};
    index.forests = component_forests(i);
    forests_[i] = ml::ForestBundle(index.forests);

    // Feature f of the component's H+E+P row: H below n_h, then E, then
    // P.  Equality merges -0.0 with +0.0, which every value compares
    // against alike.
    const std::size_t n_h = arch::component_hw_params(c).size();
    const std::size_t n_he = n_h + arch::component_events(c).size();
    std::vector<std::vector<double>> per_feature(n_he + kNumProgramFeatures);
    for (const ml::GBTRegressor* forest : index.forests) {
      for (const ml::RegressionTree& tree : forest->trees()) {
        for (const auto& node : tree.nodes()) {
          if (node.feature < 0 || std::isnan(node.threshold)) continue;
          const auto f = static_cast<std::size_t>(node.feature);
          AP_REQUIRE(f < per_feature.size(),
                     "corrupt AutoPower archive: a forest tests a feature "
                     "past the component's H+E+P row");
          per_feature[f].push_back(node.threshold);
        }
      }
    }
    for (std::size_t f = 0; f < per_feature.size(); ++f) {
      auto& u = per_feature[f];
      if (u.empty()) continue;  // no tree reads the feature
      std::sort(u.begin(), u.end());
      u.erase(std::unique(u.begin(), u.end()), u.end());
      if (f < n_h) {
        index.h.push_back({f, std::move(u)});
      } else if (f < n_he) {
        index.e.push_back({f - n_h, std::move(u)});
      } else {
        index.p.push_back({f - n_he, std::move(u)});
      }
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
                                          ActivityCells& table,
                                          Sink&& sink) const {
  AP_REQUIRE(trained_, "AutoPower not trained");
  AP_REQUIRE(table.model_ == this && table.fingerprint_ == fingerprint_,
             "ActivityCells made for another model, or before its last "
             "train() or load()");
  // Tile-major: per tile and component, each row is keyed by its H class
  // (distinct component H), its program and its E ranks, and each
  // distinct key (a slot) gets its groups once.  A slot's activity cell
  // adds the H and P ranks of its class and program; the cells' forest
  // outputs come from `table`, or are walked and added to it.  Each
  // context still sees its components in Table III order.
  auto& metrics = predict_metrics();
  KeyTable<std::uint64_t> cfg_keys(1);
  KeyTable<double> program_keys(kNumProgramFeatures);
  std::vector<const arch::HardwareConfig*> cfgs;
  std::array<std::uint32_t, kTileRows> cfg_of;
  std::array<std::uint32_t, kTileRows> program_of;
  KeyTable<double> h_keys(0);
  std::vector<std::uint32_t> h_of;  // per distinct cfg: its H class
  std::vector<std::uint32_t> h_ranks;
  std::vector<std::uint32_t> p_ranks;
  std::vector<ClockPowerModel::Terms> clock_terms;
  std::vector<SramPowerModel::PositionTerms> sram_terms;
  std::vector<LogicPowerModel::Terms> logic_terms;
  std::vector<std::uint32_t> row_keys;
  std::array<std::uint64_t, kTileRows> hashes;
  std::array<double, kTileRows> rates;
  KeyTable<std::uint32_t> slots(0);
  std::array<std::uint32_t, kTileRows> slot_of;
  std::vector<std::uint32_t> first_row;  // per slot
  KeyTable<std::uint32_t> cells(0);
  std::vector<std::uint32_t> cell_of;  // per slot
  std::vector<std::uint32_t> cell_row;  // per cell: its first row
  std::vector<std::uint32_t> key;
  std::vector<std::uint32_t> missing;
  std::vector<double> activity;
  std::vector<double> rows;
  std::vector<double> walked;
  ml::ForestTile ranked;
  std::vector<power::PowerGroups> groups;  // per slot
  std::vector<double> he;
  for (std::size_t begin = 0; begin < ctxs.size(); begin += kTileRows) {
    const auto tile =
        ctxs.subspan(begin, std::min(kTileRows, ctxs.size() - begin));
    const std::size_t n = tile.size();
    cfg_keys.reset(1);
    program_keys.reset(kNumProgramFeatures);
    cfgs.clear();
    for (std::size_t j = 0; j < n; ++j) {
      // Runs of one cfg or one program (a trace, a sweep row) skip the
      // hash.
      if (j > 0 && tile[j].cfg == tile[j - 1].cfg) {
        cfg_of[j] = cfg_of[j - 1];
      } else {
        const auto ptr = static_cast<std::uint64_t>(
            reinterpret_cast<std::uintptr_t>(tile[j].cfg));
        cfg_of[j] = cfg_keys.insert(&ptr, 1, mix(kHashSeed, ptr));
        if (cfg_of[j] == cfgs.size()) cfgs.push_back(tile[j].cfg);
      }
      if (j > 0 && std::memcmp(&tile[j].program, &tile[j - 1].program,
                               sizeof(workload::ProgramFeatures)) == 0) {
        program_of[j] = program_of[j - 1];
      } else {
        const auto p = program_feature_values(tile[j].program);
        program_of[j] =
            program_keys.insert(p.data(), 1, key_hash<double>(p));
      }
    }
    const std::size_t n_programs = program_keys.size();
    h_of.resize(cfgs.size());

    for (arch::ComponentKind c : arch::all_components()) {
      const auto i = static_cast<std::size_t>(c);
      const CellIndex& index = cells_[i];
      const std::size_t n_pos = sram_[i].num_positions();

      // H ranks and structural terms once per distinct component H.
      h_keys.reset(arch::component_hw_params(c).size());
      h_ranks.clear();
      clock_terms.clear();
      sram_terms.clear();
      logic_terms.clear();
      for (std::size_t q = 0; q < cfgs.size(); ++q) {
        std::array<double, arch::kNumHwParams> buf;
        const auto h = hardware_features(c, *cfgs[q], buf);
        const std::size_t known = h_keys.size();
        h_of[q] = h_keys.insert(h.data(), 1, key_hash<double>(h));
        if (h_keys.size() == known) continue;
        for (const auto& f : index.h) {
          h_ranks.push_back(rank_of(h[f.at], f.thresholds));
        }
        clock_terms.push_back(clock_[i].terms(h));
        sram_terms.resize(sram_terms.size() + n_pos);
        sram_[i].terms(*cfgs[q], std::span(sram_terms).last(n_pos));
        logic_terms.push_back(logic_[i].terms(h));
      }
      // P ranks once per distinct program.
      p_ranks.clear();
      for (std::uint32_t p = 0; p < program_keys.size(); ++p) {
        for (const auto& f : index.p) {
          p_ranks.push_back(rank_of(program_keys.key(p)[f.at], f.thresholds));
        }
      }

      // Row j's key, column-major: its (H class, program) pair, then its
      // E ranks.
      const std::size_t width = 1 + index.e.size();
      row_keys.resize(width * n);
      for (std::size_t j = 0; j < n; ++j) {
        row_keys[j] = h_of[cfg_of[j]] * n_programs + program_of[j];
        hashes[j] = mix(kHashSeed, row_keys[j]);
      }
      const auto events = arch::component_events(c);
      for (std::size_t k = 0; k < index.e.size(); ++k) {
        const arch::EventKind e = events[index.e[k].at];
        for (std::size_t j = 0; j < n; ++j) rates[j] = tile[j].events.rate(e);
        std::uint32_t* const r = row_keys.data() + (1 + k) * n;
        ml::rank_values({rates.data(), n}, index.e[k].thresholds, r);
        for (std::size_t j = 0; j < n; ++j) hashes[j] = mix(hashes[j], r[j]);
      }
      slots.reset(width);
      first_row.clear();
      for (std::size_t j = 0; j < n; ++j) {
        slot_of[j] = slots.insert(row_keys.data() + j, n, hashes[j]);
        if (slot_of[j] == first_row.size()) {
          first_row.push_back(static_cast<std::uint32_t>(j));
        }
      }

      // Each slot's cell: its H ranks, E ranks and P ranks.
      const std::size_t n_h = index.h.size();
      const std::size_t n_p = index.p.size();
      cells.reset(index.key_width());
      cell_of.clear();
      cell_row.clear();
      key.resize(index.key_width());
      for (const std::uint32_t j : first_row) {
        const std::uint32_t h = row_keys[j] / n_programs;
        const std::uint32_t p = row_keys[j] % n_programs;
        auto out = std::copy_n(h_ranks.begin() + h * n_h, n_h, key.begin());
        for (std::size_t k = 0; k < index.e.size(); ++k) {
          *out++ = row_keys[(1 + k) * n + j];
        }
        std::copy_n(p_ranks.begin() + p * n_p, n_p, out);
        cell_of.push_back(
            cells.insert(key.data(), 1, key_hash<std::uint32_t>(key)));
        if (cell_of.back() == cell_row.size()) cell_row.push_back(j);
      }

      // Each cell's forest outputs: from the table, or walked from the
      // cell's first row and added to it.
      const std::size_t n_forests = index.forests.size();
      ActivityCells::Table& shared = table.tables_[i];
      activity.resize(cells.size() * n_forests);
      missing.clear();
      shared.lookup(cells, activity, missing);
      if (!missing.empty()) {
        rows.clear();
        for (const std::uint32_t k : missing) {
          const EvalContext& ctx = tile[cell_row[k]];
          feature_vector_into(c, FeatureSpec::hep(), *ctx.cfg, ctx.events,
                              ctx.program, rows);
        }
        forests_[i].rank(rows, rows.size() / missing.size(), ranked);
        walked.resize(missing.size());
        for (std::size_t f = 0; f < n_forests; ++f) {
          forests_[i].predict(*index.forests[f], ranked, walked);
          for (std::size_t m = 0; m < missing.size(); ++m) {
            activity[missing[m] * n_forests + f] = walked[m];
          }
        }
        shared.insert(cells, missing, activity);
      }
      metrics.rows.add(n);
      metrics.cells.add(missing.size());

      // Each slot's groups: Eq. 7 and 10-12 on its H class's structural
      // terms and its cell's forest outputs.  The linear-alpha ablation
      // has no clock forest; its alpha' reads raw E, so its clock power
      // is combined per row below.
      const bool linear_alpha = clock_[i].linear_alpha();
      const std::size_t n_clock = linear_alpha ? 0 : 1;
      groups.resize(slots.size());
      for (std::size_t s = 0; s < slots.size(); ++s) {
        const std::uint32_t h = row_keys[first_row[s]] / n_programs;
        const double* const a = activity.data() + cell_of[s] * n_forests;
        power::PowerGroups& g = groups[s];
        g.clock = linear_alpha ? 0.0 : clock_[i].combine(clock_terms[h], a[0]);
        g.sram = sram_[i].combine({sram_terms.data() + h * n_pos, n_pos},
                                  {a + n_clock, 2 * n_pos});
        logic_[i].combine(logic_terms[h], {a + n_clock + 2 * n_pos, 2},
                          g.logic_register, g.logic_comb);
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (!linear_alpha) {
          sink(c, begin + j, groups[slot_of[j]]);
          continue;
        }
        power::PowerGroups g = groups[slot_of[j]];
        he.clear();
        feature_vector_into(c, FeatureSpec::he(), *tile[j].cfg,
                            tile[j].events, tile[j].program, he);
        g.clock = clock_[i].combine(clock_terms[row_keys[j] / n_programs],
                                    clock_[i].linear_alpha_of(he));
        sink(c, begin + j, g);
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
  ActivityCells cells(*this);
  std::vector<power::PowerResult> out(ctxs.size());
  for (auto& r : out) r.components.resize(arch::kNumComponents);
  for_each_group_power(ctxs, cells, [&](arch::ComponentKind c, std::size_t j,
                                        const power::PowerGroups& groups) {
    out[j].components[static_cast<std::size_t>(c)] = {c, groups};
  });
  return out;
}

double AutoPowerModel::predict_total(const EvalContext& ctx) const {
  return predict_total_batch({&ctx, 1}).front();
}

std::vector<double> AutoPowerModel::predict_total_batch(
    std::span<const EvalContext> ctxs, ActivityCells* cells) const {
  if (ctxs.empty()) return {};
  std::optional<ActivityCells> own;
  if (cells == nullptr) cells = &own.emplace(*this);
  // Each context keeps one running PowerGroups instead of a 22-component
  // vector, accumulated field by field in component order.
  std::vector<power::PowerGroups> acc(ctxs.size());
  for_each_group_power(ctxs, *cells, [&](arch::ComponentKind, std::size_t j,
                                         const power::PowerGroups& groups) {
    acc[j] += groups;
  });
  // Summed as PowerResult::totals().total() does, so every element is
  // bit-identical to predict(ctx).total().
  std::vector<double> out;
  out.reserve(acc.size());
  for (const power::PowerGroups& groups : acc) out.push_back(groups.total());
  return out;
}

std::vector<double> AutoPowerModel::predict_trace(
    std::span<const EvalContext> windows) const {
  return predict_total_batch(windows);
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
