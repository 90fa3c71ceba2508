#include "explore/explore.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <unordered_set>
#include <utility>

#include "serve/checkpoint.hpp"
#include "serve/jsonl.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "workload/workload.hpp"

namespace autopower::explore {

bool dominates(const Objectives& a, const Objectives& b) noexcept {
  if (a.ipc_per_watt < b.ipc_per_watt) return false;
  if (a.total_mw > b.total_mw) return false;
  if (a.area > b.area) return false;
  return a.ipc_per_watt > b.ipc_per_watt || a.total_mw < b.total_mw ||
         a.area < b.area;
}

double area_proxy(const arch::HardwareConfig& cfg) noexcept {
  // Fixed per-parameter weights (arbitrary units, roughly: datapath
  // width and cache ways are silicon-heavy; predictor/TLB tables are
  // cheap per entry).  Deterministic and monotone in every parameter so
  // the area objective always pulls toward the small corner.
  using P = arch::HwParam;
  return 0.40 * cfg.value_d(P::kFetchWidth) +
         0.60 * cfg.value_d(P::kDecodeWidth) +
         0.08 * cfg.value_d(P::kFetchBufferEntry) +
         0.030 * cfg.value_d(P::kRobEntry) +
         0.025 * cfg.value_d(P::kIntPhyRegister) +
         0.025 * cfg.value_d(P::kFpPhyRegister) +
         0.050 * cfg.value_d(P::kLdqStqEntry) +
         0.020 * cfg.value_d(P::kBranchCount) +
         0.50 * cfg.value_d(P::kMemFpIssueWidth) +
         0.50 * cfg.value_d(P::kIntIssueWidth) +
         1.20 * cfg.value_d(P::kCacheWay) +
         0.030 * cfg.value_d(P::kTlbEntry) +
         0.10 * cfg.value_d(P::kMshrEntry) +
         0.050 * cfg.value_d(P::kICacheFetchBytes);
}

void archive_insert(ParetoArchive& archive, std::size_t index,
                    const Objectives& objs) {
  for (const auto& [idx, member] : archive) {
    if (dominates(member, objs)) return;
  }
  std::erase_if(archive, [&](const auto& kv) {
    return dominates(objs, kv.second);
  });
  archive.emplace(index, objs);
}

std::size_t digits_to_index(std::span<const std::size_t> digits,
                            std::span<const serve::SweepAxis> axes) {
  AP_REQUIRE(digits.size() == axes.size(),
             "digit vector does not match axis count");
  // Mixed-radix encode, first axis most significant (GridCursor order).
  std::size_t index = 0;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    AP_REQUIRE(digits[a] < axes[a].values.size(),
               "digit out of range for axis");
    index = index * axes[a].values.size() + digits[a];
  }
  return index;
}

std::vector<std::size_t> index_to_digits(
    std::size_t index, std::span<const serve::SweepAxis> axes) {
  std::vector<std::size_t> digits(axes.size(), 0);
  std::size_t n = index;
  for (std::size_t a = axes.size(); a-- > 0;) {
    digits[a] = n % axes[a].values.size();
    n /= axes[a].values.size();
  }
  return digits;
}

std::vector<std::size_t> mutate(std::span<const std::size_t> digits,
                                std::span<const serve::SweepAxis> axes,
                                util::Rng& rng) {
  std::vector<std::size_t> out(digits.begin(), digits.end());
  if (axes.empty()) return out;
  const std::size_t flips = 1 + rng.next_below(2);
  for (std::size_t k = 0; k < flips; ++k) {
    const std::size_t a = rng.next_below(axes.size());
    out[a] = rng.next_below(axes[a].values.size());
  }
  return out;
}

std::vector<std::size_t> crossover(std::span<const std::size_t> a,
                                   std::span<const std::size_t> b,
                                   std::span<const serve::SweepAxis> axes,
                                   util::Rng& rng) {
  AP_REQUIRE(a.size() == axes.size() && b.size() == axes.size(),
             "crossover parents do not match axis count");
  std::vector<std::size_t> out(axes.size(), 0);
  for (std::size_t i = 0; i < axes.size(); ++i) {
    out[i] = rng.next_unit() < 0.5 ? a[i] : b[i];
    if (out[i] >= axes[i].values.size()) out[i] = axes[i].values.size() - 1;
  }
  return out;
}

namespace {

/// ±1 step on one uniformly chosen axis (direction flipped at a range
/// edge; a 1-value axis stays put).
std::vector<std::size_t> neighbour(std::span<const std::size_t> digits,
                                   std::span<const serve::SweepAxis> axes,
                                   util::Rng& rng) {
  std::vector<std::size_t> out(digits.begin(), digits.end());
  if (axes.empty()) return out;
  const std::size_t a = rng.next_below(axes.size());
  const std::size_t radix = axes[a].values.size();
  if (radix < 2) return out;
  const bool up = rng.next_unit() < 0.5;
  if (up) {
    out[a] = out[a] + 1 < radix ? out[a] + 1 : out[a] - 1;
  } else {
    out[a] = out[a] > 0 ? out[a] - 1 : out[a] + 1;
  }
  return out;
}

void append_int(std::string& out, long long value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

std::string explore_fingerprint(const ExploreSpec& spec,
                                const core::AutoPowerModel& model) {
  // The sweep fingerprint hashes base + axes + workloads + model; fold
  // the explore search identity (seed, population, generations) into
  // the base string so a checkpoint can only resume the exact search
  // that wrote it — a different seed or cadence walks a different
  // scoring order.
  std::string base = spec.base;
  base += "#explore-v2#seed=";
  append_int(base, static_cast<long long>(spec.seed));
  base += "#pop=";
  append_int(base, static_cast<long long>(spec.population));
  base += "#gen=";
  append_int(base, static_cast<long long>(spec.generations));
  return serve::sweep_fingerprint(base, spec.axes, spec.workloads,
                                  model.fingerprint());
}

/// Objectives of a scored row (caller has checked eligibility).
Objectives row_objectives(const serve::SweepRow& row) {
  return Objectives{row.ipc_per_watt, row.mean_total_mw,
                    area_proxy(row.config)};
}

bool frontier_eligible(const serve::SweepRow& row) {
  return row.failed == 0 && row.mean_total_mw > 0.0;
}

}  // namespace

ExploreReport run_explore(
    const core::AutoPowerModel& model, const ExploreSpec& spec,
    std::shared_ptr<util::StructuralSimCache> structural) {
  AP_REQUIRE(!spec.workloads.empty(), "explore needs at least one workload");
  AP_REQUIRE(!spec.axes.empty(), "explore needs at least one grid axis");
  AP_REQUIRE(spec.population > 0, "explore population must be positive");
  AP_REQUIRE(!spec.resume || !spec.checkpoint.empty(),
             "explore resume needs a checkpoint path");
  const arch::HardwareConfig& base = arch::boom_config(spec.base);
  const serve::GridCursor cursor(base, spec.axes);
  const std::size_t n_configs = cursor.size();
  const std::size_t n_workloads = spec.workloads.size();
  const std::span<const serve::SweepAxis> axes(spec.axes);
  // Unknown workloads fail here, before a checkpoint is opened.
  for (const std::string& name : spec.workloads) {
    (void)workload::workload_by_name(name);
  }

  if (structural == nullptr) {
    structural =
        std::make_shared<util::StructuralSimCache>(/*shards_per_sub=*/8,
                                                   /*max_entries=*/0);
  }
  const util::StructuralSimCache::Stats before = structural->stats();

  auto& registry = util::MetricsRegistry::global();
  auto& m_gens = registry.counter("explore.generations");
  auto& m_cands = registry.counter("explore.candidates");

  // Checkpoint = a memo of simulator evaluations.  The search itself is
  // replayed deterministically from generation 0 on resume; replayed
  // rows only short-circuit the simulation step, they never perturb
  // candidate generation (which would diverge from the original walk).
  std::map<std::size_t, serve::SweepRow> memo;
  std::unique_ptr<serve::CheckpointWriter> checkpoint;
  std::size_t resumed = 0;
  if (!spec.checkpoint.empty()) {
    const std::string fingerprint = explore_fingerprint(spec, model);
    std::uint64_t keep_bytes = 0;
    if (spec.resume) {
      serve::CheckpointReplay replay = serve::load_checkpoint(
          spec.checkpoint, fingerprint, n_configs, n_workloads);
      keep_bytes = replay.valid_bytes;
      resumed = replay.rows.size();
      for (serve::SweepRow& row : replay.rows) {
        memo.emplace(row.index, std::move(row));
      }
    }
    checkpoint = std::make_unique<serve::CheckpointWriter>(
        spec.checkpoint, fingerprint, n_configs, n_workloads, keep_bytes);
  }

  // Search state.  `visited` holds every grid index ever scored, so a
  // cell is scored at most once per walk; `archive` is the Pareto front
  // of this walk's eligible rows (memo rows the walk has not reached yet
  // stay out of it).
  std::unordered_set<std::size_t> visited;
  ParetoArchive archive;
  std::vector<std::vector<std::size_t>> parents;
  constexpr std::size_t kNoBest = std::numeric_limits<std::size_t>::max();
  std::size_t best_index = kNoBest;
  double best_ipw = -std::numeric_limits<double>::infinity();

  ExploreReport report;
  report.grid_configs = n_configs;
  report.resumed = resumed;

  const auto random_digits = [&](util::Rng& rng) {
    std::vector<std::size_t> d(axes.size());
    for (std::size_t a = 0; a < axes.size(); ++a) {
      d[a] = rng.next_below(axes[a].values.size());
    }
    return d;
  };

  for (std::size_t gen = 0; gen < spec.generations; ++gen) {
    AUTOPOWER_FAULT_POINT("serve.explore.generation");

    // ---- 1. Candidate generation (deterministic per-slot streams,
    // deduplicated against everything ever scored).  Held in ascending
    // grid order, the order every later step walks them in.
    std::set<std::size_t> candidates;
    const auto unseen = [&](std::size_t idx) {
      return visited.count(idx) == 0 && candidates.count(idx) == 0;
    };
    for (std::size_t slot = 0; slot < spec.population; ++slot) {
      util::Rng rng(util::hash_combine(
          util::hash_combine(spec.seed, static_cast<std::uint64_t>(gen)),
          static_cast<std::uint64_t>(slot)));
      bool found = false;
      for (int attempt = 0; attempt < 16 && !found; ++attempt) {
        std::vector<std::size_t> d;
        if (gen == 0 || parents.empty()) {
          d = random_digits(rng);
        } else {
          const double u = rng.next_unit();
          if (u < 0.40) {
            d = mutate(parents[rng.next_below(parents.size())], axes, rng);
          } else if (u < 0.70) {
            const auto& pa = parents[rng.next_below(parents.size())];
            const auto& pb = parents[rng.next_below(parents.size())];
            d = crossover(pa, pb, axes, rng);
          } else if (u < 0.85) {
            d = neighbour(parents[rng.next_below(parents.size())], axes,
                          rng);
          } else {
            d = random_digits(rng);  // random immigrant
          }
        }
        const std::size_t idx = digits_to_index(d, axes);
        if (unseen(idx)) {
          candidates.insert(idx);
          found = true;
        }
      }
      if (!found) {
        // Collision fallback: deterministic linear scan for ANY
        // unvisited cell from a random start, so a small grid is
        // covered exhaustively instead of starving on duplicates.
        if (visited.size() + candidates.size() >= n_configs) continue;
        const std::size_t start = rng.next_below(n_configs);
        for (std::size_t k = 0; k < n_configs; ++k) {
          const std::size_t idx = (start + k) % n_configs;
          if (unseen(idx)) {
            candidates.insert(idx);
            break;
          }
        }
      }
    }
    // Forced hill-climb probes: the ±1 single-axis neighbours of the
    // best row so far are always scored, so the search cannot terminate
    // while an adjacent grid point beats the incumbent.
    if (best_index != kNoBest) {
      const std::vector<std::size_t> bd = index_to_digits(best_index, axes);
      for (std::size_t a = 0; a < axes.size(); ++a) {
        for (int step : {-1, 1}) {
          if (step < 0 && bd[a] == 0) continue;
          if (step > 0 && bd[a] + 1 >= axes[a].values.size()) continue;
          std::vector<std::size_t> d = bd;
          d[a] = step < 0 ? d[a] - 1 : d[a] + 1;
          const std::size_t idx = digits_to_index(d, axes);
          if (unseen(idx)) candidates.insert(idx);
        }
      }
    }
    if (candidates.empty()) break;  // grid exhausted
    visited.insert(candidates.begin(), candidates.end());
    m_cands.add(candidates.size());

    // ---- 2. Exact scoring, memo-aware: checkpointed rows are replayed,
    // everything else is simulated and predicted in one batched
    // evaluate_configs call and appended to the checkpoint.
    std::vector<std::size_t> fresh_index;
    std::vector<arch::HardwareConfig> fresh_cfgs;
    for (std::size_t idx : candidates) {
      if (memo.count(idx) == 0) {
        fresh_index.push_back(idx);
        fresh_cfgs.push_back(cursor.config_at(idx));
      }
    }
    if (!fresh_cfgs.empty()) {
      std::vector<serve::SweepRow> rows = serve::evaluate_configs(
          model, fresh_cfgs, spec.workloads, spec.threads, structural);
      std::string json_scratch;
      for (std::size_t j = 0; j < rows.size(); ++j) {
        rows[j].index = fresh_index[j];
        if (checkpoint != nullptr) {
          json_scratch.clear();
          serve::append_row_json(json_scratch, rows[j]);
          checkpoint->append(rows[j].index, json_scratch);
        }
        memo.emplace(rows[j].index, std::move(rows[j]));
      }
      report.verified += fresh_cfgs.size();
    }

    // ---- 3. Fold the rows in: incumbent and Pareto archive.  Parents
    // for the next generation are the archive members, then this
    // generation's other candidates (both in ascending grid order).
    for (std::size_t idx : candidates) {
      const serve::SweepRow& row = memo.at(idx);
      if (!frontier_eligible(row)) continue;
      if (row.ipc_per_watt > best_ipw ||
          (row.ipc_per_watt == best_ipw && idx < best_index)) {
        best_ipw = row.ipc_per_watt;
        best_index = idx;
      }
      archive_insert(archive, idx, row_objectives(row));
    }
    parents.clear();
    for (const auto& [idx, objs] : archive) {
      parents.push_back(index_to_digits(idx, axes));
    }
    for (std::size_t idx : candidates) {
      if (archive.count(idx) == 0) {
        parents.push_back(index_to_digits(idx, axes));
      }
    }
    m_gens.inc();
    ++report.generations_run;
  }
  if (checkpoint != nullptr) checkpoint->close();

  // ---- Final frontier: the archive's rows, ipc_per_watt descending,
  // grid index ascending as the deterministic tie-break.
  for (const auto& [idx, objs] : archive) {
    report.frontier.push_back(FrontierRow{memo.at(idx), objs.area});
  }
  std::sort(report.frontier.begin(), report.frontier.end(),
            [](const FrontierRow& a, const FrontierRow& b) {
              if (a.row.ipc_per_watt != b.row.ipc_per_watt) {
                return a.row.ipc_per_watt > b.row.ipc_per_watt;
              }
              return a.row.index < b.row.index;
            });
  for (std::size_t k = 0; k < report.frontier.size(); ++k) {
    report.frontier[k].row.rank = k + 1;
  }

  const util::StructuralSimCache::Stats after = structural->stats();
  report.structural = {after.hits - before.hits,
                       after.misses - before.misses,
                       after.evictions - before.evictions};
  if (util::MetricsRegistry::enabled()) {
    structural->export_metrics(registry);
  }
  return report;
}

void write_frontier(std::ostream& out, const ExploreReport& report) {
  std::string line;
  for (const FrontierRow& fr : report.frontier) {
    // Same stream-flavoured fault site as the sweep report writer: a
    // torn frontier must latch badbit and exit non-zero.
    AUTOPOWER_FAULT_STREAM("serve.report.write_row", out);
    line.clear();
    line += "{\"rank\":";
    append_int(line, static_cast<long long>(fr.row.rank));
    line += ',';
    serve::append_row_json(line, fr.row);
    line += ",\"area_proxy\":";
    serve::append_json_number(line, fr.area);
    line += "}\n";
    out.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

}  // namespace autopower::explore
