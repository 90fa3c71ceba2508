// Property tests over the explore optimizer core (src/explore) plus the
// randomized differential oracle against the exhaustive sweep:
//
//   (a) the incremental Pareto archive vs a naive O(n^2) front-0 filter,
//       checked after every insert of a random objective stream,
//   (b) grid-coordinate operators: digits<->index round trips, mutate /
//       crossover always in-grid, counter-based Rng determinism,
//   (c) run_explore determinism: byte-identical frontier JSONL for the
//       same seed, for threads 1 vs 3, and across a SIGKILL-style
//       checkpoint truncation + --resume replay,
//   (d) differential oracle: with enough generations to cover a tiny
//       grid, the explore frontier must EQUAL the Pareto set of the
//       exhaustive run_sweep report — same grid indices, and
//       byte-identical row JSON for every member.
//
// On failure the proptest runner prints the base seed and the exact
// AUTOPOWER_PROPTEST_SEED line that reproduces the case; this binary
// also accepts --seed=N and --cases=N (see main() at the bottom).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "explore/explore.hpp"
#include "power/golden.hpp"
#include "serve/checkpoint.hpp"
#include "serve/sweep.hpp"
#include "sim/perfsim.hpp"
#include "testcore/proptest.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/structural_cache.hpp"
#include "workload/workload.hpp"

namespace autopower {
namespace {

using testcore::Pcg32;

// ---------------------------------------------------------------------
// Shared helpers.

// Independent restatement of Pareto dominance (the oracle must not call
// the code under test).
bool naive_dominates(const explore::Objectives& a,
                     const explore::Objectives& b) {
  const bool no_worse = a.ipc_per_watt >= b.ipc_per_watt &&
                        a.total_mw <= b.total_mw && a.area <= b.area;
  const bool better = a.ipc_per_watt > b.ipc_per_watt ||
                      a.total_mw < b.total_mw || a.area < b.area;
  return no_worse && better;
}

// Front-0 filter: the positions of the members no other member
// dominates.  O(n^2), tiny n only.
std::vector<std::size_t> naive_front(
    const std::vector<explore::Objectives>& objs) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < objs.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < objs.size() && !dominated; ++j) {
      dominated = naive_dominates(objs[j], objs[i]);
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

std::string describe_objectives(const std::vector<explore::Objectives>& objs) {
  std::ostringstream out;
  out << objs.size() << " points:";
  for (const auto& o : objs) {
    out << " (" << o.ipc_per_watt << "," << o.total_mw << "," << o.area
        << ")";
  }
  return out.str();
}

std::string describe_axes(const std::vector<serve::SweepAxis>& axes) {
  std::ostringstream out;
  for (std::size_t i = 0; i < axes.size(); ++i) {
    if (i != 0) out << ";";
    out << arch::hw_param_name(axes[i].param) << "=";
    for (std::size_t j = 0; j < axes[i].values.size(); ++j) {
      if (j != 0) out << ",";
      out << axes[i].values[j];
    }
  }
  return out.str();
}

std::size_t grid_size(const std::vector<serve::SweepAxis>& axes) {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

std::string frontier_bytes(const explore::ExploreReport& report) {
  std::ostringstream out;
  explore::write_frontier(out, report);
  return out.str();
}

std::filesystem::path temp_path(const std::string& tag) {
  static std::atomic<unsigned> counter{0};
  std::ostringstream name;
  name << "autopower_explore_test_" << ::getpid() << "_" << counter++ << "_"
       << tag;
  return std::filesystem::temp_directory_path() / name.str();
}

// ---------------------------------------------------------------------
// Oracle (a): the incremental archive vs the front-0 filter.

// Mostly-discrete draws force heavy tie/duplicate structure (the hard
// cases for dominance bookkeeping); occasional continuous draws cover
// the generic position.
explore::Objectives random_point(Pcg32& rng, bool discrete) {
  if (discrete) {
    return {static_cast<double>(rng.next_int(0, 3)),
            static_cast<double>(rng.next_int(1, 3)),
            0.5 + static_cast<double>(rng.next_int(0, 2))};
  }
  return {rng.next_range(0.0, 4.0), rng.next_range(0.5, 4.0),
          rng.next_range(0.1, 3.0)};
}

// One insert stream: objective vectors with the distinct grid indices
// they are inserted under (shuffled, so insertion order and index order
// disagree).
struct ArchiveCase {
  std::vector<explore::Objectives> objs;
  std::vector<std::size_t> index;
};

std::string describe_archive(const ArchiveCase& c) {
  std::ostringstream out;
  out << describe_objectives(c.objs) << "; indices:";
  for (const std::size_t i : c.index) out << " " << i;
  return out.str();
}

TEST(ExploreProps, ParetoArchiveMatchesNaiveFrontFilter) {
  const auto result = testcore::run_property<ArchiveCase>(
      {.name = "explore.archive_vs_front_filter", .cases = 200},
      [](Pcg32& rng) {
        ArchiveCase c;
        const int n = rng.next_int(0, 40);
        const bool discrete = rng.next_bool(0.6);
        for (int i = 0; i < n; ++i) {
          // Besides fresh draws: exact duplicates of an earlier vector,
          // and earlier vectors made worse on one objective (a dominated
          // re-insertion, which the archive must drop or never keep).
          const double u = rng.next_unit();
          if (i > 0 && u < 0.2) {
            c.objs.push_back(c.objs[rng.index(c.objs.size())]);
          } else if (i > 0 && u < 0.4) {
            explore::Objectives o = c.objs[rng.index(c.objs.size())];
            switch (rng.next_int(0, 2)) {
              case 0: o.ipc_per_watt -= 1.0; break;
              case 1: o.total_mw += 1.0; break;
              default: o.area += 1.0; break;
            }
            c.objs.push_back(o);
          } else {
            c.objs.push_back(random_point(rng, discrete));
          }
        }
        for (std::size_t i = 0; i < c.objs.size(); ++i) {
          c.index.push_back(3 * i + 1);
        }
        for (std::size_t i = c.index.size(); i > 1; --i)
          std::swap(c.index[i - 1], c.index[rng.index(i)]);
        return c;
      },
      [](const ArchiveCase& c) -> std::optional<std::string> {
        explore::ParetoArchive archive;
        std::vector<explore::Objectives> seen;
        std::vector<std::size_t> seen_index;
        for (std::size_t k = 0; k < c.objs.size(); ++k) {
          explore::archive_insert(archive, c.index[k], c.objs[k]);
          seen.push_back(c.objs[k]);
          seen_index.push_back(c.index[k]);
          std::vector<std::size_t> expected;
          for (const std::size_t i : naive_front(seen)) {
            expected.push_back(seen_index[i]);
          }
          std::sort(expected.begin(), expected.end());
          std::vector<std::size_t> got;
          for (const auto& [idx, objs] : archive) {
            got.push_back(idx);
            const auto at = std::find(seen_index.begin(), seen_index.end(),
                                      idx);
            const auto& want = seen[static_cast<std::size_t>(
                at - seen_index.begin())];
            if (objs.ipc_per_watt != want.ipc_per_watt ||
                objs.total_mw != want.total_mw || objs.area != want.area) {
              return "archive member's objectives differ from its insert";
            }
          }
          if (got != expected) {
            std::ostringstream msg;
            msg << "after insert " << k << ": archive";
            for (const std::size_t i : got) msg << " " << i;
            msg << "; front-0 filter";
            for (const std::size_t i : expected) msg << " " << i;
            return msg.str();
          }
        }
        return std::nullopt;
      },
      describe_archive);
  ASSERT_TRUE(result.passed) << result.report;
}

// ---------------------------------------------------------------------
// Oracle (b): grid-coordinate operators.

struct GridOpCase {
  std::vector<serve::SweepAxis> axes;
  std::vector<std::size_t> digits_a;
  std::vector<std::size_t> digits_b;
  std::uint64_t seed = 0;
};

std::string describe_grid_op(const GridOpCase& c) {
  std::ostringstream out;
  out << describe_axes(c.axes) << "; a:";
  for (const std::size_t d : c.digits_a) out << " " << d;
  out << "; b:";
  for (const std::size_t d : c.digits_b) out << " " << d;
  out << "; seed=" << c.seed;
  return out.str();
}

TEST(ExploreProps, GridOperatorsStayInGridAndRoundTrip) {
  const auto result = testcore::run_property<GridOpCase>(
      {.name = "explore.grid_operators", .cases = 200},
      [](Pcg32& rng) {
        GridOpCase c;
        const int n_axes = rng.next_int(1, 5);
        std::vector<std::size_t> params(arch::kNumHwParams);
        for (std::size_t i = 0; i < params.size(); ++i) params[i] = i;
        for (std::size_t i = params.size(); i > 1; --i)
          std::swap(params[i - 1], params[rng.index(i)]);
        for (int a = 0; a < n_axes; ++a) {
          serve::SweepAxis axis;
          axis.param =
              static_cast<arch::HwParam>(params[static_cast<std::size_t>(a)]);
          const int n_values = rng.next_int(1, 6);
          for (int v = 0; v < n_values; ++v)
            axis.values.push_back(rng.next_int(1, 256));
          c.axes.push_back(std::move(axis));
        }
        for (const auto& axis : c.axes) {
          c.digits_a.push_back(rng.index(axis.values.size()));
          c.digits_b.push_back(rng.index(axis.values.size()));
        }
        c.seed = rng.next_u64();
        return c;
      },
      [](const GridOpCase& c) -> std::optional<std::string> {
        const std::size_t total = grid_size(c.axes);
        const auto in_grid =
            [&](const std::vector<std::size_t>& digits) -> bool {
          if (digits.size() != c.axes.size()) return false;
          for (std::size_t i = 0; i < digits.size(); ++i) {
            if (digits[i] >= c.axes[i].values.size()) return false;
          }
          return true;
        };
        // digits -> index -> digits round trip, and index in range.
        const std::size_t index_a =
            explore::digits_to_index(c.digits_a, c.axes);
        if (index_a >= total) return "digits_to_index out of range";
        if (explore::index_to_digits(index_a, c.axes) != c.digits_a) {
          return "digits -> index -> digits round trip failed";
        }
        // index -> digits -> index round trip from a random index.
        const std::size_t probe = index_a / 2 + total / 3;
        const auto probe_digits =
            explore::index_to_digits(probe % total, c.axes);
        if (!in_grid(probe_digits)) return "index_to_digits left the grid";
        if (explore::digits_to_index(probe_digits, c.axes) != probe % total) {
          return "index -> digits -> index round trip failed";
        }
        // Mutation: in-grid, at most 2 axes changed, Rng-deterministic.
        util::Rng mut_rng(c.seed);
        const auto mutated = explore::mutate(c.digits_a, c.axes, mut_rng);
        if (!in_grid(mutated)) return "mutate left the grid";
        std::size_t changed = 0;
        for (std::size_t i = 0; i < mutated.size(); ++i) {
          if (mutated[i] != c.digits_a[i]) ++changed;
        }
        if (changed > 2) {
          std::ostringstream msg;
          msg << "mutate changed " << changed << " axes (max 2)";
          return msg.str();
        }
        util::Rng mut_rng2(c.seed);
        if (explore::mutate(c.digits_a, c.axes, mut_rng2) != mutated) {
          return "mutate is not deterministic for a fixed Rng seed";
        }
        // Crossover: in-grid, every digit inherited from a parent,
        // Rng-deterministic.
        util::Rng cross_rng(c.seed ^ 0x9e3779b97f4a7c15ULL);
        const auto child =
            explore::crossover(c.digits_a, c.digits_b, c.axes, cross_rng);
        if (!in_grid(child)) return "crossover left the grid";
        for (std::size_t i = 0; i < child.size(); ++i) {
          if (child[i] != c.digits_a[i] && child[i] != c.digits_b[i]) {
            std::ostringstream msg;
            msg << "crossover invented digit " << child[i] << " at axis "
                << i;
            return msg.str();
          }
        }
        util::Rng cross_rng2(c.seed ^ 0x9e3779b97f4a7c15ULL);
        if (explore::crossover(c.digits_a, c.digits_b, c.axes, cross_rng2) !=
            child) {
          return "crossover is not deterministic for a fixed Rng seed";
        }
        return std::nullopt;
      },
      describe_grid_op);
  ASSERT_TRUE(result.passed) << result.report;
}

// ---------------------------------------------------------------------
// Search-level oracles need a trained model.  Small hyper-parameters
// (the claims are determinism and frontier correctness, not accuracy)
// and one shared structural cache — the determinism contract explicitly
// covers pre-warmed caches, so cross-case reuse is part of what these
// oracles check.

core::AutoPowerOptions tiny_autopower_options() {
  core::AutoPowerOptions opt;
  opt.clock.gbt.num_rounds = 3;
  opt.clock.gbt.tree.max_depth = 2;
  opt.sram.gbt.num_rounds = 3;
  opt.sram.gbt.tree.max_depth = 2;
  opt.logic.gbt.num_rounds = 3;
  opt.logic.gbt.tree.max_depth = 2;
  return opt;
}

class ExploreSearch : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::SimOptions opt;
    opt.sample_accesses = 500;
    opt.sample_branches = 500;
    sim::PerfSimulator sim(opt);
    std::vector<core::EvalContext> ctxs;
    for (const char* cfg_name : {"C1", "C15"}) {
      const auto& cfg = arch::boom_config(cfg_name);
      for (const char* wl_name : {"dhrystone", "qsort"}) {
        const auto& wl = workload::workload_by_name(wl_name);
        core::EvalContext ctx;
        ctx.cfg = &cfg;
        ctx.workload = wl.name;
        ctx.program = workload::program_features(wl);
        ctx.events = sim.simulate(cfg, wl);
        ctxs.push_back(std::move(ctx));
      }
    }
    static const power::GoldenPowerModel golden;
    auto model =
        std::make_shared<core::AutoPowerModel>(tiny_autopower_options());
    model->train(ctxs, golden, 1);
    model_ = new std::shared_ptr<const core::AutoPowerModel>(model);
    structural_ = new std::shared_ptr<util::StructuralSimCache>(
        std::make_shared<util::StructuralSimCache>());
  }
  static void TearDownTestSuite() {
    delete structural_;
    delete model_;
  }

  static std::shared_ptr<const core::AutoPowerModel>* model_;
  static std::shared_ptr<util::StructuralSimCache>* structural_;
};

std::shared_ptr<const core::AutoPowerModel>* ExploreSearch::model_ = nullptr;
std::shared_ptr<util::StructuralSimCache>* ExploreSearch::structural_ =
    nullptr;

// Random tiny grids over parameters/values that BOOM configs accept.
// Failed cells are legitimate (the frontier-eligibility filter handles
// them), but the pools keep most cells simulable so the oracles bite.
std::vector<serve::SweepAxis> random_tiny_axes(Pcg32& rng,
                                               std::size_t max_cells) {
  struct Pool {
    arch::HwParam param;
    std::vector<int> values;
  };
  static const std::vector<Pool> pools = {
      {arch::HwParam::kRobEntry, {32, 48, 64, 96, 112, 128}},
      {arch::HwParam::kFetchBufferEntry, {8, 16, 24, 32}},
      {arch::HwParam::kLdqStqEntry, {8, 12, 16, 24, 32}},
      {arch::HwParam::kIntPhyRegister, {64, 80, 96, 112, 128}},
      {arch::HwParam::kBranchCount, {8, 12, 16, 20, 32}},
      {arch::HwParam::kMshrEntry, {2, 4, 8}},
      {arch::HwParam::kTlbEntry, {8, 16, 32}},
  };
  std::vector<std::size_t> order(pools.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.index(i)]);
  const int n_axes = rng.next_int(1, 3);
  std::vector<serve::SweepAxis> axes;
  std::size_t cells = 1;
  for (int a = 0; a < n_axes; ++a) {
    const Pool& pool = pools[order[static_cast<std::size_t>(a)]];
    std::size_t max_take = pool.values.size();
    while (max_take > 1 && cells * max_take > max_cells) --max_take;
    const std::size_t take = 1 + rng.index(max_take);
    // Random distinct subset of the pool, kept in pool order so the
    // axis reads naturally in failure reports.
    std::vector<std::size_t> picks(pool.values.size());
    for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
    for (std::size_t i = picks.size(); i > 1; --i)
      std::swap(picks[i - 1], picks[rng.index(i)]);
    picks.resize(take);
    std::sort(picks.begin(), picks.end());
    serve::SweepAxis axis;
    axis.param = pool.param;
    for (const std::size_t p : picks) axis.values.push_back(pool.values[p]);
    cells *= take;
    axes.push_back(std::move(axis));
  }
  // A 1-cell grid makes every oracle vacuous; widen the first axis that
  // has room.
  if (cells == 1) {
    for (auto& axis : axes) {
      for (const Pool& pool : pools) {
        if (pool.param == axis.param && pool.values.size() > 1) {
          axis.values = {pool.values[0], pool.values[1]};
          return axes;
        }
      }
    }
  }
  return axes;
}

struct SearchCase {
  std::vector<serve::SweepAxis> axes;
  std::uint64_t seed = 0;
  std::size_t population = 0;
  std::size_t generations = 0;
};

std::string describe_search(const SearchCase& c) {
  std::ostringstream out;
  out << describe_axes(c.axes) << "; seed=" << c.seed
      << " pop=" << c.population << " gens=" << c.generations;
  return out.str();
}

explore::ExploreSpec spec_for(const SearchCase& c) {
  explore::ExploreSpec spec;
  spec.base = "C8";
  spec.axes = c.axes;
  spec.workloads = {"dhrystone", "qsort"};
  spec.threads = 1;
  spec.seed = c.seed;
  spec.population = c.population;
  spec.generations = c.generations;
  return spec;
}

SearchCase random_search_case(Pcg32& rng) {
  SearchCase c;
  c.axes = random_tiny_axes(rng, 24);
  c.seed = rng.next_u64();
  c.population = static_cast<std::size_t>(rng.next_int(4, 10));
  c.generations = static_cast<std::size_t>(rng.next_int(2, 4));
  return c;
}

// Oracle (c): the frontier JSONL is byte-identical for the same seed
// and for threads 1 vs 3, and the simulated-config counts agree.
TEST_F(ExploreSearch, SeedAndThreadCountInvariance) {
  const auto result = testcore::run_property<SearchCase>(
      {.name = "explore.seed_thread_invariance", .cases = 40},
      random_search_case,
      [](const SearchCase& c) -> std::optional<std::string> {
        auto spec = spec_for(c);
        const auto first = explore::run_explore(**model_, spec, *structural_);
        const auto again = explore::run_explore(**model_, spec, *structural_);
        spec.threads = 3;
        const auto threaded =
            explore::run_explore(**model_, spec, *structural_);
        const std::string bytes = frontier_bytes(first);
        if (frontier_bytes(again) != bytes) {
          return "same seed, same threads: frontier bytes differ";
        }
        if (frontier_bytes(threaded) != bytes) {
          return "threads=1 vs threads=3: frontier bytes differ";
        }
        if (again.verified != first.verified ||
            threaded.verified != first.verified) {
          return "verified count differs across reruns";
        }
        return std::nullopt;
      },
      describe_search);
  ASSERT_TRUE(result.passed) << result.report;
}

// Oracle (c, resume half): truncating the checkpoint at ANY byte (the
// torn tail a SIGKILL leaves) and resuming converges to the identical
// frontier bytes.
TEST_F(ExploreSearch, CheckpointTruncationResumeByteIdentical) {
  const auto result = testcore::run_property<SearchCase>(
      {.name = "explore.checkpoint_resume", .cases = 30},
      random_search_case,
      [](const SearchCase& c) -> std::optional<std::string> {
        const auto ckpt = temp_path("resume.ckpt");
        struct Cleanup {
          std::filesystem::path path;
          ~Cleanup() {
            std::error_code ec;
            std::filesystem::remove(path, ec);
          }
        } cleanup{ckpt};
        auto spec = spec_for(c);
        spec.checkpoint = ckpt.string();
        const auto full = explore::run_explore(**model_, spec, *structural_);
        const std::string expected = frontier_bytes(full);
        std::error_code ec;
        const auto size = std::filesystem::file_size(ckpt, ec);
        if (ec) return "checkpoint file missing after full run";
        // Derive the cut deterministically from the case seed so the
        // failure report reproduces it.
        util::Rng cut_rng(c.seed ^ 0x5bf03635ULL);
        const auto keep = cut_rng.next_below(size + 1);
        std::filesystem::resize_file(ckpt, keep, ec);
        if (ec) return "failed to truncate checkpoint";
        spec.resume = true;
        const auto resumed =
            explore::run_explore(**model_, spec, *structural_);
        if (frontier_bytes(resumed) != expected) {
          std::ostringstream msg;
          msg << "resume after truncating checkpoint to " << keep << "/"
              << size << " bytes changed the frontier";
          return msg.str();
        }
        return std::nullopt;
      },
      describe_search);
  ASSERT_TRUE(result.passed) << result.report;
}

// A checkpoint written before exact scoring (fingerprint base
// "<base>#explore-v1#...#verify=K") walked a different scoring order, so
// --resume must refuse it with the fingerprint error, replay nothing and
// leave the file as it was.  The same row under the current fingerprint
// is the control: it resumes and replays that row.
TEST_F(ExploreSearch, ResumeRefusesV1FingerprintCheckpoint) {
  explore::ExploreSpec spec;
  spec.base = "C8";
  spec.axes = serve::parse_grid("RobEntry=48,64,96;FetchBufferEntry=8,16");
  spec.workloads = {"dhrystone"};
  spec.seed = 3;
  spec.population = 4;
  spec.generations = 2;
  const auto ckpt = temp_path("v1.ckpt");
  struct Cleanup {
    std::filesystem::path path;
    ~Cleanup() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  } cleanup{ckpt};
  spec.checkpoint = ckpt.string();
  spec.resume = true;

  const serve::GridCursor cursor(arch::boom_config(spec.base), spec.axes);
  const std::vector<arch::HardwareConfig> cfgs = {cursor.config_at(0)};
  std::vector<serve::SweepRow> rows = serve::evaluate_configs(
      **model_, cfgs, spec.workloads, 1, *structural_);
  std::string row_json;
  serve::append_row_json(row_json, rows[0]);
  const auto write_checkpoint = [&](const std::string& base) {
    serve::CheckpointWriter writer(
        spec.checkpoint,
        serve::sweep_fingerprint(base, spec.axes, spec.workloads,
                                 (*model_)->fingerprint()),
        cursor.size(), spec.workloads.size());
    writer.append(0, row_json);
    writer.close();
  };
  const auto read_bytes = [&] {
    std::ifstream in(ckpt, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
  };

  write_checkpoint("C8#explore-v1#seed=3#pop=4#gen=2#verify=16");
  const std::string v1_bytes = read_bytes();
  try {
    (void)explore::run_explore(**model_, spec, *structural_);
    FAIL() << "resume accepted a v1-fingerprint checkpoint";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint mismatch"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(read_bytes(), v1_bytes);

  write_checkpoint("C8#explore-v2#seed=3#pop=4#gen=2");
  const auto resumed = explore::run_explore(**model_, spec, *structural_);
  EXPECT_EQ(resumed.resumed, 1u);
}

// ---------------------------------------------------------------------
// Oracle (d): differential against the exhaustive sweep.  Every
// candidate is simulated and the generation budget covers the whole
// grid, so every cell is scored — the frontier must EQUAL the Pareto set
// of the exhaustive run_sweep report, member for member and byte for
// byte.

TEST_F(ExploreSearch, DifferentialFrontierEqualsExhaustivePareto) {
  const auto result = testcore::run_property<SearchCase>(
      {.name = "explore.differential_vs_sweep", .cases = 60},
      [](Pcg32& rng) {
        SearchCase c;
        c.axes = random_tiny_axes(rng, 18);
        c.seed = rng.next_u64();
        c.population = static_cast<std::size_t>(rng.next_int(4, 8));
        c.generations =
            (grid_size(c.axes) + c.population - 1) / c.population + 2;
        return c;
      },
      [](const SearchCase& c) -> std::optional<std::string> {
        const auto report =
            explore::run_explore(**model_, spec_for(c), *structural_);
        serve::SweepSpec sweep_spec;
        sweep_spec.base = "C8";
        sweep_spec.axes = c.axes;
        sweep_spec.workloads = {"dhrystone", "qsort"};
        sweep_spec.threads = 1;
        const auto sweep = serve::run_sweep(**model_, sweep_spec, *structural_);
        // Exhaustive Pareto set over the eligible sweep rows, via the
        // naive front-0 filter.
        std::vector<explore::Objectives> objs;
        std::vector<const serve::SweepRow*> rows;
        for (const auto& row : sweep.rows) {
          if (row.failed != 0 || row.mean_total_mw <= 0.0) continue;
          objs.push_back({row.ipc_per_watt, row.mean_total_mw,
                          explore::area_proxy(row.config)});
          rows.push_back(&row);
        }
        std::set<std::size_t> oracle_front;
        for (const std::size_t i : naive_front(objs)) {
          oracle_front.insert(rows[i]->index);
        }
        std::unordered_map<std::size_t, const serve::SweepRow*> by_index;
        for (const auto* row : rows) by_index.emplace(row->index, row);
        std::set<std::size_t> explore_front;
        for (const auto& member : report.frontier) {
          explore_front.insert(member.row.index);
        }
        if (explore_front != oracle_front) {
          std::ostringstream msg;
          msg << "frontier grid indices differ; explore:";
          for (const std::size_t i : explore_front) msg << " " << i;
          msg << "; exhaustive oracle:";
          for (const std::size_t i : oracle_front) msg << " " << i;
          msg << "; grid=" << report.grid_configs
              << " verified=" << report.verified
              << " resumed=" << report.resumed;
          return msg.str();
        }
        // Every frontier member's row JSON must be byte-identical to
        // the exhaustive sweep's row for the same grid index
        // (evaluate_configs' bit-identity contract, end to end).
        for (const auto& member : report.frontier) {
          const auto it = by_index.find(member.row.index);
          if (it == by_index.end()) return "frontier index missing from sweep";
          std::string from_explore;
          std::string from_sweep;
          serve::append_row_json(from_explore, member.row);
          serve::append_row_json(from_sweep, *it->second);
          if (from_explore != from_sweep) {
            std::ostringstream msg;
            msg << "row JSON for grid index " << member.row.index
                << " differs:\n  explore: " << from_explore
                << "\n  sweep:   " << from_sweep;
            return msg.str();
          }
          if (member.area != explore::area_proxy(member.row.config)) {
            return "frontier area does not match area_proxy(config)";
          }
        }
        // Frontier ordering contract: ipc_per_watt descending, grid
        // index ascending on ties, ranks 1..N.
        for (std::size_t i = 0; i < report.frontier.size(); ++i) {
          if (report.frontier[i].row.rank != i + 1) {
            return "frontier ranks are not 1..N";
          }
          if (i == 0) continue;
          const auto& prev = report.frontier[i - 1].row;
          const auto& cur = report.frontier[i].row;
          if (prev.ipc_per_watt < cur.ipc_per_watt ||
              (prev.ipc_per_watt == cur.ipc_per_watt &&
               prev.index >= cur.index)) {
            return "frontier is not sorted by ipc_per_watt desc, index asc";
          }
        }
        return std::nullopt;
      },
      describe_search);
  ASSERT_TRUE(result.passed) << result.report;
}

}  // namespace
}  // namespace autopower

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  autopower::testcore::apply_cli_flags(&argc, argv);
  return RUN_ALL_TESTS();
}
