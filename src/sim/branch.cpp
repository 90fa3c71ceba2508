#include "sim/branch.hpp"

#include <vector>

#include "sim/exact_mod.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace autopower::sim {

BranchPredictorModel::BranchPredictorModel(int table_entries, int history_bits)
    : entries_(table_entries), history_bits_(history_bits) {
  AP_REQUIRE(table_entries > 0 && (table_entries & (table_entries - 1)) == 0,
             "predictor table size must be a power of two");
  counters_.assign(static_cast<std::size_t>(entries_), 2);  // weakly taken
}

bool BranchPredictorModel::predict_and_update(std::uint64_t pc, bool taken) {
  const std::uint64_t mask = static_cast<std::uint64_t>(entries_) - 1;
  const std::uint64_t hist_mask = (1ULL << history_bits_) - 1;
  const auto index =
      static_cast<std::size_t>((pc ^ (history_ & hist_mask)) & mask);
  std::uint8_t& ctr = counters_[index];
  const bool prediction = ctr >= 2;

  if (taken && ctr < 3) ++ctr;
  if (!taken && ctr > 0) --ctr;
  history_ = ((history_ << 1) | (taken ? 1 : 0)) & hist_mask;
  return prediction == taken;
}

void BranchPredictorModel::reset() {
  counters_.assign(counters_.size(), 2);
  history_ = 0;
}

double measure_mispredict_rate(BranchPredictorModel& predictor,
                               const BranchStreamProfile& profile,
                               int branches) {
  AP_REQUIRE(branches > 0, "need a positive branch count");
  predictor.reset();
  util::Rng rng(util::hash_combine(profile.seed, 0xb4a2c3d1ULL));

  // Assign each static branch a behaviour: "easy" branches are strongly
  // biased loop back-edges; "hard" branches are per-execution coin flips
  // with mild bias.  The entropy knob sets the hard fraction.
  const int num_pcs = profile.static_branches;
  AP_REQUIRE(num_pcs > 0, "branch stream needs a static branch");
  std::vector<bool> is_hard(static_cast<std::size_t>(num_pcs));
  std::vector<double> bias(static_cast<std::size_t>(num_pcs));
  for (int b = 0; b < num_pcs; ++b) {
    is_hard[static_cast<std::size_t>(b)] = rng.next_unit() < profile.entropy;
    bias[static_cast<std::size_t>(b)] =
        is_hard[static_cast<std::size_t>(b)]
            ? 0.35 + 0.3 * rng.next_unit()   // hard: near coin flip
            : (rng.next_unit() < 0.5 ? 0.04  // easy: strongly biased
                                     : 0.96);
  }

  // The branch pick draws exactly what rng.next_below(num_pcs) would.
  const ExactModulo pick(static_cast<std::uint64_t>(num_pcs));
  int mispredicts = 0;
  for (int i = 0; i < branches; ++i) {
    const auto b = static_cast<std::size_t>(pick(rng.next_u64()));
    const bool taken = rng.next_unit() < bias[b];
    // Branch PCs are spread out so they land in distinct table slots until
    // the table is too small for the static footprint.
    const std::uint64_t pc = 0x4000 + 4 * static_cast<std::uint64_t>(b) * 7;
    if (!predictor.predict_and_update(pc, taken)) ++mispredicts;
  }
  return static_cast<double>(mispredicts) / branches;
}

}  // namespace autopower::sim
