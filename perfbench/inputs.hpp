// Seeded input generators for the three workloads.  Each function is a
// pure function of the seed, so the same seed gives the same inputs and
// the program under test only ever sees the generated inputs.
//
//   sweep  grid k of a run: base C8, five core-window axes with three
//          distinct values each, drawn inside the Table II range of the
//          parameter; every grid has 243 configurations x 8 workloads.
//   trace  trace k is gemm on a held-out configuration drawn from C13
//          and C14.  Their gemm traces have exactly the same length
//          (54804 50-cycle windows), so trace size, and with it run time
//          and peak memory, do not depend on the seed; the other held-out
//          configurations run 54.5k-150k windows, and mixing lengths makes
//          the allocator's peak depend on their order.
//   serve  one request stream per connection over the 240 keys
//          C1-C15 x 8 riscv-tests workloads x {total, per_component}.
//          Connection c opens with its half of a seeded permutation of
//          all 240 keys (so every key is requested, and its first request
//          is memo-cold), then draws keys uniformly with mode
//          per_component at probability 0.1.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "common.hpp"
#include "serve/engine.hpp"
#include "serve/sweep.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace ap = autopower;

// Stream tags for derive_seed.
inline constexpr std::uint64_t kTagSweep = 1;
inline constexpr std::uint64_t kTagTrace = 2;
inline constexpr std::uint64_t kTagServe = 3;
inline constexpr std::uint64_t kTagOracle = 4;

struct SweepGrid {
  std::vector<ap::serve::SweepAxis> axes;
  std::string spec;  ///< the `autopower sweep --grid` spelling
};

/// Grid `k` of the sweep workload.
inline SweepGrid sweep_grid(std::uint64_t seed, std::uint64_t k) {
  struct Range {
    ap::arch::HwParam param;
    int lo, hi;  // Table II minimum and maximum over C1..C15
  };
  static constexpr std::array<Range, 5> kAxes = {{
      {ap::arch::HwParam::kRobEntry, 16, 140},
      {ap::arch::HwParam::kDecodeWidth, 1, 5},
      {ap::arch::HwParam::kIntIssueWidth, 1, 5},
      {ap::arch::HwParam::kLdqStqEntry, 4, 36},
      {ap::arch::HwParam::kFetchBufferEntry, 5, 40},
  }};
  SplitMix rng(derive_seed(seed, kTagSweep, k));
  SweepGrid grid;
  for (const Range& r : kAxes) {
    ap::serve::SweepAxis axis;
    axis.param = r.param;
    while (axis.values.size() < 3) {
      const int v = r.lo + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(r.hi - r.lo + 1)));
      bool seen = false;
      for (int existing : axis.values) seen = seen || existing == v;
      if (!seen) axis.values.push_back(v);
    }
    std::sort(axis.values.begin(), axis.values.end());
    if (!grid.spec.empty()) grid.spec += ';';
    grid.spec += std::string(ap::arch::hw_param_name(r.param)) + '=';
    for (std::size_t i = 0; i < axis.values.size(); ++i) {
      if (i > 0) grid.spec += ',';
      grid.spec += std::to_string(axis.values[i]);
    }
    grid.axes.push_back(std::move(axis));
  }
  return grid;
}

inline std::vector<std::string> evaluation_workloads() {
  std::vector<std::string> names;
  for (const auto& w : ap::workload::riscv_tests_workloads()) {
    names.push_back(w.name);
  }
  return names;
}

/// Held-out configuration of trace `k` of the trace workload.
inline std::string trace_config(std::uint64_t seed, std::uint64_t k) {
  static constexpr std::array<const char*, 2> kConfigs = {"C13", "C14"};
  SplitMix rng(derive_seed(seed, kTagTrace, k));
  return kConfigs[rng.below(kConfigs.size())];
}

inline constexpr const char* kTraceWorkload = "gemm";

inline constexpr std::size_t kServeKeys = 15 * 8 * 2;

/// Key k of the serve workload as a request.
inline ap::serve::BatchRequest serve_key(std::size_t k) {
  const auto& workloads = ap::workload::riscv_tests_workloads();
  ap::serve::BatchRequest r;
  r.config = "C" + std::to_string(k / 16 + 1);
  r.workload = workloads[(k / 2) % 8].name;
  r.mode = k % 2 == 0 ? ap::serve::PredictMode::kTotal
                      : ap::serve::PredictMode::kPerComponent;
  return r;
}

/// The wire line of a request, as a client writes it.
inline std::string request_line(const ap::serve::BatchRequest& r) {
  return "{\"config\": \"" + r.config + "\", \"workload\": \"" + r.workload +
         "\", \"mode\": \"" + std::string(ap::serve::to_string(r.mode)) +
         "\"}";
}

/// The request stream of one serve connection, as key indices.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::size_t connection)
      : rng_(derive_seed(seed, kTagServe, connection + 1)) {
    SplitMix perm_rng(derive_seed(seed, kTagServe));
    std::vector<std::size_t> perm(kServeKeys);
    for (std::size_t i = 0; i < kServeKeys; ++i) perm[i] = i;
    for (std::size_t i = kServeKeys - 1; i > 0; --i) {
      std::swap(perm[i], perm[perm_rng.below(i + 1)]);
    }
    const std::size_t half = kServeKeys / 2;
    opening_.assign(perm.begin() + static_cast<long>(connection * half),
                    perm.begin() + static_cast<long>((connection + 1) * half));
  }

  std::size_t next() {
    if (pos_ < opening_.size()) return opening_[pos_++];
    const std::size_t config = rng_.below(15);
    const std::size_t workload = rng_.below(8);
    const std::size_t mode = rng_.unit() < 0.1 ? 1 : 0;
    return config * 16 + workload * 2 + mode;
  }

 private:
  SplitMix rng_;
  std::vector<std::size_t> opening_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench
