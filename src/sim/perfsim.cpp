#include "sim/perfsim.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <utility>

#include "sim/branch.hpp"
#include "sim/cache.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace autopower::sim {

namespace {

using arch::EventKind;
using arch::EventVector;
using arch::HardwareConfig;
using arch::HwParam;
using workload::WorkloadPhase;
using workload::WorkloadProfile;

std::int64_t next_pow2(std::int64_t v) {
  std::int64_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Largest branch-predictor table the simulator builds (entries).  The
/// table size is an int, so 2^30 is the last power of two that fits; a
/// BranchCount needing more fails its cell instead of wrapping.
constexpr std::int64_t kMaxPredictorEntries = std::int64_t{1} << 30;

std::uint64_t hash_double(std::uint64_t h, double v) {
  return util::hash_combine(h, std::bit_cast<std::uint64_t>(v));
}

using SubSim = util::StructuralSimCache::SubSim;

// Each structural sub-simulation is memoised in its own StructuralSimCache
// lane, keyed ONLY on what it reads (DESIGN.md "Structural-memo
// decomposition" lists the mapping):
//   icache: CacheWay, ICacheFetchBytes | icache_footprint_kb, phase seed
//   dcache: CacheWay, MemFpIssueWidth  | dcache footprint/stride, seed
//   itlb:   TlbEntry                   | icache_footprint_kb, seed
//   dtlb:   TlbEntry                   | dcache footprint/stride, seed
//   branch: BranchCount                | branch_entropy, icache footprint,
//                                        seed
// plus the sample count from SimOptions.  The phase-name-derived stream
// seed is part of every key because it selects the synthetic reference
// stream; two phases with equal profiles and names would replay the same
// stream and may legitimately share an entry.
MissRates measure_memory(util::StructuralSimCache& cache,
                         const HardwareConfig& cfg, const WorkloadPhase& ph,
                         const SimOptions& opt) {
  MissRates mb;
  const int way = cfg.value(HwParam::kCacheWay);
  const int mfw = cfg.value(HwParam::kMemFpIssueWidth);
  const int ifb = cfg.value(HwParam::kICacheFetchBytes);
  const int tlb = cfg.value(HwParam::kTlbEntry);
  const std::uint64_t seed = util::hash_str(ph.name) ^
                             util::hash_str("memsys");

  {  // I-cache: geometry matches the SRAM floorplan (1 KiB * IFB * Way).
    std::uint64_t key = util::hash_combine(seed, way);
    key = util::hash_combine(key, static_cast<std::uint64_t>(ifb));
    key = hash_double(key, ph.icache_footprint_kb);
    key = util::hash_combine(key,
                             static_cast<std::uint64_t>(opt.sample_accesses));
    mb.icache = cache.get_or_compute(SubSim::kICache, key, [&] {
      SetAssocCache icache(/*sets=*/16 * ifb, /*ways=*/way,
                           /*line_bytes=*/64);
      StreamProfile s;
      s.footprint_kb = ph.icache_footprint_kb;
      s.stride_frac = 0.92;  // instruction fetch is mostly sequential
      s.stride_bytes = 8 * ifb;
      s.seed = util::hash_combine(seed, 1);
      return measure_miss_rate(icache, s, opt.sample_accesses);
    });
  }
  {  // D-cache: 2 KiB * Way * MemIssueWidth.
    std::uint64_t key = util::hash_combine(seed, way);
    key = util::hash_combine(key, static_cast<std::uint64_t>(mfw));
    key = hash_double(key, ph.dcache_footprint_kb);
    key = hash_double(key, ph.dcache_stride_frac);
    key = util::hash_combine(key,
                             static_cast<std::uint64_t>(opt.sample_accesses));
    mb.dcache = cache.get_or_compute(SubSim::kDCache, key, [&] {
      SetAssocCache dcache(/*sets=*/32 * mfw, /*ways=*/way,
                           /*line_bytes=*/64);
      StreamProfile s;
      s.footprint_kb = ph.dcache_footprint_kb;
      s.stride_frac = ph.dcache_stride_frac;
      s.stride_bytes = 8;
      s.seed = util::hash_combine(seed, 2);
      return measure_miss_rate(dcache, s, opt.sample_accesses);
    });
  }
  {  // I-TLB (fully associative over 4 KiB pages).
    std::uint64_t key = util::hash_combine(seed, tlb);
    key = hash_double(key, ph.icache_footprint_kb);
    key = util::hash_combine(key,
                             static_cast<std::uint64_t>(opt.sample_accesses));
    mb.itlb = cache.get_or_compute(SubSim::kItlb, key, [&] {
      SetAssocCache itlb(/*sets=*/1, /*ways=*/tlb, /*line_bytes=*/4096);
      StreamProfile s;
      s.footprint_kb = ph.icache_footprint_kb;
      s.stride_frac = 0.95;
      s.stride_bytes = 64;
      s.seed = util::hash_combine(seed, 3);
      return measure_miss_rate(itlb, s, opt.sample_accesses / 4);
    });
  }
  {  // D-TLB.
    std::uint64_t key = util::hash_combine(seed, tlb);
    key = hash_double(key, ph.dcache_footprint_kb);
    key = hash_double(key, ph.dcache_stride_frac);
    key = util::hash_combine(key,
                             static_cast<std::uint64_t>(opt.sample_accesses));
    mb.dtlb = cache.get_or_compute(SubSim::kDtlb, key, [&] {
      SetAssocCache dtlb(/*sets=*/1, /*ways=*/tlb, /*line_bytes=*/4096);
      StreamProfile s;
      s.footprint_kb = ph.dcache_footprint_kb;
      s.stride_frac = ph.dcache_stride_frac;
      s.stride_bytes = 64;
      s.seed = util::hash_combine(seed, 4);
      return measure_miss_rate(dtlb, s, opt.sample_accesses / 4);
    });
  }
  {  // Branch predictor: table scales with BranchCount.
    const int bc = cfg.value(HwParam::kBranchCount);
    const std::int64_t entries = next_pow2(64 * std::int64_t{bc});
    AP_REQUIRE(entries <= kMaxPredictorEntries,
               "BranchCount=" + std::to_string(bc) +
                   " needs a branch-predictor table above 2^30 entries");
    std::uint64_t key = util::hash_combine(seed, bc);
    key = hash_double(key, ph.branch_entropy);
    key = hash_double(key, ph.icache_footprint_kb);
    key = util::hash_combine(key,
                             static_cast<std::uint64_t>(opt.sample_branches));
    mb.bp = cache.get_or_compute(SubSim::kBranch, key, [&] {
      BranchPredictorModel bp(static_cast<int>(entries));
      BranchStreamProfile s;
      s.entropy = ph.branch_entropy;
      s.static_branches =
          16 + static_cast<int>(ph.icache_footprint_kb * 12.0);
      s.seed = util::hash_combine(seed, 5);
      return measure_mispredict_rate(bp, s, opt.sample_branches);
    });
  }
  return mb;
}

/// Adds `cycles` worth of a phase's rates into an aggregate.  Occupancy
/// integrals scale exactly like counters (rate * cycles).
void accumulate(EventVector& acc, const EventVector& rates, double cycles,
                double activity_scale = 1.0) {
  for (std::size_t i = 0; i < arch::kNumEvents; ++i) {
    const auto kind = static_cast<EventKind>(i);
    const double scale = kind == EventKind::kCycles ? 1.0 : activity_scale;
    acc[kind] += rates[kind] * cycles * scale;
  }
}

}  // namespace

PhaseRates rates_from_misses(const HardwareConfig& cfg,
                             const WorkloadPhase& ph, const MissRates& mb) {
  const double fw = cfg.value_d(HwParam::kFetchWidth);
  const double dw = cfg.value_d(HwParam::kDecodeWidth);
  const double rob = cfg.value_d(HwParam::kRobEntry);
  const double lq = cfg.value_d(HwParam::kLdqStqEntry);
  const double mfw = cfg.value_d(HwParam::kMemFpIssueWidth);
  const double iw = cfg.value_d(HwParam::kIntIssueWidth);
  const double mshr = cfg.value_d(HwParam::kMshrEntry);
  const double fbe = cfg.value_d(HwParam::kFetchBufferEntry);

  // --- Interval IPC model -------------------------------------------------
  // Base throughput: limited by decode width and inherent ILP.
  const double ipc0 = std::min(dw, ph.ilp);

  // Average fetch-packet length: sequential run length between taken
  // branches, capped by the fetch width.
  const double taken_frac = 0.45 * ph.branch_frac + 1e-4;
  const double instr_per_packet = std::min(fw, 1.0 / taken_frac);
  const double ic_access_per_instr = 1.0 / instr_per_packet;

  // Per-instruction stall cycles.
  const double flush_penalty = 9.0 + 0.8 * dw;  // refill grows with width
  const double stall_branch = ph.branch_frac * mb.bp * flush_penalty;
  const double stall_icache = ic_access_per_instr * mb.icache * 16.0;
  const double stall_itlb = ic_access_per_instr * mb.itlb * 20.0;
  // MSHRs overlap independent misses; serial (pointer-chasing) code cannot
  // exploit them.
  const double overlap =
      (1.0 - ph.mem_serialisation) * (mshr / (mshr + 3.0));
  const double miss_latency = 38.0;
  const double stall_dcache =
      ph.load_frac * mb.dcache * miss_latency * (1.0 - overlap) +
      ph.store_frac * mb.dcache * miss_latency * 0.15;
  const double stall_dtlb =
      (ph.load_frac + ph.store_frac) * mb.dtlb * 22.0;

  double cpi = 1.0 / ipc0 + stall_branch + stall_icache + stall_itlb +
               stall_dcache + stall_dtlb;
  double ipc = 1.0 / cpi;

  // Structural caps: issue bandwidth per class and queue capacities.
  const double int_demand = 1.0 - ph.load_frac - ph.store_frac - ph.fp_frac;
  if (int_demand > 1e-9) ipc = std::min(ipc, iw / std::max(int_demand, 0.05));
  const double mem_demand = ph.load_frac + ph.store_frac;
  if (mem_demand > 1e-9) ipc = std::min(ipc, mfw / mem_demand);
  if (ph.fp_frac > 1e-9) ipc = std::min(ipc, mfw / ph.fp_frac);

  // ROB-limited: instructions live ~lifetime cycles from dispatch to
  // commit; occupancy cannot exceed the ROB.
  const double lifetime =
      11.0 + ph.load_frac * mb.dcache * miss_latency * 0.8 +
      ph.branch_frac * mb.bp * flush_penalty * 0.4;
  ipc = std::min(ipc, 0.95 * rob / lifetime);

  // LDQ-limited.
  const double load_residence = 7.0 + mb.dcache * miss_latency * 0.9;
  if (ph.load_frac > 1e-9) {
    ipc = std::min(ipc, 0.95 * lq / (ph.load_frac * load_residence));
  }
  ipc = std::max(ipc, 0.05);

  // --- Event rates (per cycle) --------------------------------------------
  PhaseRates out;
  out.ipc = ipc;
  out.misses = mb;
  EventVector& r = out.rates;
  r[EventKind::kCycles] = 1.0;

  // Committed stream.
  r[EventKind::kInstructions] = ipc;
  r[EventKind::kBranches] = ipc * ph.branch_frac;
  r[EventKind::kLoads] = ipc * ph.load_frac;
  r[EventKind::kStores] = ipc * ph.store_frac;
  r[EventKind::kFpInstrs] = ipc * ph.fp_frac;
  r[EventKind::kMulDivInstrs] = ipc * ph.muldiv_frac;
  r[EventKind::kIntAluInstrs] =
      ipc * std::max(0.0, 1.0 - ph.branch_frac - ph.load_frac -
                              ph.store_frac - ph.fp_frac - ph.muldiv_frac);

  // Speculative inflation: wrong-path uops fetched/renamed then squashed.
  const double waste =
      1.0 + ph.branch_frac * mb.bp * (3.0 + 0.5 * dw);
  const double frontend_uops = ipc * waste;

  // Front end.
  r[EventKind::kFetchPackets] = frontend_uops * ic_access_per_instr;
  r[EventKind::kFetchBubbles] =
      std::clamp(1.0 - ipc / dw, 0.0, 1.0);
  r[EventKind::kFetchBufferOcc] =
      std::min(fbe, 2.0 + 0.35 * fbe * (ipc / dw));
  r[EventKind::kBpLookups] = r[EventKind::kFetchPackets];
  r[EventKind::kBpMispredicts] = ipc * ph.branch_frac * mb.bp;
  r[EventKind::kBtbHits] =
      r[EventKind::kBpLookups] * (0.55 + 0.4 * (1.0 - ph.branch_entropy));
  r[EventKind::kICacheAccesses] = r[EventKind::kFetchPackets];
  r[EventKind::kICacheMisses] =
      r[EventKind::kICacheAccesses] * mb.icache;
  r[EventKind::kItlbAccesses] = r[EventKind::kICacheAccesses];
  r[EventKind::kItlbMisses] = r[EventKind::kItlbAccesses] * mb.itlb;

  // Decode / rename / ROB.
  r[EventKind::kDecodedUops] = frontend_uops;
  r[EventKind::kRenameUops] = frontend_uops;
  r[EventKind::kRenameStalls] = std::clamp(1.0 - ipc / dw, 0.0, 1.0) * 0.6;
  r[EventKind::kDispatchedUops] = frontend_uops;
  r[EventKind::kCommittedUops] = ipc;
  r[EventKind::kRobOccupancy] = std::min(0.97 * rob, ipc * lifetime);
  r[EventKind::kPipelineFlushes] =
      r[EventKind::kBpMispredicts] + 1e-5 * ipc;  // plus rare exceptions

  // Issue / execute.
  const double spec = waste;  // executed ops include some wrong-path work
  r[EventKind::kIntIssued] =
      ipc * spec * (r[EventKind::kIntAluInstrs] / std::max(ipc, 1e-9) +
                    ph.branch_frac + ph.muldiv_frac);
  r[EventKind::kMemIssued] = ipc * spec * mem_demand * 1.08;  // replays
  r[EventKind::kFpIssued] = ipc * spec * ph.fp_frac;
  const double iq_wait = 2.5 + 0.5 * lifetime * ph.mem_serialisation;
  r[EventKind::kIntIqOcc] =
      std::min(0.9 * (8.0 + 4.0 * dw), r[EventKind::kIntIssued] * iq_wait);
  r[EventKind::kMemIqOcc] =
      std::min(0.9 * (8.0 + 4.0 * dw), r[EventKind::kMemIssued] * iq_wait);
  r[EventKind::kFpIqOcc] =
      std::min(0.9 * (8.0 + 4.0 * dw), r[EventKind::kFpIssued] * iq_wait);
  r[EventKind::kRegfileReads] =
      1.65 * (r[EventKind::kIntIssued] + r[EventKind::kMemIssued] +
              r[EventKind::kFpIssued]);
  r[EventKind::kRegfileWrites] =
      0.82 * (r[EventKind::kIntIssued] + r[EventKind::kMemIssued] +
              r[EventKind::kFpIssued]);
  r[EventKind::kAluOps] =
      ipc * spec * (r[EventKind::kIntAluInstrs] / std::max(ipc, 1e-9) +
                    ph.branch_frac);
  r[EventKind::kMulOps] = ipc * spec * ph.muldiv_frac * 0.8;
  r[EventKind::kDivOps] = ipc * spec * ph.muldiv_frac * 0.2;
  r[EventKind::kFpuOps] = r[EventKind::kFpIssued];

  // LSU / D-side.
  r[EventKind::kLoadsExecuted] = ipc * spec * ph.load_frac * 1.08;
  r[EventKind::kStoresExecuted] = ipc * ph.store_frac;
  r[EventKind::kStoreForwards] =
      r[EventKind::kLoadsExecuted] * 0.06 *
      std::min(1.0, ph.store_frac * 8.0);
  r[EventKind::kLdqOcc] =
      std::min(0.97 * lq, r[EventKind::kLoadsExecuted] * load_residence);
  r[EventKind::kStqOcc] =
      std::min(0.97 * lq,
               r[EventKind::kStoresExecuted] * (6.0 + 0.3 * load_residence));
  r[EventKind::kDcacheAccesses] =
      r[EventKind::kLoadsExecuted] + r[EventKind::kStoresExecuted];
  r[EventKind::kDcacheMisses] =
      r[EventKind::kDcacheAccesses] * mb.dcache;
  r[EventKind::kDcacheWritebacks] =
      r[EventKind::kDcacheMisses] *
      std::min(0.9, 0.25 + 1.2 * ph.store_frac);
  r[EventKind::kMshrAllocs] = r[EventKind::kDcacheMisses];
  r[EventKind::kMshrFullStalls] = std::max(
      0.0, r[EventKind::kDcacheMisses] * miss_latency - mshr) /
      miss_latency * 0.5;
  r[EventKind::kDtlbAccesses] = r[EventKind::kDcacheAccesses];
  r[EventKind::kDtlbMisses] = r[EventKind::kDtlbAccesses] * mb.dtlb;

  return out;
}

PerfSimulator::PerfSimulator() : PerfSimulator(SimOptions{}) {}

PerfSimulator::PerfSimulator(SimOptions options)
    : PerfSimulator(options, std::make_shared<util::StructuralSimCache>()) {}

namespace {
std::shared_ptr<util::StructuralSimCache> require_structural(
    std::shared_ptr<util::StructuralSimCache> structural) {
  AP_REQUIRE(structural != nullptr,
             "PerfSimulator needs a structural cache (pass none for a "
             "private one)");
  return structural;
}
}  // namespace

PerfSimulator::PerfSimulator(
    SimOptions options, std::shared_ptr<util::StructuralSimCache> structural)
    : options_(options),
      structural_(require_structural(std::move(structural))) {}

PhaseRates PerfSimulator::phase_rates(const HardwareConfig& cfg,
                                      const WorkloadProfile& profile,
                                      std::size_t phase_index) const {
  AP_REQUIRE(phase_index < profile.phases.size(),
             "phase index out of range for workload " + profile.name);
  const WorkloadPhase& ph = profile.phases[phase_index];
  return rates_from_misses(cfg, ph,
                           measure_memory(*structural_, cfg, ph, options_));
}

arch::EventVector PerfSimulator::simulate(
    const HardwareConfig& cfg, const WorkloadProfile& profile) const {
  AP_REQUIRE(!profile.phases.empty(),
             "workload has no phases: " + profile.name);
  EventVector acc;
  double weight_sum = 0.0;
  for (const auto& ph : profile.phases) weight_sum += ph.weight;

  for (std::size_t i = 0; i < profile.phases.size(); ++i) {
    const WorkloadPhase& ph = profile.phases[i];
    const PhaseRates pr = phase_rates(cfg, profile, i);
    const double instr = static_cast<double>(profile.instructions) *
                         ph.weight / weight_sum;
    const double cycles = instr / pr.ipc;
    accumulate(acc, pr.rates, cycles);
  }
  return acc;
}

std::vector<arch::EventVector> PerfSimulator::simulate_trace(
    const HardwareConfig& cfg, const WorkloadProfile& profile) const {
  AP_REQUIRE(!profile.phases.empty(),
             "workload has no phases: " + profile.name);

  // Build the phase schedule: single-phase workloads run straight through;
  // multi-phase kernels repeat their phase sequence (blocked outer loop).
  struct Segment {
    std::size_t phase = 0;
    double cycles = 0.0;
  };
  double weight_sum = 0.0;
  for (const auto& ph : profile.phases) weight_sum += ph.weight;
  const int repeats =
      profile.phases.size() > 1 ? std::max(1, options_.phase_repeats) : 1;

  std::vector<Segment> schedule;
  std::vector<PhaseRates> rates;
  std::vector<double> phase_cycles(profile.phases.size());
  for (std::size_t i = 0; i < profile.phases.size(); ++i) {
    rates.push_back(phase_rates(cfg, profile, i));
    const double instr = static_cast<double>(profile.instructions) *
                         profile.phases[i].weight / weight_sum;
    phase_cycles[i] = instr / rates[i].ipc;
  }
  for (int rep = 0; rep < repeats; ++rep) {
    for (std::size_t i = 0; i < profile.phases.size(); ++i) {
      schedule.push_back({i, phase_cycles[i] / repeats});
    }
  }

  const double window = options_.window_cycles;
  std::vector<EventVector> out;
  const std::uint64_t trace_seed =
      util::hash_combine(util::hash_str(profile.name),
                         util::hash_str(cfg.name()));

  std::size_t seg = 0;
  double seg_left = schedule.empty() ? 0.0 : schedule[0].cycles;
  std::size_t window_index = 0;
  while (seg < schedule.size()) {
    EventVector ev;
    double need = window;
    // Deterministic per-window activity modulation: slow wave + jitter,
    // mimicking loop-level burstiness around the phase steady state.
    const double wave =
        0.06 * std::sin(2.0 * 3.141592653589793 *
                        static_cast<double>(window_index) / 29.0);
    const double jitter =
        0.05 * util::hash_sym(util::hash_combine(
                   trace_seed, static_cast<std::uint64_t>(window_index)));
    const double modulation = 1.0 + wave + jitter;
    while (need > 1e-9 && seg < schedule.size()) {
      const double take = std::min(need, seg_left);
      accumulate(ev, rates[schedule[seg].phase].rates, take, modulation);
      need -= take;
      seg_left -= take;
      if (seg_left <= 1e-9) {
        ++seg;
        if (seg < schedule.size()) seg_left = schedule[seg].cycles;
      }
    }
    out.push_back(ev);
    ++window_index;
  }
  return out;
}

}  // namespace autopower::sim
