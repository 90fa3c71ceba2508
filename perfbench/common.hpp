// Shared pieces of the benchmark runner: clocks, the seeded generator,
// output digests, order statistics and the in-memory span tracer.
//
// Everything here belongs to the benchmark, not to the library: spans are
// recorded around the runner's calls into each module's public functions,
// never inside the modules.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline Clock::time_point deadline_after(Clock::time_point start,
                                        double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

/// splitmix64: the benchmark's own generator, so generated inputs depend
/// only on the seed and this file, never on library code.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from (seed, tag, index).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag,
                                 std::uint64_t index = 0) {
  SplitMix mix(seed ^ (tag * 0x100000001b3ull) ^ (index << 32));
  mix.next();
  return mix.next();
}

/// FNV-1a 64 over bytes; the output and input digests the runner prints.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (unsigned char c : bytes) {
      hash_ = (hash_ ^ c) * 0x100000001b3ull;
    }
  }
  void add(double value) {
    char bytes[sizeof value];
    std::memcpy(bytes, &value, sizeof value);
    add(std::string_view(bytes, sizeof bytes));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

inline std::uint64_t digest_of(std::string_view bytes) {
  Digest d;
  d.add(bytes);
  return d.value();
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) < rank) ++index;  // ceil
  if (index > 0) --index;                           // 1-based rank
  return values[std::min(index, values.size() - 1)];
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// One recorded span.  `id` groups the spans of one cell, window or
/// request; `parent` is the index of the enclosing span (or kNoParent).
struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  const char* name = "";
  std::uint64_t id = 0;
  std::uint32_t parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Single-threaded in-memory span recorder.  Disabled, it records nothing
/// and costs one branch per scope.  Spans are kept in memory and written
/// out once, by write(), when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }

  std::uint32_t begin(const char* name, std::uint64_t id) {
    Span span;
    span.name = name;
    span.id = id;
    span.parent = open_.empty() ? Span::kNoParent : open_.back();
    span.start_ns = now_ns();
    spans_.push_back(span);
    open_.push_back(static_cast<std::uint32_t>(spans_.size() - 1));
    return open_.back();
  }
  void end(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }

  /// Self-time samples (ns) of every span named `name`.
  [[nodiscard]] std::vector<double> self_samples(std::string_view name) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent != Span::kNoParent) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) {
        out.push_back(static_cast<double>(spans_[i].end_ns -
                                          spans_[i].start_ns - child_ns[i]));
      }
    }
    return out;
  }

  /// Writes one JSON object per span (JSONL); false when the file cannot
  /// be written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"span\":%zu,\"name\":\"%s\",\"id\":%llu,\"parent\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i, s.name, static_cast<unsigned long long>(s.id),
                   s.parent == Span::kNoParent
                       ? -1LL
                       : static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns - origin_ns_),
                   static_cast<long long>(s.end_ns - origin_ns_));
    }
    return std::fclose(f) == 0;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::int64_t origin_ns_ = now_ns();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer) {
    if (tracer_.enabled()) index_ = tracer_.begin(name, id);
  }
  ~Scope() {
    if (tracer_.enabled()) tracer_.end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t index_ = 0;
};

}  // namespace perfbench
