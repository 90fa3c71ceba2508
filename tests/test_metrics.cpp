// util/metrics, util/parse, util/io: the observability layer's contract.
//
// The MetricsRegistry tests cover single-threaded semantics (bucket
// placement, same-name-same-instance, the enabled switch) and exact
// concurrent sums; the Concurrent* tests are also run under the tsan
// preset by tools/check.sh to race-check the sharded recording and the
// snapshot-while-recording path.  The parse/io tests pin the CLI flag
// and output-stream hardening down to the exact failure messages.

#include <gtest/gtest.h>

#include <climits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/jsonl.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"
#include "util/parse.hpp"

namespace util = autopower::util;

namespace {

/// Restores the process-wide metrics switch even if the test fails.
struct EnabledGuard {
  ~EnabledGuard() { util::MetricsRegistry::set_enabled(true); }
};

TEST(MetricsRegistryTest, CounterAddsAndResets) {
  util::MetricsRegistry registry;
  util::Counter& c = registry.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(MetricsRegistryTest, SameNameReturnsSameInstrument) {
  util::MetricsRegistry registry;
  util::Counter& a = registry.counter("dup");
  util::Counter& b = registry.counter("dup");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(&registry.gauge("g"), &registry.gauge("g"));
  EXPECT_EQ(&registry.histogram("h"), &registry.histogram("h"));
}

TEST(MetricsRegistryTest, GaugeKeepsLastValue) {
  util::MetricsRegistry registry;
  util::Gauge& g = registry.gauge("test.gauge");
  EXPECT_EQ(g.value(), 0.0);
  g.set(2.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(MetricsRegistryTest, HistogramBucketPlacement) {
  util::MetricsRegistry registry;
  util::Histogram& h = registry.histogram("test.hist");
  // bucket i counts values with bit_width == i: 0 | [1,1] | [2,3] | [4,7]
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(4);
  h.observe(7);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 17u);
}

TEST(MetricsRegistryTest, HistogramOverflowBucketAbsorbsHugeValues) {
  util::MetricsRegistry registry;
  util::Histogram& h = registry.histogram("test.hist");
  h.observe(std::uint64_t{1} << 62);
  h.observe(~std::uint64_t{0});
  EXPECT_EQ(h.bucket(util::Histogram::kBuckets - 1), 2u);
  EXPECT_EQ(h.count(), 2u);
}

TEST(MetricsRegistryTest, BucketBoundsAreInclusivePowersOfTwo) {
  EXPECT_EQ(util::Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(util::Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(util::Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(util::Histogram::bucket_bound(3), 7u);
  EXPECT_EQ(util::Histogram::bucket_bound(util::Histogram::kBuckets - 1),
            ~std::uint64_t{0});
}

TEST(MetricsRegistryTest, DisabledSwitchSuppressesRecording) {
  EnabledGuard guard;
  util::MetricsRegistry registry;
  util::Counter& c = registry.counter("c");
  util::Gauge& g = registry.gauge("g");
  util::Histogram& h = registry.histogram("h");
  util::MetricsRegistry::set_enabled(false);
  c.inc();
  g.set(9.0);
  h.observe(100);
  { util::ScopedTimer t(h); }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  util::MetricsRegistry::set_enabled(true);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
}

TEST(MetricsRegistryTest, ScopedTimerObservesOnce) {
  util::MetricsRegistry registry;
  util::Histogram& h = registry.histogram("timer");
  { util::ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(MetricsRegistryTest, ConcurrentIncrementsSumExactly) {
  util::MetricsRegistry registry;
  util::Counter& c = registry.counter("concurrent");
  util::Histogram& h = registry.histogram("concurrent.hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistryTest, SnapshotWhileRecordingIsSafe) {
  // Writers hammer every instrument kind while the main thread snapshots;
  // under ThreadSanitizer this proves the relaxed-atomic recording and
  // the locked to_json() never race.
  util::MetricsRegistry registry;
  util::Counter& c = registry.counter("snap.counter");
  util::Gauge& g = registry.gauge("snap.gauge");
  util::Histogram& h = registry.histogram("snap.hist");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c, &g, &h] {
      for (int i = 0; i < 5000; ++i) {
        c.inc();
        g.set(static_cast<double>(i));
        h.observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    const std::string json = registry.to_json();
    EXPECT_FALSE(json.empty());
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 4u * 5000u);
}

TEST(MetricsRegistryTest, ToJsonRoundTripsThroughServeParser) {
  util::MetricsRegistry registry;
  registry.counter("a.count").add(7);
  registry.gauge("a.rate").set(2.5);
  util::Histogram& h = registry.histogram("a.lat_ns");
  h.observe(5);
  h.observe(5);

  const auto root = autopower::serve::JsonValue::parse(registry.to_json());
  EXPECT_EQ(root.find("counters")->find("a.count")->as_number(), 7.0);
  EXPECT_EQ(root.find("gauges")->find("a.rate")->as_number(), 2.5);
  const auto* hist = root.find("histograms")->find("a.lat_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("count")->as_number(), 2.0);
  EXPECT_EQ(hist->find("sum")->as_number(), 10.0);
  EXPECT_EQ(hist->find("mean")->as_number(), 5.0);
  const auto& buckets = hist->find("buckets")->as_array();
  ASSERT_EQ(buckets.size(), util::Histogram::kBuckets);
  EXPECT_EQ(buckets[3].as_number(), 2.0);  // bit_width(5) == 3
  const auto& bounds = root.find("histogram_bounds")->as_array();
  ASSERT_EQ(bounds.size(), util::Histogram::kBuckets);
  EXPECT_EQ(bounds[2].as_number(), 3.0);
}

TEST(MetricsRegistryTest, ResetZeroesButKeepsReferencesValid) {
  util::MetricsRegistry registry;
  util::Counter& c = registry.counter("r");
  c.add(5);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  EXPECT_EQ(registry.counter("r").value(), 1u);
}

TEST(ParseIntTest, AcceptsPlainIntegers) {
  EXPECT_EQ(util::parse_int("42", "--n"), 42);
  EXPECT_EQ(util::parse_int("-7", "--n"), -7);
  EXPECT_EQ(util::parse_int("0", "--n"), 0);
  EXPECT_EQ(util::parse_int(std::to_string(INT_MAX), "--n"), INT_MAX);
}

TEST(ParseIntTest, RejectsTrailingGarbage) {
  EXPECT_THROW((void)util::parse_int("4x", "--threads"), util::InvalidArgument);
  EXPECT_THROW((void)util::parse_int("3abc", "--top"), util::InvalidArgument);
  EXPECT_THROW((void)util::parse_int("4 ", "--n"), util::InvalidArgument);
  EXPECT_THROW((void)util::parse_int("1.5", "--n"), util::InvalidArgument);
}

TEST(ParseIntTest, RejectsNonNumbers) {
  EXPECT_THROW((void)util::parse_int("", "--n"), util::InvalidArgument);
  EXPECT_THROW((void)util::parse_int("abc", "--n"), util::InvalidArgument);
  EXPECT_THROW((void)util::parse_int("+4", "--n"), util::InvalidArgument);
  EXPECT_THROW((void)util::parse_int(" 4", "--n"), util::InvalidArgument);
}

TEST(ParseIntTest, RejectsOverflow) {
  EXPECT_THROW((void)util::parse_int("99999999999999999999", "--n"),
               util::InvalidArgument);
  EXPECT_THROW((void)util::parse_int("-99999999999999999999", "--n"),
               util::InvalidArgument);
}

TEST(ParseIntTest, EnforcesRange) {
  EXPECT_EQ(util::parse_int("1", "--threads", 1), 1);
  EXPECT_THROW((void)util::parse_int("0", "--threads", 1),
               util::InvalidArgument);
  EXPECT_THROW((void)util::parse_int("-2", "--top", 1), util::InvalidArgument);
  EXPECT_THROW((void)util::parse_int("11", "--n", 0, 10),
               util::InvalidArgument);
}

namespace {

/// A streambuf whose target has failed: every write is refused.
struct FailingBuf : std::streambuf {
  int overflow(int) override { return traits_type::eof(); }
};

}  // namespace

TEST(StreamCheckTest, GoodStreamPasses) {
  std::ostringstream out;
  out << "report line\n";
  EXPECT_NO_THROW(util::flush_and_check(out, "test report"));
}

TEST(StreamCheckTest, FailedWriteIsDetectedAtFlush) {
  FailingBuf buf;
  std::ostream out(&buf);
  out << "this write is silently dropped";
  try {
    util::flush_and_check(out, "truncated report");
    FAIL() << "flush_and_check should throw on a failed stream";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated report"),
              std::string::npos);
  }
}

TEST(StreamCheckTest, LatchedFailureFromEarlierWriteIsDetected) {
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  EXPECT_THROW(util::flush_and_check(out, "bad stream"), util::Error);
}

}  // namespace
