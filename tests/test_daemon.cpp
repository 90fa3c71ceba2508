// Tests for the serving daemon (src/serve/daemon, src/serve/net): every
// test drives a REAL loopback TCP socket against a live Daemon instance
// — no mocked transport — so the admission queue, the per-connection
// reorder buffer, the deadline gate, and the drain path are exercised
// exactly as a production client would hit them.
//
// Built as its own binary so tools/check.sh can run DaemonTest.* under
// the ThreadSanitizer preset: concurrent client connections sharing one
// BatchEngine (its response memo and structural cache) are the
// interesting interleaving.
//
// Subprocess tests at the bottom cover the CLI flag-validation contract
// (`--port 0` and friends must exit 1 before the model is even loaded);
// they need AUTOPOWER_CLI_PATH baked in at compile time.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/params.hpp"
#include "core/autopower.hpp"
#include "power/golden.hpp"
#include "serve/daemon.hpp"
#include "serve/engine.hpp"
#include "serve/jsonl.hpp"
#include "serve/net.hpp"
#include "sim/perfsim.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/metrics.hpp"
#include "workload/workload.hpp"

#ifndef AUTOPOWER_CLI_PATH
#define AUTOPOWER_CLI_PATH "autopower"
#endif

namespace autopower::serve {
namespace {

namespace fault = util::fault;

// --- Shared tiny model (cheap to train, identical across tests) -------------

core::AutoPowerOptions tiny_options() {
  core::AutoPowerOptions opt;
  opt.clock.gbt.num_rounds = 3;
  opt.clock.gbt.tree.max_depth = 2;
  opt.sram.gbt.num_rounds = 3;
  opt.sram.gbt.tree.max_depth = 2;
  opt.logic.gbt.num_rounds = 3;
  opt.logic.gbt.tree.max_depth = 2;
  return opt;
}

std::shared_ptr<const core::AutoPowerModel> train_tiny(
    core::AutoPowerOptions opt) {
  sim::SimOptions sopt;
  sopt.sample_accesses = 400;
  sopt.sample_branches = 400;
  sim::PerfSimulator sim(sopt);
  const power::GoldenPowerModel golden;
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
  auto m = std::make_shared<core::AutoPowerModel>(opt);
  m->train(ctxs, golden, 1);
  return m;
}

std::shared_ptr<const core::AutoPowerModel> tiny_model() {
  static const auto* model = new std::shared_ptr<const core::AutoPowerModel>(
      train_tiny(tiny_options()));
  return *model;
}

/// Same training data, different hyper-parameters: a distinct archive
/// fingerprint AND distinct predictions, so a response served by the
/// wrong model can never accidentally equal the right one.
std::shared_ptr<const core::AutoPowerModel> variant_model() {
  static const auto* model = new std::shared_ptr<const core::AutoPowerModel>(
      [] {
        auto opt = tiny_options();
        opt.clock.gbt.num_rounds = 5;
        opt.sram.gbt.num_rounds = 5;
        opt.logic.gbt.num_rounds = 5;
        return train_tiny(opt);
      }());
  return *model;
}

/// Writes a model's archive to a per-process temp path (overwriting any
/// previous contents) and returns the path.
std::string write_archive(const core::AutoPowerModel& model,
                          const std::string& filename) {
  const std::string path = ::testing::TempDir() + "autopower_daemon_" +
                           std::to_string(::getpid()) + "_" + filename;
  model.save_to_file(path);
  return path;
}

// --- Daemon + client plumbing ------------------------------------------------

/// Runs a Daemon's accept loop on a background thread; the destructor
/// (or stop()) requests a graceful drain and joins.
struct DaemonRunner {
  explicit DaemonRunner(DaemonOptions options = {})
      : daemon(tiny_model(), options),
        server([this] { daemon.serve(); }) {}
  DaemonRunner(const std::vector<ModelSpec>& specs,
               DaemonOptions options = {})
      : daemon(specs, options), server([this] { daemon.serve(); }) {}
  ~DaemonRunner() { stop(); }

  void stop() {
    if (server.joinable()) {
      daemon.notify_stop();
      server.join();
    }
  }

  Daemon daemon;
  std::thread server;
};

/// send(2) loop that does NOT route through net::write_line — fault
/// tests arm serve.net.write and must only trip the daemon's writes.
void raw_send(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "client send failed";
    sent += static_cast<std::size_t>(n);
  }
}

/// recv(2) loop until EOF that does NOT route through net::LineReader —
/// fault tests arm serve.net.read and must only trip the daemon's reads.
std::string raw_recv_all(int fd) {
  std::string data;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return data;
    data.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Reads response lines until EOF.
std::vector<std::string> read_all_lines(int fd) {
  std::vector<std::string> lines;
  net::LineReader reader(fd);
  std::string line;
  while (reader.next_line(line)) lines.push_back(line);
  return lines;
}

/// One-shot client: sends every line, half-closes the write side, and
/// collects the full response stream.
std::vector<std::string> roundtrip(std::uint16_t port,
                                   const std::vector<std::string>& lines) {
  net::Socket sock = net::connect_loopback(port);
  std::string blob;
  for (const auto& l : lines) {
    blob += l;
    blob += '\n';
  }
  raw_send(sock.fd(), blob);
  ::shutdown(sock.fd(), SHUT_WR);
  return read_all_lines(sock.fd());
}

std::string request_line(const BatchRequest& request) {
  return std::string("{\"config\": \"") + request.config +
         "\", \"workload\": \"" + request.workload + "\", \"mode\": \"" +
         std::string(to_string(request.mode)) + "\"}";
}

/// Request line routed to a named model slot.
std::string request_line(const BatchRequest& request,
                         const std::string& model) {
  return std::string("{\"model\": \"") + model + "\", \"config\": \"" +
         request.config + "\", \"workload\": \"" + request.workload +
         "\", \"mode\": \"" + std::string(to_string(request.mode)) + "\"}";
}

/// Rewrites an oracle line's leading {"index": N, ...} to the request's
/// position on its daemon connection (control lines and interleaving
/// shift compute indices relative to the offline batch).
std::string with_index(const std::string& line, std::size_t index) {
  const auto comma = line.find(',');
  return "{\"index\": " + std::to_string(index) + line.substr(comma);
}

std::vector<BatchRequest> sample_requests(std::size_t n) {
  std::vector<BatchRequest> reqs;
  const char* configs[] = {"C2", "C5", "C9", "C13"};
  const char* workloads[] = {"dhrystone", "qsort", "median", "towers"};
  for (std::size_t i = 0; i < n; ++i) {
    reqs.push_back({configs[i % 4], workloads[(i / 4 + i) % 4],
                    i % 3 == 0 ? PredictMode::kPerComponent
                               : PredictMode::kTotal});
  }
  return reqs;
}

/// What `autopower batch` would print for this request stream under the
/// given model: the bit-identity oracle for every daemon response test.
/// (Archive doubles round-trip exactly via hex-float, so a daemon that
/// loaded the model from disk matches an in-memory oracle bit for bit.)
std::vector<std::string> batch_oracle(
    std::shared_ptr<const core::AutoPowerModel> model,
    const std::vector<BatchRequest>& reqs) {
  BatchEngine engine(std::move(model), {});
  const auto responses = engine.run(reqs);
  std::vector<std::string> lines;
  for (const auto& r : responses) lines.push_back(response_to_jsonl(r));
  return lines;
}

std::vector<std::string> batch_oracle(const std::vector<BatchRequest>& reqs) {
  return batch_oracle(tiny_model(), reqs);
}

bool response_ok(const std::string& line) {
  const auto doc = JsonValue::parse(line);
  const auto* ok = doc.find("ok");
  return ok != nullptr && ok->as_bool();
}

std::string response_error(const std::string& line) {
  const auto doc = JsonValue::parse(line);
  const auto* err = doc.find("error");
  return err == nullptr ? "" : err->as_string();
}

class DaemonTest : public ::testing::Test {};

// --- Core protocol: bit-identity with `batch` --------------------------------

TEST_F(DaemonTest, SingleClientBitIdenticalToBatch) {
  DaemonRunner runner;
  const auto requests = sample_requests(24);
  std::vector<std::string> lines;
  for (const auto& r : requests) lines.push_back(request_line(r));
  // Blank and whitespace-only lines must be skipped without consuming an
  // index, exactly like serve::read_requests does for `batch`.
  lines.insert(lines.begin() + 3, "");
  lines.insert(lines.begin() + 9, "   \t");

  const auto got = roundtrip(runner.daemon.port(), lines);
  EXPECT_EQ(got, batch_oracle(requests));
}

TEST_F(DaemonTest, ConcurrentClientsEachBitIdenticalToBatch) {
  DaemonOptions options;
  options.engine.threads = 4;
  DaemonRunner runner(options);

  constexpr int kClients = 8;
  std::vector<std::vector<BatchRequest>> streams;
  for (int c = 0; c < kClients; ++c) {
    // Shifted streams: heavy overlap (shared memo under TSan) but
    // different per-connection orders.
    auto reqs = sample_requests(16);
    std::rotate(reqs.begin(), reqs.begin() + c % reqs.size(), reqs.end());
    streams.push_back(std::move(reqs));
  }

  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::string> lines;
      for (const auto& r : streams[c]) lines.push_back(request_line(r));
      got[c] = roundtrip(runner.daemon.port(), lines);
    });
  }
  for (auto& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(got[c], batch_oracle(streams[c])) << "client " << c;
  }
  EXPECT_EQ(runner.daemon.stats().accepted, static_cast<std::uint64_t>(kClients));
}

// --- Admission control -------------------------------------------------------

TEST_F(DaemonTest, TinyQueueShedsWithStructuredError) {
  DaemonOptions options;
  options.queue_depth = 1;
  options.max_batch = 1;
  options.engine.threads = 1;
  DaemonRunner runner(options);

  // Flood: the client dumps 300 requests in one burst, orders of
  // magnitude faster than the engine can simulate them, so the depth-1
  // queue must overflow.  Every line still gets exactly one response —
  // shed requests answer {"error": "overloaded"}, never a dropped
  // connection.
  const auto requests = sample_requests(300);
  std::vector<std::string> lines;
  for (const auto& r : requests) lines.push_back(request_line(r));
  const auto got = roundtrip(runner.daemon.port(), lines);

  ASSERT_EQ(got.size(), lines.size());
  const auto oracle = batch_oracle(requests);
  std::uint64_t shed = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (response_ok(got[i])) {
      EXPECT_EQ(got[i], oracle[i]) << "line " << i;
    } else {
      EXPECT_EQ(response_error(got[i]), "overloaded") << "line " << i;
      ++shed;
    }
  }
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(runner.daemon.stats().shed, shed);
  EXPECT_EQ(runner.daemon.stats().requests, lines.size());
}

TEST_F(DaemonTest, AdmitFaultSheds) {
#if !defined(AUTOPOWER_FAULT_INJECTION)
  GTEST_SKIP() << "fault points are compiled out";
#endif
  DaemonRunner runner;
  const auto requests = sample_requests(4);
  std::vector<std::string> lines;
  for (const auto& r : requests) lines.push_back(request_line(r));

  {
    // Deterministic shed: force the admission decision for the 2nd
    // compute request regardless of actual queue occupancy.
    fault::ScopedFault armed("serve.daemon.admit", fault::Trigger::countdown(2));
    const auto got = roundtrip(runner.daemon.port(), lines);
    ASSERT_EQ(got.size(), 4u);
    EXPECT_TRUE(response_ok(got[0]));
    EXPECT_EQ(response_error(got[1]), "overloaded");
    EXPECT_TRUE(response_ok(got[2]));
    EXPECT_TRUE(response_ok(got[3]));
  }
  EXPECT_EQ(runner.daemon.stats().shed, 1u);

  // Disarmed: the same stream is served in full and bit-identical.
  EXPECT_EQ(roundtrip(runner.daemon.port(), lines), batch_oracle(requests));
}

TEST_F(DaemonTest, ExcessConnectionRefusedWithStructuredError) {
  DaemonOptions options;
  options.max_connections = 1;
  DaemonRunner runner(options);

  // First client occupies the only slot; reading its health response
  // proves the acceptor registered it before the second connect.
  net::Socket first = net::connect_loopback(runner.daemon.port());
  raw_send(first.fd(), "{\"cmd\": \"health\"}\n");
  net::LineReader first_reader(first.fd());
  std::string line;
  ASSERT_TRUE(first_reader.next_line(line));
  EXPECT_TRUE(response_ok(line));

  // Second client: one refusal line, then EOF — never a silent drop.
  net::Socket second = net::connect_loopback(runner.daemon.port());
  const auto refused = read_all_lines(second.fd());
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(response_error(refused[0]), "too_many_connections");

  // The first connection is still perfectly usable.
  raw_send(first.fd(), request_line(sample_requests(1)[0]) + "\n");
  ASSERT_TRUE(first_reader.next_line(line));
  EXPECT_TRUE(response_ok(line));
}

// --- Deadlines ---------------------------------------------------------------

TEST_F(DaemonTest, DeadlineExpiryIsStructuredAndDeterministic) {
  DaemonRunner runner;
  const auto req = sample_requests(1)[0];
  // deadline_ms 0 expires deterministically (now >= arrival + 0); a
  // generous deadline must not trip.
  const std::vector<std::string> lines = {
      "{\"config\": \"" + req.config + "\", \"workload\": \"" + req.workload +
          "\", \"deadline_ms\": 0}",
      "{\"config\": \"" + req.config + "\", \"workload\": \"" + req.workload +
          "\", \"deadline_ms\": 60000}",
  };
  const auto got = roundtrip(runner.daemon.port(), lines);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(response_error(got[0]), "deadline exceeded");
  EXPECT_TRUE(response_ok(got[1]));
  EXPECT_EQ(runner.daemon.stats().deadline_expired, 1u);
}

// --- Control requests and error lines ----------------------------------------

TEST_F(DaemonTest, ControlAndComputeInterleaveInRequestOrder) {
  DaemonRunner runner;
  const auto req = sample_requests(1)[0];
  const std::vector<std::string> lines = {
      "{\"cmd\": \"health\"}",
      request_line(req),
      "{\"cmd\": \"metrics\"}",
      request_line(req),
  };
  const auto got = roundtrip(runner.daemon.port(), lines);
  ASSERT_EQ(got.size(), 4u);
  // Responses carry the per-connection request index, in order.
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto doc = JsonValue::parse(got[i]);
    ASSERT_NE(doc.find("index"), nullptr) << got[i];
    EXPECT_EQ(doc.find("index")->as_number(), static_cast<double>(i));
  }
  EXPECT_NE(got[0].find("\"status\": \"serving\""), std::string::npos);
  EXPECT_NE(got[0].find("\"queue_depth\""), std::string::npos);
  EXPECT_NE(got[2].find("daemon.requests"), std::string::npos);
  EXPECT_NE(got[2].find("daemon.request_latency_ns"), std::string::npos);
  EXPECT_TRUE(response_ok(got[1]));
  EXPECT_TRUE(response_ok(got[3]));
}

TEST_F(DaemonTest, MalformedLineKeepsConnectionServing) {
  DaemonRunner runner;
  const auto req = sample_requests(1)[0];
  const std::vector<std::string> lines = {
      "{\"bogus\": 1}",
      "not json at all",
      request_line(req),
  };
  const auto got = roundtrip(runner.daemon.port(), lines);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_FALSE(response_ok(got[0]));
  EXPECT_FALSE(response_ok(got[1]));
  EXPECT_TRUE(response_ok(got[2]));
  // Same payload as `batch` modulo the index: the malformed lines DID
  // consume sequence numbers, so the good request is index 2 here.
  std::string expected = batch_oracle({req})[0];
  const std::string old_prefix = "{\"index\": 0,";
  ASSERT_EQ(expected.rfind(old_prefix, 0), 0u);
  expected.replace(0, old_prefix.size(), "{\"index\": 2,");
  EXPECT_EQ(got[2], expected);
}

TEST_F(DaemonTest, ParserRejectsBadDeadlinesAndCommands) {
  EXPECT_THROW(daemon_request_from_jsonl(
                   "{\"config\": \"C2\", \"workload\": \"qsort\", "
                   "\"deadline_ms\": -5}"),
               util::Error);
  EXPECT_THROW(daemon_request_from_jsonl(
                   "{\"config\": \"C2\", \"workload\": \"qsort\", "
                   "\"deadline_ms\": 1.5}"),
               util::Error);
  EXPECT_THROW(daemon_request_from_jsonl("{\"cmd\": \"reboot\"}"),
               util::Error);
  EXPECT_THROW(daemon_request_from_jsonl(
                   "{\"cmd\": \"health\", \"config\": \"C2\"}"),
               util::Error);
  EXPECT_THROW(daemon_request_from_jsonl("{\"workload\": \"qsort\"}"),
               util::Error);

  const auto parsed = daemon_request_from_jsonl(
      "{\"config\": \"C2\", \"workload\": \"qsort\", \"deadline_ms\": 250}");
  EXPECT_EQ(parsed.kind, DaemonRequest::Kind::kCompute);
  EXPECT_TRUE(parsed.has_deadline);
  EXPECT_EQ(parsed.deadline_ms, 250u);

  const auto control = daemon_request_from_jsonl("{\"cmd\": \"metrics\"}");
  EXPECT_EQ(control.kind, DaemonRequest::Kind::kControl);
  EXPECT_EQ(control.cmd, "metrics");
}

// --- Fault injection on the wire ---------------------------------------------

TEST_F(DaemonTest, WriteFaultTearsDownOnlyThatConnection) {
#if !defined(AUTOPOWER_FAULT_INJECTION)
  GTEST_SKIP() << "fault points are compiled out";
#endif
  DaemonRunner runner;
  const auto req = sample_requests(1)[0];

  {
    fault::ScopedFault armed("serve.net.write", fault::Trigger::countdown(1));
    // The daemon's first write dies; this client sees EOF with no
    // response instead of a hang or a daemon crash.  (raw_send keeps the
    // client off the armed site.)
    net::Socket victim = net::connect_loopback(runner.daemon.port());
    raw_send(victim.fd(), request_line(req) + "\n");
    ::shutdown(victim.fd(), SHUT_WR);
    EXPECT_TRUE(raw_recv_all(victim.fd()).empty());
  }
  EXPECT_GE(runner.daemon.stats().net_errors, 1u);

  // Only the victim died: the daemon still serves, bit-identically.
  EXPECT_EQ(roundtrip(runner.daemon.port(), {request_line(req)}),
            batch_oracle({req}));
}

TEST_F(DaemonTest, ReadFaultClosesConnectionDaemonSurvives) {
#if !defined(AUTOPOWER_FAULT_INJECTION)
  GTEST_SKIP() << "fault points are compiled out";
#endif
  DaemonRunner runner;
  const auto req = sample_requests(1)[0];

  {
    fault::ScopedFault armed("serve.net.read", fault::Trigger::countdown(1));
    net::Socket victim = net::connect_loopback(runner.daemon.port());
    // The daemon's first recv on this connection dies before any request
    // is parsed; the connection closes cleanly (EOF to us).  raw_recv_all
    // keeps this client off the armed site.
    EXPECT_TRUE(raw_recv_all(victim.fd()).empty());
  }
  EXPECT_GE(runner.daemon.stats().net_errors, 1u);
  EXPECT_EQ(roundtrip(runner.daemon.port(), {request_line(req)}),
            batch_oracle({req}));
}

// --- Graceful drain ----------------------------------------------------------

TEST_F(DaemonTest, DrainDeliversInFlightResponsesThenCloses) {
  DaemonOptions options;
  options.max_batch = 2;
  options.engine.threads = 1;
  DaemonRunner runner(options);

  // Queue up work, then request a drain while it is still in flight.
  // The contract: every admitted request's response arrives, then EOF.
  const auto requests = sample_requests(32);
  std::string blob;
  for (const auto& r : requests) blob += request_line(r) + "\n";
  net::Socket sock = net::connect_loopback(runner.daemon.port());
  raw_send(sock.fd(), blob);

  // Wait until every request is admitted (they parse far faster than
  // they compute), so the drain below has real in-flight work to finish.
  while (runner.daemon.stats().requests < requests.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runner.stop();  // notify_stop + join: serve() has fully drained here

  const auto got = read_all_lines(sock.fd());
  EXPECT_EQ(got, batch_oracle(requests));
  EXPECT_EQ(runner.daemon.stats().active, 0u);
}

TEST_F(DaemonTest, StopIsIdempotentAndStatsSettle) {
  DaemonRunner runner;
  const auto requests = sample_requests(6);
  std::vector<std::string> lines;
  for (const auto& r : requests) lines.push_back(request_line(r));
  EXPECT_EQ(roundtrip(runner.daemon.port(), lines), batch_oracle(requests));

  runner.daemon.notify_stop();
  runner.daemon.notify_stop();  // repeated signals must be harmless
  runner.stop();

  const auto stats = runner.daemon.stats();
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.shed, 0u);
}

// --- Deadline re-check after queue wait --------------------------------------

TEST_F(DaemonTest, DeadlineIsRecheckedAfterQueueWait) {
  DaemonOptions options;
  options.engine.threads = 1;
  options.max_batch = 1;
  DaemonRunner runner(options);

  // Three uncached qsort traces (~23k windows, ~50 ms each on a 4 vCPU
  // host) occupy the single engine thread for far longer than the 50 ms
  // deadline, and max_batch 1 keeps the deadlined request out of their
  // batches.  It is admitted immediately (50 ms have NOT passed at the
  // admission-time check), so the only place it can expire is the
  // dispatcher's re-check after the queue wait — the regression this test
  // pins: a request must never burn an engine worker after its caller
  // already gave up on it.
  const std::vector<std::string> lines = {
      "{\"config\": \"C2\", \"workload\": \"qsort\", \"mode\": \"trace\"}",
      "{\"config\": \"C5\", \"workload\": \"qsort\", \"mode\": \"trace\"}",
      "{\"config\": \"C9\", \"workload\": \"qsort\", \"mode\": \"trace\"}",
      "{\"config\": \"C13\", \"workload\": \"qsort\", \"deadline_ms\": 50}",
  };
  const auto got = roundtrip(runner.daemon.port(), lines);
  ASSERT_EQ(got.size(), 4u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(response_ok(got[i])) << got[i];
  EXPECT_EQ(response_error(got[3]), "deadline exceeded");
  EXPECT_EQ(runner.daemon.stats().deadline_expired, 1u);
}

// --- Two-phase drain: health keeps answering ---------------------------------

TEST_F(DaemonTest, HealthDuringDrainReportsDraining) {
  DaemonOptions options;
  options.engine.threads = 1;
  options.max_batch = 1;
  DaemonRunner runner(options);

  // Park slow traces in the queue, then start the drain while they are
  // still in flight.  Phase 1 keeps reading from live connections: a
  // health probe must still be answered — reporting "draining", the
  // signal a load balancer keys off — while a NEW compute line is
  // refused with a structured error instead of being admitted.
  const std::vector<std::string> lines = {
      "{\"config\": \"C2\", \"workload\": \"qsort\", \"mode\": \"trace\"}",
      "{\"config\": \"C5\", \"workload\": \"qsort\", \"mode\": \"trace\"}",
      "{\"config\": \"C9\", \"workload\": \"qsort\", \"mode\": \"trace\"}",
  };
  net::Socket sock = net::connect_loopback(runner.daemon.port());
  std::string blob;
  for (const auto& l : lines) blob += l + "\n";
  raw_send(sock.fd(), blob);
  while (runner.daemon.stats().requests < lines.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  runner.daemon.notify_stop();
  // notify_stop() only wakes the acceptor, which marks the daemon draining
  // before it closes the listener: a refused connect proves the drain has
  // begun, so the probe below cannot race it.
  for (;;) {
    try {
      (void)net::connect_loopback(runner.daemon.port());
    } catch (const std::exception&) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  raw_send(sock.fd(), "{\"cmd\": \"health\"}\n");
  raw_send(sock.fd(), request_line(sample_requests(1)[0]) + "\n");
  ::shutdown(sock.fd(), SHUT_WR);
  const auto got = read_all_lines(sock.fd());
  runner.stop();

  ASSERT_EQ(got.size(), 5u);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(response_ok(got[i])) << got[i];
  EXPECT_NE(got[3].find("\"status\": \"draining\""), std::string::npos)
      << got[3];
  EXPECT_EQ(response_error(got[4]), "draining");
}

// --- Multi-model routing and hot-swap ----------------------------------------

TEST_F(DaemonTest, UnknownModelAnswersStructuredErrorAndKeepsServing) {
  const std::string path = write_archive(*tiny_model(), "unknown.ap");
  DaemonRunner runner(std::vector<ModelSpec>{{"main", path}});
  const auto req = sample_requests(1)[0];
  const std::vector<std::string> lines = {
      request_line(req, "nope"),   // unknown slot
      request_line(req, "main"),   // explicit route
      request_line(req),           // default route (first spec)
  };
  const auto got = roundtrip(runner.daemon.port(), lines);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(response_error(got[0]), "unknown_model");
  const auto oracle = batch_oracle({req});
  EXPECT_EQ(got[1], with_index(oracle[0], 1));
  EXPECT_EQ(got[2], with_index(oracle[0], 2));
  std::remove(path.c_str());
}

TEST_F(DaemonTest, TwoModelRoutingNeverAliasesSharedCaches) {
  ASSERT_NE(tiny_model()->fingerprint(), variant_model()->fingerprint());
  const std::string path_a = write_archive(*tiny_model(), "route_a.ap");
  const std::string path_b = write_archive(*variant_model(), "route_b.ap");
  DaemonOptions options;
  options.engine.threads = 2;
  DaemonRunner runner({{"a", path_a}, {"b", path_b}}, options);

  // The SAME (config, workload, mode) stream routed to both slots,
  // interleaved on one connection.  Every response must match its own
  // model's offline batch output: under pre-fingerprint memo keying the
  // second slot would replay the first slot's cached numbers.
  const auto requests = sample_requests(8);
  std::vector<std::string> lines;
  for (const auto& r : requests) {
    lines.push_back(request_line(r, "a"));
    lines.push_back(request_line(r, "b"));
  }
  const auto got = roundtrip(runner.daemon.port(), lines);
  ASSERT_EQ(got.size(), 2 * requests.size());
  const auto oracle_a = batch_oracle(tiny_model(), requests);
  const auto oracle_b = batch_oracle(variant_model(), requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(got[2 * i], with_index(oracle_a[i], 2 * i)) << "slot a, " << i;
    EXPECT_EQ(got[2 * i + 1], with_index(oracle_b[i], 2 * i + 1))
        << "slot b, " << i;
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

/// [requests | {"cmd": "reload"} | requests] on one connection.
std::vector<std::string> reload_between(std::uint16_t port,
                                        const std::vector<BatchRequest>& reqs) {
  std::vector<std::string> lines;
  for (const auto& r : reqs) lines.push_back(request_line(r));
  lines.push_back("{\"cmd\": \"reload\"}");
  for (const auto& r : reqs) lines.push_back(request_line(r));
  return roundtrip(port, lines);
}

TEST_F(DaemonTest, ReloadMidStreamHalvesBitIdenticalToEachModel) {
  const std::string live = write_archive(*tiny_model(), "live.ap");
  DaemonRunner runner(std::vector<ModelSpec>{{"m", live}});
  // Overwrite the backing archive while the daemon serves the old
  // snapshot: nothing may change until the reload lands.
  variant_model()->save_to_file(live);

  // [old-model half | reload | new-model half] on ONE connection: the
  // swap linearizes with admission, so the halves must be bit-identical
  // to each model's offline batch — no response computed by a half-
  // swapped zoo, no stale memo entry crossing the boundary.
  const auto requests = sample_requests(8);
  const auto got = reload_between(runner.daemon.port(), requests);
  ASSERT_EQ(got.size(), 2 * requests.size() + 1);
  const auto before = batch_oracle(tiny_model(), requests);
  const auto after = batch_oracle(variant_model(), requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(got[i], before[i]) << "pre-reload line " << i;
    EXPECT_EQ(got[requests.size() + 1 + i],
              with_index(after[i], requests.size() + 1 + i))
        << "post-reload line " << i;
  }
  const auto reload = JsonValue::parse(got[requests.size()]);
  ASSERT_NE(reload.find("ok"), nullptr) << got[requests.size()];
  EXPECT_TRUE(reload.find("ok")->as_bool()) << got[requests.size()];
  ASSERT_NE(reload.find("fingerprint"), nullptr);
  EXPECT_EQ(reload.find("fingerprint")->as_string(),
            variant_model()->fingerprint());
  std::remove(live.c_str());
}

TEST_F(DaemonTest, ConcurrentClientDuringReloadSeesOnlyWholeModels) {
  const std::string live = write_archive(*tiny_model(), "churn.ap");
  DaemonOptions options;
  options.engine.threads = 2;
  DaemonRunner runner({{"m", live}}, options);

  // A churner flips the backing archive between the two models and
  // reloads in a tight loop while a probe client streams requests.  The
  // interesting interleavings (swap vs. batch formation vs. memo fills,
  // under TSan in check.sh) are exercised by construction; the observable
  // contract is that EVERY response equals one model's oracle line in
  // full — a batch torn across the swap or an aliased memo entry would
  // produce a line matching neither.
  std::atomic<bool> done{false};
  std::thread churner([&] {
    bool use_variant = true;
    while (!done.load(std::memory_order_relaxed)) {
      (use_variant ? variant_model() : tiny_model())->save_to_file(live);
      use_variant = !use_variant;
      const auto resp =
          roundtrip(runner.daemon.port(), {"{\"cmd\": \"reload\"}"});
      EXPECT_EQ(resp.size(), 1u);  // ok or a clean torn-read error line
    }
  });

  const auto requests = sample_requests(24);
  std::vector<std::string> lines;
  for (const auto& r : requests) lines.push_back(request_line(r));
  const auto oracle_a = batch_oracle(tiny_model(), requests);
  const auto oracle_b = batch_oracle(variant_model(), requests);
  const auto got = roundtrip(runner.daemon.port(), lines);
  done.store(true, std::memory_order_relaxed);
  churner.join();

  ASSERT_EQ(got.size(), requests.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == oracle_a[i] || got[i] == oracle_b[i])
        << "line " << i << " matches neither model: " << got[i];
  }
  std::remove(live.c_str());
}

TEST_F(DaemonTest, NotifyReloadSwapsEveryDiskBackedSlot) {
  const std::string path_a = write_archive(*tiny_model(), "hup_a.ap");
  const std::string path_b = write_archive(*tiny_model(), "hup_b.ap");
  DaemonRunner runner({{"a", path_a}, {"b", path_b}});

  const auto req = sample_requests(1)[0];
  const std::vector<std::string> lines = {request_line(req, "a"),
                                          request_line(req, "b")};
  const auto old_oracle = batch_oracle(tiny_model(), {req});
  EXPECT_EQ(roundtrip(runner.daemon.port(), lines),
            (std::vector<std::string>{with_index(old_oracle[0], 0),
                                      with_index(old_oracle[0], 1)}));

  // SIGHUP path: notify_reload() re-reads EVERY disk-backed slot.  The
  // acceptor thread applies it asynchronously, so poll until both slots
  // serve the new snapshot.
  variant_model()->save_to_file(path_a);
  variant_model()->save_to_file(path_b);
  runner.daemon.notify_reload();

  const auto new_oracle = batch_oracle(variant_model(), {req});
  const std::vector<std::string> want = {with_index(new_oracle[0], 0),
                                         with_index(new_oracle[0], 1)};
  std::vector<std::string> got;
  for (int i = 0; i < 5000; ++i) {
    got = roundtrip(runner.daemon.port(), lines);
    if (got == want) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(got, want);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(DaemonTest, FailedReloadKeepsOldSnapshot) {
  const std::string live = write_archive(*tiny_model(), "failed_reload.ap");
  DaemonRunner runner(std::vector<ModelSpec>{{"m", live}});
  const util::Counter& reloads =
      util::MetricsRegistry::global().counter("daemon.model.m.reloads");
  const std::uint64_t reloads_before = reloads.value();
  const auto requests = sample_requests(8);
  const std::size_t n = requests.size();
  const auto old_oracle = batch_oracle(tiny_model(), requests);
  const auto new_oracle = batch_oracle(variant_model(), requests);
  const auto expect_halves = [&](const std::vector<std::string>& got,
                                 const std::vector<std::string>& before,
                                 const std::vector<std::string>& after) {
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i], before[i]) << "pre-reload line " << i;
      EXPECT_EQ(got[n + 1 + i], with_index(after[i], n + 1 + i))
          << "post-reload line " << i;
    }
  };

#if defined(AUTOPOWER_FAULT_INJECTION)
  {
    // The archive on disk now holds the variant model, so a reload that
    // published anything would show in the second half.  The injected
    // read failure must answer ok: false and swap nothing.
    variant_model()->save_to_file(live);
    fault::ScopedFault armed("util.archive.read",
                             fault::Trigger::countdown(1));
    const auto got = reload_between(runner.daemon.port(), requests);
    ASSERT_EQ(got.size(), 2 * n + 1);
    expect_halves(got, old_oracle, old_oracle);
    EXPECT_EQ(got[n],
              "{\"index\": 8, \"cmd\": \"reload\", \"ok\": false, "
              "\"model\": \"m\", \"error\": \"injected fault at "
              "util.archive.read\"}");
    EXPECT_EQ(reloads.value(), reloads_before);
  }
#endif

  // A torn archive (half its bytes) fails the loader the same way.
  variant_model()->save_to_file(live);
  std::filesystem::resize_file(live, std::filesystem::file_size(live) / 2);
  {
    const auto got = reload_between(runner.daemon.port(), requests);
    ASSERT_EQ(got.size(), 2 * n + 1);
    expect_halves(got, old_oracle, old_oracle);
    EXPECT_FALSE(response_ok(got[n])) << got[n];
    EXPECT_FALSE(response_error(got[n]).empty()) << got[n];
    EXPECT_EQ(reloads.value(), reloads_before);
  }

  // Once the archive is whole again, the same slot reloads cleanly.
  variant_model()->save_to_file(live);
  {
    const auto got = reload_between(runner.daemon.port(), requests);
    ASSERT_EQ(got.size(), 2 * n + 1);
    expect_halves(got, old_oracle, new_oracle);
    EXPECT_EQ(got[n], "{\"index\": 8, \"cmd\": \"reload\", \"ok\": true, "
                      "\"model\": \"m\", \"fingerprint\": \"" +
                          variant_model()->fingerprint() + "\"}");
    EXPECT_EQ(reloads.value(), reloads_before + 1);
  }
  std::remove(live.c_str());

  // The single-model form's in-memory "default" slot has nothing on disk
  // to re-read; an unknown slot is refused by name.  Both keep serving.
  DaemonRunner in_memory;
  const auto req = sample_requests(1)[0];
  const auto got = roundtrip(
      in_memory.daemon.port(),
      {"{\"cmd\": \"reload\"}", "{\"cmd\": \"reload\", \"model\": \"nope\"}",
       request_line(req)});
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0],
            "{\"index\": 0, \"cmd\": \"reload\", \"ok\": false, \"model\": "
            "\"default\", \"error\": \"model slot 'default' has no backing "
            "archive\"}");
  EXPECT_EQ(got[1],
            "{\"index\": 1, \"cmd\": \"reload\", \"ok\": false, \"model\": "
            "\"nope\", \"error\": \"unknown_model\"}");
  EXPECT_EQ(got[2], with_index(batch_oracle({req})[0], 2));
}

TEST_F(DaemonTest, ConstructorRejectsBadZooBeforeLoading) {
  const auto construction_error =
      [](const std::vector<ModelSpec>& specs) -> std::string {
    try {
      Daemon daemon(specs);
    } catch (const util::Error& e) {
      return e.what();
    }
    return "";
  };
  const std::string good = write_archive(*tiny_model(), "zoo.ap");
  EXPECT_EQ(construction_error({{"a", good}, {"b", "/nonexistent/b.ap"}}),
            "cannot open model file: /nonexistent/b.ap");
  // Every path below is missing, so a daemon that read an archive before
  // checking the names would report the load failure instead.
  EXPECT_EQ(construction_error(
                {{"a", "/nonexistent/a.ap"}, {"a", "/nonexistent/b.ap"}}),
            "duplicate model slot name 'a'");
  EXPECT_EQ(construction_error({{"a", "/nonexistent/a.ap"},
                                {"bad name", "/nonexistent/b.ap"}}),
            "invalid model slot name 'bad name' (expected [A-Za-z0-9_.-]+)");
  EXPECT_EQ(construction_error({{"a", "/nonexistent/a.ap"}, {"b", ""}}),
            "model slot 'b' needs an archive path");
  EXPECT_EQ(construction_error({}), "daemon: at least one model slot required");
  std::remove(good.c_str());
}

// --- CLI flag validation (subprocess; exits before model load) ---------------

int cli_exit_code(const std::string& args) {
  const std::string cmd =
      std::string("'") + AUTOPOWER_CLI_PATH + "' " + args + " >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(DaemonCliTest, RejectsBadFlagValuesWithExitOne) {
  // No model file needed: flag validation must run (and fail) first.
  const char* bad[] = {
      "serve --model /nonexistent.ap --port 0",
      "serve --model /nonexistent.ap --port -1",
      "serve --model /nonexistent.ap --port 65536",
      "serve --model /nonexistent.ap --port 80x",
      "serve --model /nonexistent.ap --port 8080 --queue-depth 0",
      "serve --model /nonexistent.ap --port 8080 --max-connections -3",
      "serve --model /nonexistent.ap --port 8080 --max-batch 0",
      "serve --port 8080",  // missing --model
  };
  for (const char* args : bad) {
    EXPECT_EQ(cli_exit_code(args), 1) << args;
  }
}

}  // namespace
}  // namespace autopower::serve
