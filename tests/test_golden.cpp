// Golden-snapshot tests for the CLI report formats: train/evaluate
// stdout, batch (incl. a trace-mode digest) and sweep JSONL reports, and
// the --stats JSON schema.
//
// Each snapshot lives in tests/golden/*.golden (the .golden extension
// keeps them out of the repo's *.jsonl/*.csv gitignore rules).  A test
// drives the real CLI binary end-to-end in a temp directory, normalises
// volatile content (temp paths, timing numbers), and compares byte for
// byte.  To refresh after an intentional format change:
//
//   ./build/tests/test_golden --update-golden
//
// which rewrites every snapshot in the source tree from the current
// binary's output.  Review the diff like any other code change.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>

#include "serve/net.hpp"
#include "util/archive.hpp"
#include "util/error.hpp"

namespace {

namespace fs = std::filesystem;

bool g_update_golden = false;

struct CliResult {
  int exit_code = -1;
  std::string out;
};

/// Run the CLI with `args`, capturing stdout.  stderr is dropped by
/// default: it carries progress chatter ("metrics snapshot written to
/// ...") that is not part of the report contract.  A test of that chatter
/// passes "2>&1 >/dev/null" to capture stderr instead.
CliResult run_cli(const std::string& args,
                  const std::string& redirect = "2>/dev/null") {
  const std::string cmd =
      std::string("'") + AUTOPOWER_CLI_PATH + "' " + args + " " + redirect;
  CliResult result;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.out.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Replace every occurrence of the per-run temp directory with a stable
/// token so snapshots do not embed a PID.
std::string normalize_paths(std::string text, const std::string& tmp_dir) {
  std::size_t pos = 0;
  while ((pos = text.find(tmp_dir, pos)) != std::string::npos) {
    text.replace(pos, tmp_dir.size(), "<TMP>");
  }
  return text;
}

/// Replace every numeric literal with '#'.  Used for the --stats JSON:
/// the key schema (counter/gauge/histogram names, bucket counts) is the
/// contract; the values include wall-clock timings that change per run.
std::string normalize_numbers(const std::string& text) {
  static const std::regex number(R"(([:,\[\s])-?\d+(\.\d+)?([eE][+-]?\d+)?)");
  return std::regex_replace(text, number, "$1#");
}

/// Replace model-archive fingerprints (16 hex chars) with a stable
/// token: the fingerprint is a content hash of the trained archive, and
/// training embeds nothing volatile, but pinning the exact hash would
/// make every intentional model-format change ripple into this golden.
std::string normalize_fingerprints(const std::string& text) {
  static const std::regex fp(R"("fingerprint": "[0-9a-f]{16}")");
  return std::regex_replace(text, fp, R"("fingerprint": "<FP>")");
}

/// Compare `actual` against tests/golden/<name>, or rewrite the
/// snapshot when --update-golden was passed.
void check_golden(const std::string& name, const std::string& actual) {
  const fs::path path = fs::path(AUTOPOWER_GOLDEN_DIR) / name;
  if (g_update_golden) {
    fs::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
    out << actual;
    ASSERT_TRUE(out.good());
    return;
  }
  ASSERT_TRUE(fs::exists(path))
      << "missing golden file " << path
      << "\ncreate it with: test_golden --update-golden";
  const std::string expected = read_file(path);
  EXPECT_EQ(actual, expected)
      << "output diverged from " << path
      << "\nif the format change is intentional, refresh with:"
      << " test_golden --update-golden";
}

/// One shared temp workspace: train a model once, reuse it for every
/// snapshot.  Training is deterministic, so the snapshots are too.
class GoldenCliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tmp_dir_ = new std::string("/tmp/autopower_golden_test_" +
                               std::to_string(::getpid()));
    fs::create_directories(*tmp_dir_);
    train_ = new CliResult(
        run_cli("train --known C1,C15 --out " + *tmp_dir_ +
                "/m.ap --stats " + *tmp_dir_ + "/train_stats.json"));
    ASSERT_EQ(train_->exit_code, 0) << train_->out;
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    fs::remove_all(*tmp_dir_, ec);
    delete tmp_dir_;
    tmp_dir_ = nullptr;
    delete train_;
    train_ = nullptr;
  }

  static std::string model() { return *tmp_dir_ + "/m.ap"; }
  static const std::string& tmp_dir() { return *tmp_dir_; }
  static const CliResult& train_result() { return *train_; }

 private:
  static std::string* tmp_dir_;
  static CliResult* train_;
};

std::string* GoldenCliTest::tmp_dir_ = nullptr;
CliResult* GoldenCliTest::train_ = nullptr;

TEST_F(GoldenCliTest, TrainStdout) {
  check_golden("train_stdout.golden",
               normalize_paths(train_result().out, tmp_dir()));
}

TEST_F(GoldenCliTest, TrainStatsSchema) {
  check_golden(
      "train_stats_schema.golden",
      normalize_numbers(read_file(tmp_dir() + "/train_stats.json")));
}

TEST_F(GoldenCliTest, EvaluateStdout) {
  const auto r = run_cli("evaluate --model " + model() + " --known C1,C15");
  ASSERT_EQ(r.exit_code, 0) << r.out;
  check_golden("evaluate_stdout.golden", r.out);
}

TEST_F(GoldenCliTest, BatchJsonlReport) {
  // A fixed batch covering both report shapes (total, per_component)
  // plus a failing request, so the error row format is pinned too.
  const std::string reqs = tmp_dir() + "/reqs.jsonl";
  {
    std::ofstream out(reqs);
    out << R"({"config": "C2", "workload": "dhrystone"})" << "\n"
        << R"({"config": "C5", "workload": "qsort", "mode": "per_component"})"
        << "\n"
        << R"({"config": "C99", "workload": "median"})" << "\n";
  }
  const std::string results = tmp_dir() + "/results.jsonl";
  const auto r = run_cli("batch --model " + model() + " --requests " + reqs +
                         " --out " + results + " --stats " + tmp_dir() +
                         "/batch_stats.json");
  ASSERT_EQ(r.exit_code, 0) << r.out;
  check_golden("batch_results.golden", read_file(results));
  check_golden(
      "batch_stats_schema.golden",
      normalize_numbers(read_file(tmp_dir() + "/batch_stats.json")));
}

TEST_F(GoldenCliTest, BatchTraceDigest) {
  // Pins trace mode to exact doubles: batch prints round-trip-exact
  // numbers, and the ~80 KB response line is kept as its window count
  // plus a content fingerprint rather than verbatim.
  const std::string reqs = tmp_dir() + "/trace_reqs.jsonl";
  {
    std::ofstream out(reqs);
    out << R"({"config": "C3", "workload": "median", "mode": "trace"})"
        << "\n";
  }
  const auto r = run_cli("batch --model " + model() + " --requests " + reqs);
  ASSERT_EQ(r.exit_code, 0) << r.out;
  const std::string line = r.out.substr(0, r.out.find('\n'));
  ASSERT_EQ(line.size() + 1, r.out.size()) << "expected one response line";
  const std::string key = "\"trace_mw\": [";
  const std::size_t begin = line.find(key);
  ASSERT_NE(begin, std::string::npos) << line.substr(0, 200);
  const std::size_t end = line.find(']', begin);
  ASSERT_NE(end, std::string::npos);
  const std::string values = line.substr(begin + key.size(),
                                         end - begin - key.size());
  const auto windows =
      values.empty() ? 0 : 1 + std::count(values.begin(), values.end(), ',');
  check_golden("batch_trace_digest.golden",
               "windows " + std::to_string(windows) + "\nfingerprint " +
                   autopower::util::content_fingerprint(line) + "\n");
}

TEST_F(GoldenCliTest, DaemonControlSchema) {
  namespace net = autopower::serve::net;
  // Probe an ephemeral port, release it, and hand it to the daemon
  // (SO_REUSEADDR lets the daemon rebind straight through TIME_WAIT).
  std::uint16_t port = 0;
  {
    net::Listener probe(0);
    port = probe.port();
  }

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Two named slots backed by the same archive: the golden pins the
    // multi-model wire schema, not any per-model numeric difference.
    const std::string main_spec = "main=" + model();
    const std::string alt_spec = "alt=" + model();
    const std::string port_str = std::to_string(port);
    ::execl(AUTOPOWER_CLI_PATH, "autopower", "serve", "--model",
            main_spec.c_str(), "--model", alt_spec.c_str(), "--port",
            port_str.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  // The daemon loads the models before it binds; retry-connect until the
  // listener is up.
  net::Socket sock;
  for (int attempt = 0; attempt < 200 && !sock.valid(); ++attempt) {
    try {
      sock = net::connect_loopback(port);
    } catch (const autopower::util::Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ASSERT_TRUE(sock.valid()) << "daemon never started listening";

  // health, a routed compute, an unknown-model compute, and a reload —
  // all READ before asking for metrics: the metrics snapshot is taken
  // when its line is parsed, so the earlier requests must have fully
  // finished for the instrument key set (the schema under test) to be
  // deterministic.
  net::LineReader reader(sock.fd());
  std::string health;
  std::string compute;
  std::string unknown;
  std::string reload;
  std::string metrics;
  net::write_line(sock.fd(), R"({"cmd": "health"})");
  net::write_line(
      sock.fd(), R"({"config": "C2", "workload": "dhrystone", "model": "alt"})");
  net::write_line(
      sock.fd(), R"({"config": "C2", "workload": "dhrystone", "model": "xx"})");
  net::write_line(sock.fd(), R"({"cmd": "reload", "model": "alt"})");
  ASSERT_TRUE(reader.next_line(health));
  ASSERT_TRUE(reader.next_line(compute));
  ASSERT_TRUE(reader.next_line(unknown));
  ASSERT_TRUE(reader.next_line(reload));
  net::write_line(sock.fd(), R"({"cmd": "metrics"})");
  ASSERT_TRUE(reader.next_line(metrics));

  // Draining health: queue enough uncached trace simulations to hold
  // the drain's phase 1 open, SIGTERM, wait until the listener is
  // provably closed (a fresh connect refuses — the drain flag is set
  // before the close), then ask for health on the surviving connection.
  int queued = 0;
  for (const char* config :
       {"C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10", "C11", "C12"}) {
    for (const char* workload : {"multiply", "median"}) {
      net::write_line(sock.fd(),
                      std::string("{\"config\": \"") + config +
                          "\", \"workload\": \"" + workload +
                          "\", \"mode\": \"trace\"}");
      ++queued;
    }
  }

  // The hold is only deterministic if the traces are ADMITTED before the
  // drain flag flips (a drain that wins the race answers them all
  // "draining" inline and phase 1 finishes with nothing queued).  The
  // daemon.requests counter ticks at parse time, so polling metrics on a
  // second connection until it reaches 2 + queued proves every trace
  // line is past admission.  From there the window is compute-bound:
  // the queued simulations take hundreds of milliseconds, the refused-
  // connect probe and health write microseconds.
  {
    net::Socket meter = net::connect_loopback(port);
    net::LineReader meter_reader(meter.fd());
    const std::string want =
        "\"daemon.requests\":" + std::to_string(2 + queued) + ",";
    std::string snapshot;
    for (int attempt = 0; attempt < 2000; ++attempt) {
      net::write_line(meter.fd(), R"({"cmd": "metrics"})");
      ASSERT_TRUE(meter_reader.next_line(snapshot));
      if (snapshot.find(want) != std::string::npos) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_NE(snapshot.find(want), std::string::npos)
        << "traces never fully admitted: " << snapshot;
  }

  ::kill(pid, SIGTERM);
  for (int attempt = 0; attempt < 200; ++attempt) {
    try {
      net::Socket probe2 = net::connect_loopback(port);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } catch (const autopower::util::Error&) {
      break;  // refused: the drain has started
    }
  }
  net::write_line(sock.fd(), R"({"cmd": "health"})");
  std::string line;
  for (int i = 0; i < queued; ++i) {
    ASSERT_TRUE(reader.next_line(line)) << "compute response " << i;
  }
  std::string draining_health;
  ASSERT_TRUE(reader.next_line(draining_health));
  sock.close();

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "daemon did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0);  // graceful SIGTERM drain exits 0

  check_golden("daemon_control_schema.golden",
               normalize_fingerprints(normalize_numbers(
                   health + "\n" + compute + "\n" + unknown + "\n" + reload +
                   "\n" + metrics + "\n" + draining_health + "\n")));
}

TEST_F(GoldenCliTest, SweepJsonlReport) {
  const std::string out_path = tmp_dir() + "/sweep.jsonl";
  const auto r = run_cli("sweep --model " + model() +
                         " --grid RobEntry=64,96 --workloads dhrystone,qsort"
                         " --base C8 --out " + out_path);
  ASSERT_EQ(r.exit_code, 0) << r.out;
  check_golden("sweep_report.golden", read_file(out_path));
}

TEST_F(GoldenCliTest, SweepNeverCallsAnAllFailedRowBest) {
  // ICacheFetchBytes=3 passes the grid parser but fails every cell ("cache
  // sets must be a power of two"), leaving a row with no mean to rank.
  const auto none = run_cli("sweep --model " + model() +
                                " --grid ICacheFetchBytes=3"
                                " --workloads dhrystone,vvadd --base C8",
                            "2>&1 >/dev/null");
  ASSERT_EQ(none.exit_code, 0) << none.out;
  EXPECT_NE(none.out.find("best: none (every cell failed)"),
            std::string::npos)
      << none.out;
  EXPECT_EQ(none.out.find("0.00 mW"), std::string::npos) << none.out;

  const auto mixed = run_cli("sweep --model " + model() +
                                 " --grid ICacheFetchBytes=3,8"
                                 " --workloads dhrystone --base C8"
                                 " --rank power",
                             "2>&1 >/dev/null");
  ASSERT_EQ(mixed.exit_code, 0) << mixed.out;
  EXPECT_NE(mixed.out.find("best: C8+ICacheFetchBytes=8 ("),
            std::string::npos)
      << mixed.out;
}

TEST_F(GoldenCliTest, ExploreFrontierReport) {
  // Numbers are normalised: the frontier membership, row schema and
  // field order are the contract; the power/IPC values re-derive from
  // the model and shift with any intentional retrain.
  const std::string out_path = tmp_dir() + "/explore.jsonl";
  const auto r = run_cli(
      "explore --model " + model() +
      " --grid 'RobEntry=48,64,96;FetchBufferEntry=8,16'"
      " --workloads dhrystone,qsort --base C8 --seed 7 --population 6"
      " --generations 3 --threads 1 --out " + out_path +
      " --stats " + tmp_dir() + "/explore_stats.json");
  ASSERT_EQ(r.exit_code, 0) << r.out;
  check_golden("explore_frontier.golden",
               normalize_numbers(read_file(out_path)));
  check_golden(
      "explore_stats_schema.golden",
      normalize_numbers(read_file(tmp_dir() + "/explore_stats.json")));
}

TEST_F(GoldenCliTest, ExploreRejectsRemovedVerifyTopFlag) {
  // Every candidate is scored exactly, so the elite cut-off flag is gone;
  // the flag parser must refuse it rather than silently ignore it.
  const std::string out_path = tmp_dir() + "/explore_verify_top.jsonl";
  const auto r = run_cli(
      "explore --model " + model() +
          " --grid 'RobEntry=48,64' --workloads dhrystone --base C8"
          " --generations 1 --verify-top 3 --out " + out_path,
      "2>&1 >/dev/null");
  EXPECT_NE(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("unknown flag --verify-top"), std::string::npos)
      << r.out;
  EXPECT_FALSE(fs::exists(out_path));
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      g_update_golden = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  return RUN_ALL_TESTS();
}
