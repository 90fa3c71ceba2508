#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fstream>
#include <stdexcept>
#include <thread>

#include "inputs.hpp"
#include "serve/net.hpp"

extern char** environ;

namespace perfbench {

namespace net = autopower::serve::net;

namespace {

/// An ephemeral loopback port that was free a moment ago.  The daemon
/// CLI needs an explicit port; a lost race makes the daemon exit and the
/// caller retries with another port.
std::uint16_t pick_port() {
  net::Listener probe(0);
  return probe.port();
}

bool health_ok(std::uint16_t port) {
  try {
    net::Socket sock = net::connect_loopback(port);
    net::write_line(sock.fd(), R"({"cmd": "health"})");
    net::LineReader reader(sock.fd());
    std::string line;
    return reader.next_line(line) &&
           line.find("\"ok\": true") != std::string::npos;
  } catch (const net::NetError&) {
    return false;
  }
}

}  // namespace

DaemonProcess::DaemonProcess(const std::string& cli,
                             const std::string& archive,
                             const std::string& log_path) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    if (spawn(cli, archive, log_path)) return;
  }
  throw std::runtime_error("autopower serve did not become ready; see " +
                           log_path);
}

bool DaemonProcess::spawn(const std::string& cli, const std::string& archive,
                          const std::string& log_path) {
  port_ = pick_port();
  const std::string port = std::to_string(port_);
  std::vector<std::string> args = {cli,    "serve",     "--model", archive,
                                   "--port", port, "--threads", "2"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  const auto start = Clock::now();
  const int rc = posix_spawn(&pid_, cli.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + cli);
  }
  while (seconds_since(start) < 30.0) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {  // exited: port taken?
      pid_ = -1;
      return false;
    }
    if (health_ok(port_)) {
      ready_ms_ = seconds_since(start) * 1e3;
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  stop();
  return false;
}

DaemonProcess::~DaemonProcess() { stop(); }

double DaemonProcess::peak_rss_mib() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

bool DaemonProcess::stop() {
  if (pid_ < 0) return false;
  kill(pid_, SIGTERM);
  int status = 0;
  const auto start = Clock::now();
  while (waitpid(pid_, &status, WNOHANG) != pid_) {
    if (seconds_since(start) > 10.0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void run_client(std::uint16_t port, std::uint64_t seed, std::size_t connection,
                Clock::time_point start, Clock::time_point deadline,
                std::size_t max_requests,
                std::vector<std::atomic<bool>>& claimed, bool keep_lines,
                ClientLog& log) {
  try {
    net::Socket sock = net::connect_loopback(port);
    net::LineReader reader(sock.fd());
    RequestStream stream(seed, connection);
    std::string line;
    for (std::uint32_t n = 0; n < max_requests && Clock::now() < deadline;
         ++n) {
      const std::size_t key = stream.next();
      const std::string request = request_line(serve_key(key));
      if (!claimed[key].exchange(true)) log.cold.push_back(n);
      const auto sent = Clock::now();
      net::write_line(sock.fd(), request);
      if (!reader.next_line(line)) {
        log.error = "daemon closed the connection";
        return;
      }
      const auto done = Clock::now();
      log.latency_us.push_back(static_cast<float>(
          std::chrono::duration<double, std::micro>(done - sent).count()));
      log.done_s.push_back(static_cast<float>(
          std::chrono::duration<double>(done - start).count()));
      log.line_hash.push_back(digest_of(line));
      if (keep_lines) log.lines.push_back(line);
    }
  } catch (const std::exception& e) {
    log.error = e.what();
  }
}

}  // namespace perfbench
