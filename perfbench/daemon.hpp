// The `serve` workload's system under test: an `autopower serve` process
// on loopback, started the way users start it, and closed-loop clients
// that each keep one request outstanding.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One `autopower serve --model <archive> --port <p> --threads 2` child
/// process.  The constructor returns once the daemon has answered
/// {"cmd":"health"}; the destructor stops it (SIGTERM, then SIGKILL after
/// a grace period) and reaps it.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& cli, const std::string& archive,
                const std::string& log_path);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Spawn to first health answer.
  [[nodiscard]] double ready_ms() const { return ready_ms_; }
  /// The daemon's resident-set high-water mark (VmHWM), MiB.
  [[nodiscard]] double peak_rss_mib() const;
  /// Graceful stop; true when the daemon exited with status 0.
  bool stop();

 private:
  bool spawn(const std::string& cli, const std::string& archive,
             const std::string& log_path);

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  double ready_ms_ = 0.0;
};

/// What one closed-loop connection saw.
struct ClientLog {
  std::vector<float> latency_us;        ///< send to full response line
  std::vector<float> done_s;            ///< response time since `start`
  std::vector<std::uint32_t> cold;      ///< request ordinals that were
                                        ///< their key's first request
  std::vector<std::uint64_t> line_hash; ///< digest_of(response line)
  std::vector<std::string> lines;       ///< kept when asked (replays)
  std::string error;                    ///< set when the connection failed
};

/// Runs one closed-loop connection: sends the stream's requests one at a
/// time until `deadline` or until `max_requests` were answered.  A key's
/// first request over all connections sharing `claimed` is logged as
/// cold.
void run_client(std::uint16_t port, std::uint64_t seed, std::size_t connection,
                Clock::time_point start, Clock::time_point deadline,
                std::size_t max_requests,
                std::vector<std::atomic<bool>>& claimed, bool keep_lines,
                ClientLog& log);

}  // namespace perfbench
