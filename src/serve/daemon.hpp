// Long-lived serving daemon: a JSONL-over-TCP front-end over the
// BatchEngine, with production admission semantics.
//
// Protocol (newline-delimited JSON, one object per line — the same wire
// format `autopower batch` reads and writes):
//
//   compute request   {"config": "C3", "workload": "dhrystone",
//                      "mode": "total", "deadline_ms": 50,
//                      "model": "boom_a"}
//                     `mode` defaults to "total"; `deadline_ms`
//                     (optional) is a relative per-request deadline;
//                     `model` (optional) routes to a named model slot
//                     (default: the first slot) — an unknown name is
//                     answered {"ok": false, "error": "unknown_model"}.
//   control request   {"cmd": "health"} | {"cmd": "metrics"} |
//                     {"cmd": "reload", "model": "boom_a"}
//                     `reload` re-reads the slot's backing archive and
//                     hot-swaps the published snapshot (see below).
//
// Responses are serve::response_to_jsonl lines whose `index` is the
// request's 0-based position on ITS connection (blank lines don't
// count), so a client that pipes the same request file through the
// daemon gets bytes identical to `autopower batch` output.  Control
// responses are {"index": N, "cmd": ..., "ok": true, ...}; `metrics`
// embeds the live util::MetricsRegistry snapshot, making `--stats` a
// live endpoint.  A malformed line answers {"index": N, "ok": false,
// "error": ...} and the connection stays up (unlike `batch`, which
// rejects the whole file — a resident daemon must not let one bad
// client line poison its stream).
//
// Admission control — the load-shedding state machine per request:
//
//      read line ──parse──> control ──────────────> answered inline
//          │                 compute
//          │                    │ queue full (or serve.daemon.admit
//          │                    │ fault)            ──> {"error":"overloaded"}
//          │                    v
//          │              bounded queue ──dispatcher──> deadline passed?
//          │                                   │ yes ──> deadline-exceeded
//          │                                   │ no  ──> BatchEngine::run
//          v                                   v
//        EOF: wait for queued responses, flush, close
//
// The dispatcher thread coalesces whatever is queued (up to
// `max_batch`) into one BatchEngine::run call, so concurrent clients
// share its response memo, structural cache and batched predict calls,
// and per-connection response order is restored by a per-connection
// reorder buffer.  Expired requests are answered without ever occupying
// an engine worker.
//
// Model zoo and hot-swap: the daemon hosts one BatchEngine per named
// model slot (the spec-list constructor; the single-model constructor
// wraps its model in one slot named "default").  The slot map is frozen
// at construction — routing is a lock-free lookup — but each slot's
// PUBLISHED snapshot is swappable: an in-band {"cmd": "reload"} (or
// SIGHUP via notify_reload(), which reloads every disk-backed slot)
// re-reads the backing archive on the requesting thread (never the
// dispatcher) and then enqueues the swap as a queue item, so the swap
// LINEARIZES with admission: requests admitted before the reload are
// answered by the old snapshot bit-identically, requests after by the
// new one, and no batch ever straddles two models (batch formation
// never crosses a swap item, and BatchEngine::run pins one snapshot per
// call).  A failed reload leaves the old snapshot published and answers
// {"cmd": "reload", "ok": false, ...}.  Stale-response safety does not
// depend on any of this ordering: every engine memo key carries the
// model's archive fingerprint.
//
// Graceful drain: notify_stop() (async-signal-safe — it only write(2)s
// one byte to an internal pipe, so the CLI's SIGINT/SIGTERM handler may
// call it directly) makes serve() stop accepting and drain in two
// phases.  Phase 1: the listener closes (so load balancers see refused
// connects) and NEW compute/reload lines are answered {"error":
// "draining"}, while {"cmd": "health"} keeps answering — with "status":
// "draining" — and every already-admitted request finishes and flushes.
// Phase 2: once the queue and dispatcher have run dry, every client is
// half-closed for reading, buffered lines are still parsed and
// answered, connections flush and close, threads join, serve()
// returns.  In-flight responses are always delivered before the close.
//
// Thread model: one acceptor (the caller of serve()), one dispatcher,
// one reader thread per live connection (bounded by max_connections).
// Readers only touch the bounded queue; exactly one dispatcher calls
// engine.run() at a time, whose helpers come from util::parallel_for's
// process-lifetime pool (no threads spawned per batch).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/autopower.hpp"
#include "serve/engine.hpp"
#include "serve/net.hpp"
#include "util/metrics.hpp"

namespace autopower::serve {

/// One named model slot for the daemon's zoo: requests with
/// {"model": name} route here; `path` is the backing `.ap` archive that
/// {"cmd": "reload"} / SIGHUP re-reads.
struct ModelSpec {
  std::string name;
  std::string path;
};

struct DaemonOptions {
  /// 0 binds an ephemeral port (tests); the CLI validates 1..65535.
  std::uint16_t port = 0;
  /// Bounded admission queue depth; a full queue sheds with an
  /// {"error": "overloaded"} response instead of queueing unboundedly.
  std::size_t queue_depth = 1024;
  /// Concurrent client connections; excess connects are answered with
  /// one {"error": "too_many_connections"} line and closed.
  std::size_t max_connections = 64;
  /// Dispatcher coalescing bound: at most this many queued requests per
  /// BatchEngine::run call.
  std::size_t max_batch = 32;
  EngineOptions engine;
};

/// One parsed daemon wire line (exposed for unit tests).
struct DaemonRequest {
  enum class Kind { kCompute, kControl };
  Kind kind = Kind::kCompute;
  BatchRequest request;           ///< kCompute
  bool has_deadline = false;      ///< kCompute: deadline_ms present
  std::uint64_t deadline_ms = 0;  ///< relative deadline, milliseconds
  std::string cmd;   ///< kControl: "health" | "metrics" | "reload"
  std::string model; ///< slot name; kCompute routing or reload target
};

/// Parses one daemon request line.  Accepts the `batch` request schema
/// plus the daemon-only `deadline_ms` / `model` keys, or a {"cmd": ...}
/// control object (`model` is only valid alongside "cmd": "reload").
/// Throws util::Error on malformed input.
[[nodiscard]] DaemonRequest daemon_request_from_jsonl(std::string_view line);

class Daemon {
 public:
  /// Binds and listens immediately (throws util::Error / net::NetError
  /// on bind failure), so port() is valid before serve() is entered.
  /// The single-model form publishes `model` as one in-memory slot named
  /// "default" with no backing archive (so "reload" answers an error).
  Daemon(std::shared_ptr<const core::AutoPowerModel> model,
         DaemonOptions options = {});
  /// Multi-model form: loads every spec's archive (throws if any load
  /// fails — a daemon never starts with a half-loaded zoo).  The FIRST
  /// spec is the default route for requests without a "model" field.
  /// Names must be non-empty, unique, and match [A-Za-z0-9_.-]+; every
  /// spec is checked before the first archive is read.
  Daemon(const std::vector<ModelSpec>& models, DaemonOptions options = {});
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The bound listening port (== options.port unless that was 0).
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// Accept loop; blocks the calling thread until notify_stop(), then
  /// drains (finish admitted requests, flush, close) and returns.
  /// One-shot: a Daemon cannot be re-served after it drained.
  void serve();

  /// Requests a graceful drain.  Async-signal-safe and idempotent.
  void notify_stop() noexcept;

  /// Requests a reload of every disk-backed model slot (the SIGHUP
  /// handler calls this).  Async-signal-safe: like notify_stop() it only
  /// write(2)s one byte; the acceptor thread does the archive reads and
  /// enqueues the swaps.  A slot whose reload fails keeps its old
  /// snapshot.  No-op after the drain started.
  void notify_reload() noexcept;

  /// Live state, also surfaced by the in-band health/metrics commands.
  struct Stats {
    std::uint64_t accepted = 0;        ///< connections ever accepted
    std::uint64_t active = 0;          ///< connections currently open
    std::uint64_t requests = 0;        ///< compute requests read
    std::uint64_t shed = 0;            ///< answered "overloaded"
    std::uint64_t deadline_expired = 0;
    std::uint64_t net_errors = 0;      ///< accept/read/write failures
  };
  [[nodiscard]] Stats stats() const noexcept;

  /// Slot names in sorted order.
  [[nodiscard]] std::vector<std::string> model_names() const;

 private:
  struct ModelSlot;
  struct Connection;
  struct Work;

  /// The shared member initialiser: binds the listener, registers the
  /// daemon instruments and opens the signal pipe.  No slots yet.
  explicit Daemon(DaemonOptions options);
  void add_slot(const std::string& name, const std::string& path,
                std::shared_ptr<const core::AutoPowerModel> model);
  /// Routing: empty name means the default slot; nullptr for unknown.
  [[nodiscard]] ModelSlot* find_slot(const std::string& name) const;
  void handle_connection(Connection& conn);
  void handle_reload(Connection& conn, std::uint64_t seq,
                     const std::string& model_name);
  void reload_all_slots();
  void enqueue_swap(ModelSlot& slot,
                    std::shared_ptr<const core::AutoPowerModel> model,
                    Connection* conn, std::uint64_t seq,
                    std::string response_line);
  void dispatch_loop();
  void process_batch(std::vector<Work>& batch,
                     std::vector<BatchRequest>& requests,
                     std::vector<Work*>& live);
  /// Queues `line` for `seq` on `conn`, flushing every consecutively
  /// ready response.  `admitted` responses release one outstanding slot.
  void deliver(Connection& conn, std::uint64_t seq, std::string line,
               bool admitted);
  [[nodiscard]] std::string control_response_line(std::uint64_t seq,
                                                  const std::string& cmd);
  void reap_finished(bool join_all);

  DaemonOptions options_;
  /// Frozen after construction: readers route with a plain lookup.  Each
  /// slot owns its archive path and its engine, whose published snapshot
  /// is the only copy of the served model.
  std::map<std::string, std::unique_ptr<ModelSlot>> slots_;
  ModelSlot* default_slot_ = nullptr;
  std::unique_ptr<net::Listener> listener_;
  int stop_pipe_[2] = {-1, -1};
  std::atomic<bool> draining_{false};

  // Admission queue (readers push, the dispatcher pops).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Work> queue_;
  std::size_t reading_handlers_ = 0;  ///< handlers that may still push
  std::size_t inflight_batches_ = 0;  ///< popped, not yet fully delivered
  /// Signalled by the dispatcher when queue + in-flight run dry; only
  /// the drain in serve() waits on it (its own CV so reader pushes can
  /// keep notify_one-ing the dispatcher without lost wakeups).
  std::condition_variable drain_cv_;
  std::thread dispatcher_;

  // Live connections (acceptor inserts/reaps, readers mark finished).
  std::mutex conns_mu_;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::vector<std::uint64_t> finished_;
  std::uint64_t next_conn_id_ = 0;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> deadline_expired_{0};
  std::atomic<std::uint64_t> net_errors_{0};

  struct Instruments {
    util::Counter& connections;
    util::Gauge& active_connections;
    util::Counter& requests;
    util::Counter& shed;
    util::Counter& deadline_expired;
    util::Counter& net_errors;
    util::Counter& unknown_model;
    util::Gauge& queue_depth;
    util::Histogram& request_latency_ns;
  };
  Instruments metrics_;
};

}  // namespace autopower::serve
