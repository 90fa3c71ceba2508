#include "serve/daemon.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "serve/jsonl.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/simd.hpp"

namespace autopower::serve {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& message) {
  throw util::Error("daemon: " + message);
}

}  // namespace

DaemonRequest daemon_request_from_jsonl(std::string_view line) {
  const JsonValue doc = JsonValue::parse(line);
  const auto& object = doc.as_object();
  DaemonRequest out;

  if (doc.find("cmd") != nullptr) {
    out.kind = DaemonRequest::Kind::kControl;
    bool have_model = false;
    for (const auto& [key, value] : object) {
      if (key == "cmd") {
        out.cmd = value.as_string();
      } else if (key == "model") {
        out.model = value.as_string();
        have_model = true;
      } else {
        fail("unknown control key \"" + key +
             "\" (expected \"cmd\" and, for reload, \"model\")");
      }
    }
    if (out.cmd != "health" && out.cmd != "metrics" && out.cmd != "reload") {
      fail("unknown cmd \"" + out.cmd +
           "\" (expected \"health\" | \"metrics\" | \"reload\")");
    }
    if (have_model && out.cmd != "reload") {
      fail("\"model\" is only valid with \"cmd\": \"reload\"");
    }
    return out;
  }

  out.kind = DaemonRequest::Kind::kCompute;
  bool have_config = false;
  bool have_workload = false;
  std::string mode = "total";
  for (const auto& [key, value] : object) {
    if (key == "config") {
      out.request.config = value.as_string();
      have_config = true;
    } else if (key == "workload") {
      out.request.workload = value.as_string();
      have_workload = true;
    } else if (key == "mode") {
      mode = value.as_string();
    } else if (key == "deadline_ms") {
      const double ms = value.as_number();
      if (!(ms >= 0.0) || ms > 1e12 || std::floor(ms) != ms) {
        fail("deadline_ms must be a non-negative integer (got " +
             std::string(line.substr(0, 64)) + ")");
      }
      out.has_deadline = true;
      out.deadline_ms = static_cast<std::uint64_t>(ms);
    } else if (key == "model") {
      out.model = value.as_string();
    } else {
      fail("unknown request key \"" + key + "\"");
    }
  }
  if (!have_config) fail("request is missing \"config\"");
  if (!have_workload) fail("request is missing \"workload\"");
  out.request.mode = mode_from_string(mode);
  return out;
}

// Defined here (not the header) so daemon.hpp stays free of the
// reorder-buffer internals.  Lifetime: owned by conns_ until the
// acceptor reaps it; the reader thread's wait on `outstanding == 0`
// guarantees no dispatcher deliver() can arrive after the reader
// finishes, so reaping after the reader exits is safe.
struct Daemon::Connection {
  net::Socket sock;
  std::uint64_t id = 0;
  std::thread thread;

  std::mutex mu;
  std::condition_variable cv;
  /// Reorder buffer: responses ready to write, keyed by per-connection
  /// sequence number.  Flushed in seq order by deliver().
  std::map<std::uint64_t, std::string> ready;
  std::uint64_t next_write = 0;  ///< next seq the client expects
  std::size_t outstanding = 0;   ///< admitted, response not yet delivered
  bool write_failed = false;     ///< a write died; drop later responses
};

/// One named model slot and the one owner of its state: a routing name,
/// the backing archive path (immutable; empty for the in-memory
/// single-model form), a dedicated BatchEngine whose published snapshot
/// is what reload swaps, and the slot's metric instruments.
struct Daemon::ModelSlot {
  std::string name;
  std::string path;
  BatchEngine engine;
  util::Counter& requests;  ///< daemon.model.<name>.requests
  util::Counter& reloads;   ///< daemon.model.<name>.reloads
};

/// A queue item: either one admitted compute request, or a model swap.
/// Swaps ride the SAME queue so they linearize with admission — every
/// compute admitted before the swap is popped (and batched) before it,
/// every one after sees the new snapshot.
struct Daemon::Work {
  enum class Kind { kCompute, kSwap };
  Kind kind = Kind::kCompute;
  Connection* conn = nullptr;  ///< kSwap: nullptr for SIGHUP reloads
  std::uint64_t seq = 0;
  ModelSlot* slot = nullptr;
  // kCompute:
  BatchRequest request;
  Clock::time_point arrival{};
  bool has_deadline = false;
  Clock::time_point deadline{};
  // kSwap: the pre-loaded snapshot and the pre-built reload response
  // (delivered when the swap is applied, so the client's "ok" is ordered
  // exactly at the swap point in its response stream).
  std::shared_ptr<const core::AutoPowerModel> new_model;
  std::string response_line;
};

namespace {

bool valid_slot_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Reads one `.ap` archive.  Every caller runs it outside the daemon's
/// locks, and a load that throws leaves nothing behind: the caller keeps
/// whatever snapshot it already serves.
std::shared_ptr<const core::AutoPowerModel> load_archive(
    const std::string& path) {
  auto model = std::make_shared<core::AutoPowerModel>();
  model->load_from_file(path);
  return model;
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(options),
      listener_(std::make_unique<net::Listener>(options.port)),
      metrics_{util::MetricsRegistry::global().counter("daemon.connections"),
               util::MetricsRegistry::global().gauge(
                   "daemon.active_connections"),
               util::MetricsRegistry::global().counter("daemon.requests"),
               util::MetricsRegistry::global().counter("daemon.shed"),
               util::MetricsRegistry::global().counter(
                   "daemon.deadline_expired"),
               util::MetricsRegistry::global().counter("daemon.net_errors"),
               util::MetricsRegistry::global().counter(
                   "daemon.unknown_model"),
               util::MetricsRegistry::global().gauge("daemon.queue_depth"),
               util::MetricsRegistry::global().histogram(
                   "daemon.request_latency_ns")} {
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  if (options_.max_connections == 0) options_.max_connections = 1;
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (::pipe(stop_pipe_) != 0) {
    fail(std::string("pipe: ") + std::strerror(errno));
  }
  // Non-blocking write end: notify_stop() from a signal handler must
  // never block, even if the pipe is (implausibly) full.
  const int flags = ::fcntl(stop_pipe_[1], F_GETFL, 0);
  (void)::fcntl(stop_pipe_[1], F_SETFL, flags | O_NONBLOCK);
}

Daemon::Daemon(std::shared_ptr<const core::AutoPowerModel> model,
               DaemonOptions options)
    : Daemon(options) {
  AP_REQUIRE(model != nullptr, "daemon: null model");
  add_slot("default", "", std::move(model));
}

Daemon::Daemon(const std::vector<ModelSpec>& models, DaemonOptions options)
    : Daemon(options) {
  AP_REQUIRE(!models.empty(), "daemon: at least one model slot required");
  for (auto it = models.begin(); it != models.end(); ++it) {
    AP_REQUIRE(valid_slot_name(it->name),
               "invalid model slot name '" + it->name +
                   "' (expected [A-Za-z0-9_.-]+)");
    AP_REQUIRE(!it->path.empty(),
               "model slot '" + it->name + "' needs an archive path");
    AP_REQUIRE(std::none_of(models.begin(), it,
                            [&](const ModelSpec& earlier) {
                              return earlier.name == it->name;
                            }),
               "duplicate model slot name '" + it->name + "'");
  }
  for (const ModelSpec& spec : models) {
    add_slot(spec.name, spec.path, load_archive(spec.path));
  }
}

void Daemon::add_slot(const std::string& name, const std::string& path,
                      std::shared_ptr<const core::AutoPowerModel> model) {
  auto& reg = util::MetricsRegistry::global();
  auto slot = std::unique_ptr<ModelSlot>(new ModelSlot{
      name, path, BatchEngine(std::move(model), options_.engine),
      reg.counter("daemon.model." + name + ".requests"),
      reg.counter("daemon.model." + name + ".reloads")});
  if (default_slot_ == nullptr) default_slot_ = slot.get();
  slots_.emplace(name, std::move(slot));
}

Daemon::~Daemon() {
  for (int& fd : stop_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

std::uint16_t Daemon::port() const noexcept { return listener_->port(); }

void Daemon::notify_stop() noexcept {
  // Async-signal-safe: write(2) only.  One byte is enough; extra bytes
  // from repeated signals are harmless (the accept loop drains the pipe
  // and acts once per wake-up; 's' always wins over 'h').
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
}

void Daemon::notify_reload() noexcept {
  // Same pipe as notify_stop with a distinct byte: the acceptor thread
  // wakes, re-reads every disk-backed archive and enqueues the swaps.
  const char byte = 'h';
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
}

std::vector<std::string> Daemon::model_names() const {
  std::vector<std::string> out;
  out.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) out.push_back(name);
  return out;
}

Daemon::ModelSlot* Daemon::find_slot(const std::string& name) const {
  if (name.empty()) return default_slot_;
  const auto it = slots_.find(name);
  return it == slots_.end() ? nullptr : it->second.get();
}

Daemon::Stats Daemon::stats() const noexcept {
  Stats out;
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.active = active_.load(std::memory_order_relaxed);
  out.requests = requests_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  out.net_errors = net_errors_.load(std::memory_order_relaxed);
  return out;
}

void Daemon::serve() {
  if (!listener_->open()) fail("serve() called on a drained daemon");
  dispatcher_ = std::thread([this] { dispatch_loop(); });

  for (;;) {
    net::Socket client;
    try {
      client = listener_->accept(stop_pipe_[0]);
    } catch (const util::Error&) {
      // Transient accept failure (serve.net.accept fault, EMFILE, ...):
      // count it and keep serving — an accept hiccup must never take
      // the daemon down.
      net_errors_.fetch_add(1, std::memory_order_relaxed);
      metrics_.net_errors.inc();
      continue;
    }
    if (!client.valid()) {
      // The signal pipe woke us.  Drain it and decide: any 's' wins and
      // starts the drain; only-'h' bytes mean SIGHUP-style reload-all.
      char buf[64];
      const ssize_t n = ::read(stop_pipe_[0], buf, sizeof(buf));
      bool stop = n <= 0;  // a dead pipe can only mean shutdown
      bool reload = false;
      for (ssize_t i = 0; i < n; ++i) {
        if (buf[i] == 'h') reload = true;
        else stop = true;
      }
      if (stop) break;
      if (reload) reload_all_slots();
      continue;
    }

    reap_finished(/*join_all=*/false);

    if (active_.load(std::memory_order_relaxed) >= options_.max_connections) {
      BatchResponse refusal;
      refusal.ok = false;
      refusal.error = "too_many_connections";
      try {
        net::write_line(client.fd(), response_to_jsonl(refusal));
      } catch (const util::Error&) {
        // Client is already gone; nothing to refuse.
      }
      continue;  // Socket destructor closes the connection
    }

    accepted_.fetch_add(1, std::memory_order_relaxed);
    metrics_.connections.inc();
    const std::uint64_t now_active =
        active_.fetch_add(1, std::memory_order_relaxed) + 1;
    metrics_.active_connections.set(static_cast<double>(now_active));

    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(client);
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_.emplace(conn->id, std::move(conn));
    }
    // Registered before the thread starts so the dispatcher's drain
    // predicate (`reading_handlers_ == 0`) can never observe "no
    // readers" while this connection is about to enqueue work.
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      ++reading_handlers_;
    }
    raw->thread = std::thread([this, raw] { handle_connection(*raw); });
  }

  // Graceful drain, two phases.
  //
  // Phase 1 — stop the world politely: close the listener (load
  // balancers now see refused connects), flip draining_ so readers
  // answer new compute/reload lines with {"error": "draining"} while
  // health keeps responding with "status": "draining", and wait for
  // every already-admitted request to be popped AND delivered.  Clients
  // that sent work before the drain get every response.
  draining_.store(true, std::memory_order_seq_cst);
  listener_->close();
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drain_cv_.wait(lock, [this] {
      return queue_.empty() && inflight_batches_ == 0;
    });
  }

  // Phase 2 — half-close every client for reading (wakes blocked
  // readers with EOF; buffered lines are still parsed — and, being
  // post-drain, answered "draining" — and their send direction stays
  // open so queued responses still flush), then let the pipeline run
  // dry.  A reader that raced one last line past phase 1 is still
  // served: the dispatcher only exits once every reader is done.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) conn->sock.shutdown_read();
  }
  queue_cv_.notify_all();
  reap_finished(/*join_all=*/true);  // joins every reader (waits for flush)
  if (dispatcher_.joinable()) dispatcher_.join();
  metrics_.queue_depth.set(0.0);
}

void Daemon::handle_connection(Connection& conn) {
  net::LineReader reader(conn.sock.fd());
  std::string line;
  std::uint64_t seq = 0;
  try {
    while (reader.next_line(line)) {
      // Blank lines are skipped without consuming a sequence number —
      // exactly read_requests() behaviour, which keeps daemon response
      // indices bit-identical to `autopower batch` for the same stream.
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      const Clock::time_point arrival = Clock::now();

      DaemonRequest request;
      try {
        request = daemon_request_from_jsonl(line);
      } catch (const util::Error& e) {
        BatchResponse bad;
        bad.index = seq;
        bad.ok = false;
        bad.error = e.what();
        deliver(conn, seq, response_to_jsonl(bad), /*admitted=*/false);
        ++seq;
        continue;
      }

      if (request.kind == DaemonRequest::Kind::kControl) {
        if (request.cmd == "reload") {
          handle_reload(conn, seq, request.model);
        } else {
          deliver(conn, seq, control_response_line(seq, request.cmd),
                  /*admitted=*/false);
        }
        ++seq;
        continue;
      }

      requests_.fetch_add(1, std::memory_order_relaxed);
      metrics_.requests.inc();

      // Draining gate (phase 1): the listener is closed, but clients that
      // connected earlier may still send.  New work is refused with a
      // structured error so load balancers retry elsewhere; responses for
      // already-admitted requests keep flowing.
      if (draining_.load(std::memory_order_relaxed)) {
        BatchResponse refused;
        refused.index = seq;
        refused.config = request.request.config;
        refused.workload = request.request.workload;
        refused.mode = request.request.mode;
        refused.ok = false;
        refused.error = "draining";
        deliver(conn, seq, response_to_jsonl(refused), /*admitted=*/false);
        ++seq;
        continue;
      }

      // Model routing: an unknown slot is a client error answered in
      // place — it never occupies a queue slot.
      ModelSlot* slot = find_slot(request.model);
      if (slot == nullptr) {
        metrics_.unknown_model.inc();
        BatchResponse unknown;
        unknown.index = seq;
        unknown.config = request.request.config;
        unknown.workload = request.request.workload;
        unknown.mode = request.request.mode;
        unknown.ok = false;
        unknown.error = "unknown_model";
        deliver(conn, seq, response_to_jsonl(unknown), /*admitted=*/false);
        ++seq;
        continue;
      }
      slot->requests.inc();

      bool forced_full = false;
#if defined(AUTOPOWER_FAULT_INJECTION)
      // serve.daemon.admit: deterministically exercise the shed path.
      // Real queue-full is timing-dependent; the fault site makes the
      // admission decision itself injectable.
      forced_full = util::fault::should_fail("serve.daemon.admit");
#endif
      bool admitted = false;
      if (!forced_full) {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (queue_.size() < options_.queue_depth) {
          Work work;
          work.kind = Work::Kind::kCompute;
          work.conn = &conn;
          work.seq = seq;
          work.slot = slot;
          work.request = request.request;
          work.arrival = arrival;
          work.has_deadline = request.has_deadline;
          if (request.has_deadline) {
            work.deadline =
                arrival + std::chrono::milliseconds(request.deadline_ms);
          }
          {
            std::lock_guard<std::mutex> conn_lock(conn.mu);
            ++conn.outstanding;
          }
          queue_.push_back(std::move(work));
          metrics_.queue_depth.set(static_cast<double>(queue_.size()));
          admitted = true;
        }
      }
      if (admitted) {
        queue_cv_.notify_one();
      } else {
        shed_.fetch_add(1, std::memory_order_relaxed);
        metrics_.shed.inc();
        BatchResponse overloaded;
        overloaded.index = seq;
        overloaded.config = request.request.config;
        overloaded.workload = request.request.workload;
        overloaded.mode = request.request.mode;
        overloaded.ok = false;
        overloaded.error = "overloaded";
        deliver(conn, seq, response_to_jsonl(overloaded), /*admitted=*/false);
      }
      ++seq;
    }
  } catch (const util::Error&) {
    // serve.net.read fault or a torn connection: close this connection
    // cleanly; the daemon itself keeps serving everyone else.
    net_errors_.fetch_add(1, std::memory_order_relaxed);
    metrics_.net_errors.inc();
  }

  // Reading is over: let the dispatcher's drain predicate make progress.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    --reading_handlers_;
  }
  queue_cv_.notify_all();

  // Every admitted request still owes this connection a response; wait
  // until the dispatcher delivered them all (deliver() flushes the
  // reorder buffer in order, so outstanding == 0 implies ready.empty()).
  {
    std::unique_lock<std::mutex> lock(conn.mu);
    conn.cv.wait(lock, [&conn] { return conn.outstanding == 0; });
  }
  conn.sock.shutdown_both();  // FIN; the fd closes when the acceptor reaps

  // Discard any bytes that landed after we stopped reading (e.g. a
  // request racing the drain): closing an fd with unread inbound data
  // makes the kernel send RST, which would destroy responses still
  // sitting in the client's receive buffer.  recv after SHUT_RD returns
  // queued data first and then 0, so this never blocks.
  char scratch[4096];
  while (::recv(conn.sock.fd(), scratch, sizeof(scratch), 0) > 0) {
  }

  const std::uint64_t now_active =
      active_.fetch_sub(1, std::memory_order_relaxed) - 1;
  metrics_.active_connections.set(static_cast<double>(now_active));
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    finished_.push_back(conn.id);  // must be the reader's last touch of conn
  }
}

void Daemon::handle_reload(Connection& conn, std::uint64_t seq,
                           const std::string& model_name) {
  const std::string display =
      model_name.empty() ? default_slot_->name : model_name;
  const auto error_line = [&](const std::string& error) {
    return "{\"index\": " + std::to_string(seq) +
           ", \"cmd\": \"reload\", \"ok\": false, \"model\": \"" +
           json_escape(display) + "\", \"error\": \"" + json_escape(error) +
           "\"}";
  };

  if (draining_.load(std::memory_order_relaxed)) {
    deliver(conn, seq, error_line("draining"), /*admitted=*/false);
    return;
  }
  ModelSlot* slot = find_slot(model_name);
  if (slot == nullptr) {
    metrics_.unknown_model.inc();
    deliver(conn, seq, error_line("unknown_model"), /*admitted=*/false);
    return;
  }
  if (slot->path.empty()) {
    deliver(conn, seq,
            error_line("model slot '" + slot->name +
                       "' has no backing archive"),
            /*admitted=*/false);
    return;
  }
  // The archive re-read happens HERE, on the requesting reader thread —
  // a slow disk must stall neither the dispatcher nor other clients.  A
  // failed load answers in place and swaps nothing.
  std::shared_ptr<const core::AutoPowerModel> loaded;
  try {
    loaded = load_archive(slot->path);
  } catch (const std::exception& e) {
    deliver(conn, seq, error_line(e.what()), /*admitted=*/false);
    return;
  }
  std::string ok_line = "{\"index\": " + std::to_string(seq) +
                        ", \"cmd\": \"reload\", \"ok\": true, \"model\": \"" +
                        json_escape(slot->name) + "\", \"fingerprint\": \"" +
                        loaded->fingerprint() + "\"}";
  enqueue_swap(*slot, std::move(loaded), &conn, seq, std::move(ok_line));
}

void Daemon::reload_all_slots() {
  // SIGHUP semantics: best-effort reload of every disk-backed slot.  The
  // acceptor thread does the archive reads (it is otherwise idle between
  // accepts); a slot whose load fails keeps serving its old snapshot.
  for (auto& [name, slot] : slots_) {
    if (slot->path.empty()) continue;  // in-memory slot
    try {
      enqueue_swap(*slot, load_archive(slot->path), nullptr, 0, {});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "autopower serve: reload of model '%s' failed: %s\n",
                   name.c_str(), e.what());
    }
  }
}

void Daemon::enqueue_swap(ModelSlot& slot,
                          std::shared_ptr<const core::AutoPowerModel> model,
                          Connection* conn, std::uint64_t seq,
                          std::string response_line) {
  // Swaps bypass the queue-depth bound: shedding a reload under load
  // would make the one operation meant to fix a bad model depend on the
  // very congestion it may be causing.  At most a handful are ever
  // queued (one per reload command / SIGHUP slot).
  if (conn != nullptr) {
    std::lock_guard<std::mutex> conn_lock(conn->mu);
    ++conn->outstanding;
  }
  Work work;
  work.kind = Work::Kind::kSwap;
  work.conn = conn;
  work.seq = seq;
  work.slot = &slot;
  work.new_model = std::move(model);
  work.response_line = std::move(response_line);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(work));
    metrics_.queue_depth.set(static_cast<double>(queue_.size()));
  }
  queue_cv_.notify_one();
}

void Daemon::dispatch_loop() {
  std::vector<Work> batch;
  std::vector<BatchRequest> requests;
  std::vector<Work*> live;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() ||
               (draining_.load(std::memory_order_relaxed) &&
                reading_handlers_ == 0);
      });
      if (queue_.empty()) return;  // draining and no reader can enqueue
      // A swap is a batch of its own: batch formation never crosses one,
      // so requests admitted before a reload can only ever be evaluated
      // by the pre-swap snapshot and requests after by the new one.
      if (queue_.front().kind == Work::Kind::kSwap) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      } else {
        const std::size_t take = std::min(options_.max_batch, queue_.size());
        while (batch.size() < take &&
               queue_.front().kind == Work::Kind::kCompute) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
          if (queue_.empty()) break;
        }
      }
      ++inflight_batches_;
      metrics_.queue_depth.set(static_cast<double>(queue_.size()));
    }

    process_batch(batch, requests, live);

    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      --inflight_batches_;
      if (draining_.load(std::memory_order_relaxed) && queue_.empty() &&
          inflight_batches_ == 0) {
        drain_cv_.notify_all();
      }
    }
  }
}

void Daemon::process_batch(std::vector<Work>& batch,
                           std::vector<BatchRequest>& requests,
                           std::vector<Work*>& live) {
  if (batch.front().kind == Work::Kind::kSwap) {
    Work& work = batch.front();
    // Publish atomically; in-flight engine runs finish on the snapshot
    // they pinned (RCU by shared_ptr), new batches see the new model.
    work.slot->engine.swap_model(std::move(work.new_model));
    work.slot->reloads.inc();
    if (work.conn != nullptr) {
      deliver(*work.conn, work.seq, std::move(work.response_line),
              /*admitted=*/true);
    }
    return;
  }

  // Deadline gate: expired requests are answered here and never reach
  // an engine worker.  Re-checked HERE — after the queue wait — because
  // a deadline that expired while the request sat in the admission
  // queue must be answered "deadline exceeded", not computed.
  const Clock::time_point now = Clock::now();
  requests.clear();
  live.clear();
  for (Work& work : batch) {
    if (work.has_deadline && now >= work.deadline) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      metrics_.deadline_expired.inc();
      BatchResponse expired;
      expired.index = work.seq;
      expired.config = work.request.config;
      expired.workload = work.request.workload;
      expired.mode = work.request.mode;
      expired.ok = false;
      expired.error = "deadline exceeded";
      deliver(*work.conn, work.seq, response_to_jsonl(expired),
              /*admitted=*/true);
    } else {
      live.push_back(&work);
    }
  }
  if (live.empty()) return;

  // Partition by model slot, preserving first-appearance order (the
  // reorder buffer restores per-connection order either way; stable
  // grouping just keeps the execution deterministic).  The common case
  // — every request on the default slot — stays one engine run.
  std::vector<std::pair<ModelSlot*, std::vector<Work*>>> groups;
  for (Work* work : live) {
    ModelSlot* slot = work->slot;
    auto it = std::find_if(groups.begin(), groups.end(),
                           [slot](const auto& g) { return g.first == slot; });
    if (it == groups.end()) {
      groups.emplace_back(slot, std::vector<Work*>{});
      it = std::prev(groups.end());
    }
    it->second.push_back(work);
  }

  for (auto& [slot, works] : groups) {
    requests.clear();
    for (const Work* work : works) requests.push_back(work->request);

    std::vector<BatchResponse> responses;
    try {
      responses = slot->engine.run(requests);
    } catch (const std::exception& e) {
      // The engine isolates per-request failures; reaching here means
      // the whole batch failed (e.g. serial-path model error).  Every
      // admitted request still gets a structured answer — a resident
      // daemon never drops a response on the floor.
      for (Work* work : works) {
        BatchResponse failed;
        failed.index = work->seq;
        failed.config = work->request.config;
        failed.workload = work->request.workload;
        failed.mode = work->request.mode;
        failed.ok = false;
        failed.error = e.what();
        deliver(*work->conn, work->seq, response_to_jsonl(failed),
                /*admitted=*/true);
      }
      continue;
    }

    for (std::size_t i = 0; i < works.size(); ++i) {
      Work* work = works[i];
      // The engine numbers responses by batch position; rewrite to the
      // per-connection sequence so clients see `batch`-identical indices.
      responses[i].index = work->seq;
      metrics_.request_latency_ns.observe(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               work->arrival)
              .count()));
      deliver(*work->conn, work->seq, response_to_jsonl(responses[i]),
              /*admitted=*/true);
    }
  }
}

void Daemon::deliver(Connection& conn, std::uint64_t seq, std::string line,
                     bool admitted) {
  std::lock_guard<std::mutex> lock(conn.mu);
  conn.ready.emplace(seq, std::move(line));
  while (!conn.ready.empty() &&
         conn.ready.begin()->first == conn.next_write) {
    const auto it = conn.ready.begin();
    if (!conn.write_failed) {
      try {
        net::write_line(conn.sock.fd(), it->second);
      } catch (const util::Error&) {
        // serve.net.write fault or dead peer: tear down only this
        // connection.  shutdown_both() wakes its (possibly blocked)
        // reader with EOF; later responses are dropped silently since
        // nobody can receive them.
        conn.write_failed = true;
        net_errors_.fetch_add(1, std::memory_order_relaxed);
        metrics_.net_errors.inc();
        conn.sock.shutdown_both();
      }
    }
    conn.ready.erase(it);
    ++conn.next_write;
  }
  if (admitted) {
    --conn.outstanding;
    conn.cv.notify_all();
  }
}

std::string Daemon::control_response_line(std::uint64_t seq,
                                          const std::string& cmd) {
  std::string out = "{\"index\": " + std::to_string(seq) + ", \"cmd\": \"" +
                    cmd + "\", \"ok\": true";
  if (cmd == "health") {
    std::size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      depth = queue_.size();
    }
    out += ", \"status\": \"";
    out += draining_.load(std::memory_order_relaxed) ? "draining" : "serving";
    out += "\", \"connections\": " +
           std::to_string(active_.load(std::memory_order_relaxed));
    out += ", \"queue_depth\": " + std::to_string(depth);
    out += ", \"models\": " + std::to_string(slots_.size());
    // Numeric tier (0 scalar / 2 avx2), not the name: golden
    // snapshots normalise numbers, so the schema stays host-independent.
    out += ", \"simd_tier\": " + std::to_string(static_cast<int>(
                                     util::simd::active_tier()));
  } else {
    out += ", \"metrics\": " + util::MetricsRegistry::global().to_json();
  }
  out += "}";
  return out;
}

void Daemon::reap_finished(bool join_all) {
  std::vector<std::unique_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    if (join_all) {
      for (auto& [id, conn] : conns_) dead.push_back(std::move(conn));
      conns_.clear();
    } else {
      for (const std::uint64_t id : finished_) {
        const auto it = conns_.find(id);
        if (it != conns_.end()) {
          dead.push_back(std::move(it->second));
          conns_.erase(it);
        }
      }
    }
    finished_.clear();
  }
  // Join outside conns_mu_: a reader's last action takes conns_mu_ to
  // mark itself finished, so joining under the lock would deadlock.
  for (auto& conn : dead) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

}  // namespace autopower::serve
