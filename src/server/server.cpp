#include "server/server.h"

#include <sys/socket.h>

#include <chrono>
#include <optional>
#include <sstream>
#include <thread>

#include "base/fault.h"
#include "obs/metrics.h"

namespace bridge::server {

namespace {

struct ServerMetrics {
  obs::Counter& requests =
      obs::Registry::global().counter("server.requests");
  obs::Counter& errors = obs::Registry::global().counter("server.errors");
  obs::Counter& connections =
      obs::Registry::global().counter("server.connections");
  obs::Histogram& request_ms =
      obs::Registry::global().histogram("server.request_ms");
  // Per synthesize request: Json::parse plus SynthesisRequest::decode,
  // and SynthesisResult::encode plus dump.
  obs::Histogram& decode_ms =
      obs::Registry::global().histogram("server.decode_ms");
  obs::Histogram& encode_ms =
      obs::Registry::global().histogram("server.encode_ms");
  // Per synthesize request that reached dispatch: the wait for a free
  // synthesis slot.
  obs::Histogram& slot_wait_ms =
      obs::Registry::global().histogram("server.slot_wait_ms");
  // Requests holding a slot; the peak never exceeds `workers`.
  obs::Gauge& in_flight = obs::Registry::global().gauge("server.in_flight");
  // Sessions the servers hold (idle or checked out), and cold builds.
  obs::Gauge& sessions = obs::Registry::global().gauge("server.sessions");
  obs::Counter& sessions_built =
      obs::Registry::global().counter("server.sessions_built");

  static ServerMetrics& get() {
    static ServerMetrics m;
    return m;
  }
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Echo the request's "id" (any JSON value) into the response so clients
/// can correlate, then serialize.
std::string finish_response(api::Json response, const api::Json* id) {
  if (id != nullptr) response.set("id", *id);
  return response.dump();
}

/// Sessions are keyed by library *content* (fingerprint), not name:
/// re-registering a library with identical cells — the common "reload the
/// same .lib" retargeting loop — maps back onto its warm session, while
/// any content edit gets a fresh one. The rules flavor rides along
/// because default_rules_for picks rule sets by library, and two
/// content-divergent libraries could otherwise only differ outside the
/// options fingerprint. Best-effort-bounded requests get a segregated
/// session: a deadline that fires mid-expansion leaves truncated
/// best-effort state in the space (documented in tests/deadline_test.cpp),
/// which must never degrade a later full-precision request. Hard
/// deadlines are safe to share — expiry throws with strong exception
/// safety.
std::string session_key(const api::SynthesisRequest& req,
                        const cells::CellLibrary& library) {
  const bool truncating =
      req.options.deadline_ms > 0 && req.options.deadline_best_effort;
  std::ostringstream key;
  key << "fp:" << std::hex << library.fingerprint() << std::dec
      << "|rules:" << dtas::default_rules_flavor(library) << "|"
      << req.options.fingerprint() << (truncating ? "|best-effort" : "");
  return key.str();
}

}  // namespace

SynthesisServer::SynthesisServer(const cells::LibraryRegistry& registry,
                                 ServerOptions options)
    : registry_(registry), options_(std::move(options)) {
  workers_ = options_.workers;
  if (workers_ <= 0) {
    workers_ = static_cast<int>(std::thread::hardware_concurrency());
  }
  if (workers_ < 1) workers_ = 1;
  free_slots_ = workers_;
}

SynthesisServer::~SynthesisServer() { stop(); }

std::string SynthesisServer::endpoint() const {
  if (!options_.unix_path.empty()) return "unix:" + options_.unix_path;
  return "tcp:" + std::to_string(port_);
}

void SynthesisServer::start() {
  if (running_.load()) return;
  if (!options_.unix_path.empty()) {
    listen_fd_ = listen_unix(options_.unix_path);
  } else {
    port_ = options_.tcp_port;
    listen_fd_ = listen_tcp(port_);
  }
  started_at_ = std::chrono::steady_clock::now();
  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SynthesisServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Unblock the accept thread, then every parked reader; cancel whatever
  // is mid-synthesis so workers come back quickly.
  shutdown_socket(listen_fd_);
  {
    base::LockGuard lock(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->cancel != nullptr) conn->cancel->request_cancel();
      shutdown_socket(conn->fd);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Join readers without holding conns_mu_: an exiting reader takes that
  // lock to close its fd, so joining under it would deadlock.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    base::LockGuard lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  conns.clear();
  close_socket(listen_fd_);
  listen_fd_ = -1;
  // Every request ran on a joined reader, so every session is idle.
  // Sessions (and their warm caches) die with the server, not with a
  // connection.
  {
    base::LockGuard lock(sessions_mu_);
    long dropped = 0;
    for (const auto& [key, idle] : idle_sessions_) {
      dropped += static_cast<long>(idle.size());
    }
    idle_sessions_.clear();
    ServerMetrics::get().sessions.add(-dropped);
  }
  request_shutdown();  // release any wait()ers
}

void SynthesisServer::wait() {
  base::UniqueLock lock(shutdown_mu_);
  while (!shutdown_requested_) shutdown_cv_.wait(lock);
}

void SynthesisServer::request_shutdown() {
  {
    base::LockGuard lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void SynthesisServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;  // listener broken; stop accepting
    }
    set_tcp_nodelay(fd);
    if (stopping_.load()) {
      close_socket(fd);
      return;
    }
    ServerMetrics::get().connections.add(1);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->cancel = std::make_shared<base::CancelToken>();
    Connection* raw = conn.get();
    base::LockGuard lock(conns_mu_);
    conns_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { serve_connection(raw); });
  }
}

void SynthesisServer::serve_connection(Connection* conn) {
  std::string payload;
  for (;;) {
    try {
      if (!read_frame(conn->fd, payload, options_.max_frame_bytes)) break;
    } catch (const FrameTooLarge& e) {
      // Answer from the header alone, then close: the payload was never
      // read, so the stream position is unrecoverable.
      try {
        write_frame(conn->fd,
                    api::SynthesisResult::make_error("error", e.what())
                        .to_json());
      } catch (const Error&) {
      }
      break;
    } catch (const Error&) {
      break;  // transport failure (or stop() shut the socket down)
    }
    bool shutdown_after = false;
    const std::string response =
        handle_message(payload, conn->cancel, shutdown_after);
    try {
      write_frame(conn->fd, response);
    } catch (const Error&) {
      break;  // client went away mid-response; drop the connection
    }
    if (shutdown_after) {
      request_shutdown();
      break;
    }
  }
  base::LockGuard lock(conns_mu_);
  close_socket(conn->fd);
  conn->fd = -1;
}

std::string SynthesisServer::handle_message(
    const std::string& payload,
    const std::shared_ptr<base::CancelToken>& cancel, bool& shutdown_after) {
  ServerMetrics& metrics = ServerMetrics::get();
  const auto parse_t0 = std::chrono::steady_clock::now();
  api::Json msg;
  try {
    msg = api::Json::parse(payload);
  } catch (const Error& e) {
    errors_.fetch_add(1);
    metrics.errors.add(1);
    return api::SynthesisResult::make_error("error", e.what()).to_json();
  }
  const double parse_ms = ms_since(parse_t0);
  const api::Json* id = msg.find("id");
  const std::string method = msg.str_or("method", "synthesize");

  if (method == "health") {
    api::Json j = api::Json::object();
    j.set("method", "health")
        .set("status", "ok")
        .set("uptime_ms", ms_since(started_at_))
        .set("requests", requests_.load())
        .set("errors", errors_.load())
        .set("workers", workers_);
    api::Json libs = api::Json::array();
    for (const std::string& name : registry_.names()) libs.push_back(name);
    j.set("libraries", std::move(libs));
    return finish_response(std::move(j), id);
  }
  if (method == "metrics") {
    api::Json j = api::Json::object();
    j.set("method", "metrics").set("status", "ok");
    // The registry snapshot serializes itself; re-parse to embed it as a
    // value rather than a quoted string.
    j.set("metrics",
          api::Json::parse(obs::Registry::global().snapshot().to_json()));
    return finish_response(std::move(j), id);
  }
  if (method == "shutdown") {
    shutdown_after = true;
    api::Json j = api::Json::object();
    j.set("method", "shutdown").set("status", "ok");
    return finish_response(std::move(j), id);
  }
  if (method != "synthesize") {
    errors_.fetch_add(1);
    metrics.errors.add(1);
    return finish_response(
        api::SynthesisResult::make_error("error",
                                         "unknown method '" + method + "'")
            .encode(),
        id);
  }

  const auto t0 = std::chrono::steady_clock::now();
  api::SynthesisResult result;
  std::optional<api::SynthesisRequest> req;
  try {
    req = api::SynthesisRequest::decode(msg);
  } catch (const std::exception& e) {
    result = api::SynthesisResult::make_error("error", e.what());
  }
  metrics.decode_ms.record(parse_ms + ms_since(t0));
  if (req.has_value()) {
    try {
      result = dispatch_synthesize(*req, cancel);
    } catch (const std::exception& e) {
      result = api::SynthesisResult::make_error("error", e.what());
    }
  }
  result.server_ms = ms_since(t0);
  requests_.fetch_add(1);
  metrics.requests.add(1);
  metrics.request_ms.record(result.server_ms);
  if (!result.ok()) {
    errors_.fetch_add(1);
    metrics.errors.add(1);
  }
  const auto encode_t0 = std::chrono::steady_clock::now();
  std::string response = finish_response(result.encode(), id);
  metrics.encode_ms.record(ms_since(encode_t0));
  return response;
}

api::SynthesisResult SynthesisServer::dispatch_synthesize(
    const api::SynthesisRequest& req,
    const std::shared_ptr<base::CancelToken>& cancel) {
  // The reader runs its own request, so each connection has exactly one
  // request in flight and responses keep request order.
  ServerMetrics& metrics = ServerMetrics::get();
  const auto wait_t0 = std::chrono::steady_clock::now();
  base::UniqueLock lock(slots_mu_);
  while (free_slots_ == 0) slots_cv_.wait(lock);
  --free_slots_;
  lock.unlock();
  struct SlotRelease {
    SynthesisServer& server;
    ~SlotRelease() {
      // Leave the gauge before the slot is free, so its peak never
      // exceeds the slot count.
      ServerMetrics::get().in_flight.add(-1);
      {
        base::LockGuard lock(server.slots_mu_);
        ++server.free_slots_;
      }
      server.slots_cv_.notify_one();
    }
  } release{*this};
  metrics.in_flight.add(1);
  metrics.slot_wait_ms.record(ms_since(wait_t0));
  return run_in_session(req, cancel);
}

api::SynthesisResult SynthesisServer::run_in_session(
    const api::SynthesisRequest& req,
    const std::shared_ptr<base::CancelToken>& cancel) {
  try {
    // Deterministic fault-injection probe: an armed fault here takes the
    // same path as any failing request — an error response, never a
    // lost slot (tests/server_test.cpp pins this).
    base::FaultInjector::global().probe("server.request");
    const cells::CellLibrary* library = registry_.find(req.library);
    if (library == nullptr) {
      registry_.at(req.library);  // throws, listing the known names
    }
    const std::string key = session_key(req, *library);
    std::unique_ptr<dtas::Synthesizer> session;
    {
      base::LockGuard lock(sessions_mu_);
      auto it = idle_sessions_.find(key);
      if (it != idle_sessions_.end() && !it->second.empty()) {
        session = std::move(it->second.back());
        it->second.pop_back();
      }
    }
    if (session == nullptr) {
      session = api::make_session(req, *library);
      ServerMetrics::get().sessions_built.add(1);
      ServerMetrics::get().sessions.add(1);
    }
    // Install this connection's kill switch; run_request then layers the
    // request's deadline on top of it.
    session->space().set_deadline_policy(req.options.deadline_ms,
                                         req.options.deadline_best_effort,
                                         cancel);
    api::SynthesisResult result = api::run_request(req, *session);
    {
      base::LockGuard lock(sessions_mu_);
      idle_sessions_[key].push_back(std::move(session));
    }
    return result;
  } catch (const std::exception& e) {
    return api::SynthesisResult::make_error("error", e.what());
  }
}

}  // namespace bridge::server
