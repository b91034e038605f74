// Synthesis-as-a-service: a concurrent session server over the api layer.
//
// One process-long daemon amortizes the warm state the paper's one-shot
// flow rebuilds per run: the process-wide dtas::TemplateCache (shared by
// every session) and a shared pool of dtas::Synthesizer sessions keyed
// by (library content, space-shaping options) — so requests asking for
// the same kind of synthesis hit fully warm template and extraction
// caches after the first one, whichever connection they arrive on, and
// fronts stay byte-identical to in-process synthesis
// (bench_server_throughput gates on both).
//
// Threading model:
//  - one accept thread;
//  - one reader thread per connection, handling health / metrics /
//    shutdown inline and running each synthesize request itself once it
//    holds one of `workers` synthesis slots, so at most `workers`
//    syntheses run at once;
//  - one session pool under one mutex: a request checks out an idle
//    session for its key (building one, outside the lock, on a miss),
//    runs on it alone and checks it back in. A session serves one
//    request at a time, and at most `workers` sessions exist per key.
//
// A connection has at most one request in flight (responses are written
// in request order), so client concurrency is connection concurrency.
// Each connection owns a base::CancelToken installed into the session's
// deadline policy for the duration of its requests: stop() cancels them
// all, so shutdown never waits out a long synthesis.
#pragma once

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "base/annotations.h"
#include "base/cancel.h"
#include "cells/registry.h"
#include "server/protocol.h"

namespace bridge::server {

struct ServerOptions {
  /// Non-empty: listen on this Unix-domain socket path (takes precedence
  /// over TCP).
  std::string unix_path;
  /// TCP loopback port; 0 picks an ephemeral port (read it back via
  /// port() after start()).
  int tcp_port = 0;
  /// Synthesis slots: how many requests synthesize at once; 0 = hardware
  /// concurrency. At least 1.
  int workers = 0;
  /// Per-frame payload cap (see protocol.h).
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class SynthesisServer {
 public:
  /// `registry` must outlive the server; it is shared with any other
  /// in-process users (thread-safe by its own contract).
  SynthesisServer(const cells::LibraryRegistry& registry,
                  ServerOptions options);
  ~SynthesisServer();
  SynthesisServer(const SynthesisServer&) = delete;
  SynthesisServer& operator=(const SynthesisServer&) = delete;

  /// Bind and begin accepting. Throws Error when the socket can't be
  /// set up. Returns once the endpoint is live (port() is valid).
  void start();

  /// Stop accepting, cancel in-flight requests, unblock and join every
  /// connection, drop the sessions. Idempotent.
  void stop();

  /// Block until a client's shutdown request (or stop()) arrives.
  void wait();

  bool running() const { return running_.load(); }
  /// Bound TCP port (after start(); 0 in Unix-socket mode).
  int port() const { return port_; }
  /// Human-readable endpoint ("unix:PATH" or "tcp:PORT").
  std::string endpoint() const;

  long requests_handled() const { return requests_.load(); }
  long errors_returned() const { return errors_.load(); }

 private:
  struct Connection {
    int fd = -1;
    std::shared_ptr<base::CancelToken> cancel;
    std::thread thread;
  };

  void accept_loop();
  void serve_connection(Connection* conn);
  /// One frame in, one response payload out. Sets `shutdown_after` when
  /// the message was a shutdown request (reply first, then stop).
  std::string handle_message(const std::string& payload,
                             const std::shared_ptr<base::CancelToken>& cancel,
                             bool& shutdown_after);
  /// Wait for a free synthesis slot, run the request on the calling
  /// thread, and free the slot on every path out.
  api::SynthesisResult dispatch_synthesize(
      const api::SynthesisRequest& req,
      const std::shared_ptr<base::CancelToken>& cancel);
  /// Holding a slot: check out (or build) a session for the request's
  /// key, execute, and check the session back in.
  api::SynthesisResult run_in_session(
      const api::SynthesisRequest& req,
      const std::shared_ptr<base::CancelToken>& cancel);
  void request_shutdown();

  const cells::LibraryRegistry& registry_;
  ServerOptions options_;
  int workers_ = 1;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  base::Mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_ BRIDGE_GUARDED_BY(conns_mu_);

  base::Mutex slots_mu_;
  base::CondVar slots_cv_;
  int free_slots_ BRIDGE_GUARDED_BY(slots_mu_) = 0;

  /// Idle sessions by key; a checked-out session is in no vector.
  base::Mutex sessions_mu_;
  std::map<std::string, std::vector<std::unique_ptr<dtas::Synthesizer>>>
      idle_sessions_ BRIDGE_GUARDED_BY(sessions_mu_);

  base::Mutex shutdown_mu_;
  base::CondVar shutdown_cv_;
  bool shutdown_requested_ BRIDGE_GUARDED_BY(shutdown_mu_) = false;

  std::chrono::steady_clock::time_point started_at_{};
  std::atomic<long> requests_{0};
  std::atomic<long> errors_{0};
};

}  // namespace bridge::server
