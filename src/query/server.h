// Multi-threaded TCP front end for ServeState.
//
// One listening socket, N workers (core::TaskPool — the same pool every
// parallel stage uses) all polling accept: each worker owns the
// connections it accepts and runs them to completion, so requests never
// migrate threads and no per-request state is shared. Replies are a pure
// function of the request (serve.h), which keeps the served bytes
// identical at any worker count.
//
// Two wire formats share the port, disambiguated by the first four bytes
// of a connection: "GET " starts a plain HTTP request (answered once
// with the /metrics bgpatoms-trace/1 document, then closed — curl-able),
// anything else is the little-endian u32 length prefix of a framed JSON
// request ("GET " would be a 5.4 GB frame, far beyond the frame cap, so
// the two cannot collide). Framed connections are persistent: requests
// are answered in order until EOF, idle_timeout_ms without a new frame,
// or a shutdown op, which stops the whole server cleanly (workers notice
// the atomic flag at the next poll tick).
//
// Because a worker owns its connection for the connection's whole life,
// more simultaneously-idle connections than workers starve accept; the
// idle timeout bounds that, and the worker count is floored at 2 (the
// loop is IO-bound, so this holds even on a single-core host where
// resolve_threads would say 1). A client that stops reading its replies
// is dropped once a write makes no progress for one second.
#pragma once

#include <atomic>
#include <cstdint>

#include "query/serve.h"

namespace bgpatoms::query {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
  int port = 0;
  /// Worker threads, resolved via core::resolve_threads (flag > env >
  /// hardware), then floored at 2 so one idle connection can never
  /// starve accept.
  int threads = 0;
  /// Accept-poll tick; bounds how long stop() takes to be noticed.
  int poll_interval_ms = 200;
  /// A persistent connection idle longer than this between frames is
  /// dropped, reclaiming its worker.
  int idle_timeout_ms = 60'000;
  /// Largest accepted request frame.
  std::uint32_t max_frame = 1u << 20;
};

class Server {
 public:
  /// Binds and listens immediately (so port() is valid before run());
  /// throws std::runtime_error on bind failure. `state` must outlive the
  /// server.
  Server(const ServeState& state, const ServerOptions& options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral choice when options.port was 0).
  int port() const { return port_; }

  /// Runs the accept/worker loop; blocks until stop() is called or a
  /// shutdown op arrives.
  void run();

  /// Signals every worker to exit after its current connection; safe
  /// from any thread.
  void stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  void worker_loop();
  void serve_connection(int fd);
  void serve_http_metrics(int fd);

  const ServeState* state_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  int resolved_threads_ = 1;
  std::atomic<bool> stop_{false};
};

}  // namespace bgpatoms::query
