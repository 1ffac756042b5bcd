#pragma once

/// \file event_loop.h
/// \brief Loopback TCP front-end for ForecastServer (DESIGN.md §8). A
/// blocking accept thread starts one thread per connection; that thread
/// reads and frames lines, runs the handler and writes the reply before it
/// reads on. A request therefore makes no thread hop, and the connection's
/// own thread is the caller that admission queues, sheds or grants.
/// The connection thread reads only when no complete line is buffered, so a
/// peer that pipelines faster than it is answered fills its own socket
/// buffer (TCP flow control is the pipelining backpressure).
///
/// Wire protocol is unchanged from PR 2: one line-delimited JSON request in,
/// one response line out, pipelining allowed; responses on a connection are
/// returned in request order. Binds 127.0.0.1 only.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "serve/server.h"

namespace easytime::serve {

/// \brief The thread-per-connection front-end. Start() spins up the accept
/// thread; Stop() drains (in-flight requests finish, their responses flush,
/// pipelined lines not yet started are abandoned) within drain_timeout_ms,
/// then closes everything. Stop is terminal.
class EventLoopServer {
 public:
  struct Options {
    uint16_t port = 0;       ///< 0 picks an ephemeral port (see port())
    int backlog = 64;
    size_t max_connections = 64;  ///< accept waits at the cap (excess
                                  ///< connections wait in the listen backlog)
    /// Longest a connection may sit with no traffic and no request in
    /// flight before the server closes it. 0 disables the timeout.
    double idle_timeout_ms = 0.0;
    /// A line that grows past this many bytes without a newline is a
    /// protocol violation: the connection gets one error response and is
    /// closed. 0 derives it from the ForecastServer's max_request_bytes.
    size_t max_line_bytes = 0;
    /// How long Stop() waits for in-flight requests to finish and flush
    /// before force-closing the stragglers.
    double drain_timeout_ms = 5000.0;
    /// Bearer token for connection auth. Empty falls back to the
    /// EASYTIME_AUTH_TOKEN environment variable; if that is also unset,
    /// auth is disabled. With a token configured, the first frame on every
    /// connection must be {"endpoint":"auth","params":{"token":...}} —
    /// anything else gets one Unauthenticated error response and the
    /// connection is closed.
    std::string auth_token;
  };

  /// Front-end counters (connection threads write, anyone reads).
  struct Stats {
    uint64_t accepted = 0;
    uint64_t closed = 0;
    uint64_t idle_closed = 0;      ///< closes from the idle timeout
    uint64_t protocol_errors = 0;  ///< unterminated-line (oversized) closes
    uint64_t auth_failures = 0;    ///< bad/missing first-frame credentials
    uint64_t requests_dispatched = 0;
    uint64_t responses_written = 0;
  };

  /// Executes one framed request line and returns the response line
  /// (without the trailing newline). Runs on the connection's thread.
  using LineHandler = std::function<std::string(const std::string&)>;

  /// The classic front-end: requests go to \p server->HandleLine.
  EventLoopServer(ForecastServer* server, Options options);

  /// \brief Generalized front-end over any line handler — the cluster
  /// router (DESIGN.md §14) reuses the framing and auth handshake without
  /// owning a ForecastServer.
  /// \p max_request_bytes bounds auth-frame parsing and derives the line
  /// cap when Options::max_line_bytes is 0.
  EventLoopServer(LineHandler handler, size_t max_request_bytes,
                  Options options);

  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Binds, listens and starts the accept thread.
  easytime::Status Start();

  /// Graceful drain then shutdown (idempotent, terminal; also run by the
  /// destructor).
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(); }

  Stats stats() const;

  /// Live connection count.
  size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    /// Closed (and set to -1) by the connection thread under mu_, so Stop()
    /// never shuts down a recycled fd. Once -1 the thread is finishing and
    /// may be joined.
    int fd = -1;
    std::thread thread;
  };

  /// Accepts connections and joins the threads of closed ones.
  void AcceptLoop();
  /// The connection thread: frame, execute, reply, repeat.
  void Serve(Conn* conn);
  /// Reads more bytes into \p inbuf. False on EOF, socket error or idle
  /// timeout.
  bool ReadMore(int fd, std::string* inbuf);
  /// Consumes the first frame as the auth handshake and answers it. False
  /// when the connection must close.
  bool Authenticate(int fd, const std::string& line);
  static bool WriteLine(int fd, std::string line);
  void CloseConn(Conn* conn);
  void Bump(uint64_t Stats::*counter);
  size_t LineByteCap() const;

  LineHandler handler_;
  size_t max_request_bytes_ = 0;
  Options options_;
  std::string auth_token_;  ///< resolved (option or env) at Start()
  int listen_fd_ = -1;
  uint16_t port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<size_t> open_connections_{0};  ///< written under mu_
  std::thread accept_thread_;

  mutable std::mutex mu_;
  std::condition_variable closed_cv_;  ///< a connection closed, or Stop()
  /// Every connection thread not yet joined (list nodes never move, so a
  /// connection thread holds a stable Conn*).
  std::list<Conn> conns_;
  Stats stats_;
};

}  // namespace easytime::serve
