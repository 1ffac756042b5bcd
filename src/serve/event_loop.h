#pragma once

/// \file event_loop.h
/// \brief Epoll-based loopback TCP front-end for ForecastServer
/// (DESIGN.md §8). One event thread owns every socket: nonblocking
/// accept/read/write, per-connection read buffers with line framing, write
/// backpressure (reads pause while a peer's response backlog is over
/// budget), an idle-connection timeout, and a graceful drain on Stop.
/// Request *execution* never runs on the event thread: framed lines are
/// handed to a small handler pool, and responses come back through a
/// mailbox + eventfd wakeup, so one slow request cannot stall the other
/// connections' IO.
///
/// Wire protocol is unchanged from PR 2: one line-delimited JSON request in,
/// one response line out, pipelining allowed; responses on a connection are
/// returned in request order. Binds 127.0.0.1 only.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "serve/server.h"

namespace easytime::serve {

/// \brief The epoll front-end. Start() spins up the event thread and the
/// handler pool; Stop() drains (in-flight requests finish, their responses
/// flush, undispatched pipelined lines are abandoned) within
/// drain_timeout_ms, then closes everything. Stop is terminal.
class EventLoopServer {
 public:
  struct Options {
    uint16_t port = 0;       ///< 0 picks an ephemeral port (see port())
    int backlog = 64;
    size_t max_connections = 64;  ///< accept pauses at the cap (excess
                                  ///< connections wait in the listen backlog)
    size_t num_handler_threads = 4;  ///< request-execution pool
    /// Longest a connection may sit with no traffic and no request in
    /// flight before the loop closes it. 0 disables the timeout.
    double idle_timeout_ms = 0.0;
    /// A line that grows past this many bytes without a newline is a
    /// protocol violation: the connection gets one error response and is
    /// closed. 0 derives it from the ForecastServer's max_request_bytes.
    size_t max_line_bytes = 0;
    /// Write backpressure: once a connection's unflushed response bytes
    /// exceed this, its reads pause until the backlog drains below half.
    size_t max_write_buffer_bytes = 1 << 20;
    /// Per-connection cap on framed-but-not-yet-executed requests; reads
    /// pause at the cap (pipelining backpressure).
    size_t max_pipeline_depth = 64;
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

  /// Event-loop counters (event-thread writes, anyone reads).
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
  /// (without the trailing newline). Runs on the handler pool.
  using LineHandler = std::function<std::string(const std::string&)>;

  /// The classic front-end: requests go to \p server->HandleLine.
  EventLoopServer(ForecastServer* server, Options options);

  /// \brief Generalized front-end over any line handler — the cluster
  /// router (DESIGN.md §14) reuses the epoll loop, framing, backpressure,
  /// and auth handshake without owning a ForecastServer.
  /// \p max_request_bytes bounds auth-frame parsing and derives the line
  /// cap when Options::max_line_bytes is 0.
  EventLoopServer(LineHandler handler, size_t max_request_bytes,
                  Options options);

  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Binds, listens, starts the event thread and handler pool.
  easytime::Status Start();

  /// Graceful drain then shutdown (idempotent, terminal; also run by the
  /// destructor).
  void Stop();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(); }

  Stats stats() const;

  /// Live connection count (event-thread owned; approximate for readers).
  size_t open_connections() const {
    return open_connections_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    std::string inbuf;               ///< unframed bytes
    std::deque<std::string> lines;   ///< framed, awaiting dispatch
    std::string outbuf;              ///< response bytes awaiting the socket
    bool inflight = false;           ///< a handler owns the head request
    bool authed = false;             ///< passed the first-frame token check
    bool eof = false;                ///< peer closed its write side
    bool close_after_flush = false;  ///< protocol violation: answer, close
    bool want_write = false;         ///< EPOLLOUT wanted
    bool reading_paused = false;     ///< EPOLLIN dropped (backpressure/eof)
    bool dead = false;               ///< close at the end of the iteration
    size_t out_off = 0;              ///< flushed prefix of outbuf
    uint32_t armed_events = 0;       ///< last epoll_ctl interest set
    Clock::time_point last_activity;
  };

  /// A handler's result, posted back to the event thread.
  struct Completion {
    uint64_t id = 0;
    std::string response;  ///< newline-terminated
    bool drop = false;     ///< injected serve.tcp.* fault: drop the peer
  };

  void LoopThread();
  void HandleAccept();
  void HandleReadable(Conn& conn);
  void FrameLines(Conn& conn);
  /// Consumes the connection's first frame as the auth handshake when a
  /// token is configured. Returns false when the connection may not
  /// dispatch further (handshake pending or failed).
  bool CheckAuth(Conn& conn);
  void MaybeDispatch(Conn& conn);
  void FlushWrite(Conn& conn);
  void UpdateInterest(Conn& conn);
  /// Marks the connection dead once it has nothing left to do.
  void CloseIfDrained(Conn& conn);
  void CloseDead();
  void DrainMailbox();
  void SweepIdle(Clock::time_point now);
  void PostCompletion(Completion c);
  void WakeLoop();
  void PauseAccept();
  void ResumeAccept();
  size_t LineByteCap() const;

  LineHandler handler_;
  size_t max_request_bytes_ = 0;
  Options options_;
  std::string auth_token_;  ///< resolved (option or env) at Start()
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  bool accept_paused_ = false;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<size_t> open_connections_{0};
  std::thread loop_thread_;
  std::unique_ptr<ThreadPool> handlers_;

  /// Event-thread-owned connection table, keyed by a monotonically growing
  /// id (never an fd: ids make stale handler completions for a recycled fd
  /// impossible).
  std::map<uint64_t, Conn> conns_;
  uint64_t next_conn_id_ = 2;  ///< 0 = listen fd, 1 = wake fd in epoll data

  std::mutex mailbox_mu_;
  std::vector<Completion> mailbox_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace easytime::serve
