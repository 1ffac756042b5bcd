#include "serve/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <system_error>
#include <utility>

#include "common/fault.h"
#include "common/logging.h"
#include "serve/request.h"

namespace easytime::serve {

EventLoopServer::EventLoopServer(ForecastServer* server, Options options)
    : handler_([server](const std::string& line) {
        return server->HandleLine(line);
      }),
      max_request_bytes_(server->options().max_request_bytes),
      options_(options) {}

EventLoopServer::EventLoopServer(LineHandler handler, size_t max_request_bytes,
                                 Options options)
    : handler_(std::move(handler)),
      max_request_bytes_(max_request_bytes),
      options_(options) {}

EventLoopServer::~EventLoopServer() { Stop(); }

size_t EventLoopServer::LineByteCap() const {
  if (options_.max_line_bytes > 0) return options_.max_line_bytes;
  return max_request_bytes_ * 2 + 1024;
}

easytime::Status EventLoopServer::Start() {
  if (running_.load()) return Status::OK();
  if (stopped_.load()) {
    return Status::Unavailable("event loop was stopped; create a new one");
  }

  auth_token_ = options_.auth_token;
  if (auth_token_.empty()) {
    if (const char* env = std::getenv("EASYTIME_AUTH_TOKEN")) {
      auth_token_ = env;
    }
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  auto fail = [this](const std::string& what) {
    std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(what + ": " + err);
  };
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind(127.0.0.1:" + std::to_string(options_.port) + ")");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
      0) {
    return fail("getsockname()");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, options_.backlog) < 0) return fail("listen()");

  running_.store(true);
  accept_thread_ = std::thread([this]() { AcceptLoop(); });
  return Status::OK();
}

void EventLoopServer::Stop() {
  if (!running_.load() || stopped_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true);
  }
  closed_cv_.notify_all();
  ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocking accept4
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  std::unique_lock<std::mutex> lock(mu_);
  // Drain contract: idle readers see EOF at once; an in-flight request
  // finishes and its response flushes; pipelined lines not yet started are
  // abandoned (each connection thread checks stopping_ before executing).
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RD);
  }
  const auto deadline =
      Clock::now() + std::chrono::microseconds(static_cast<int64_t>(
                         options_.drain_timeout_ms * 1000.0));
  closed_cv_.wait_until(lock, deadline,
                        [this] { return open_connections_.load() == 0; });
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);  // a stuck writer
  }
  lock.unlock();
  // The accept thread is gone, so nothing else changes the list's shape.
  for (Conn& conn : conns_) {
    if (conn.thread.joinable()) conn.thread.join();
  }
  conns_.clear();
  running_.store(false);
}

EventLoopServer::Stats EventLoopServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void EventLoopServer::Bump(uint64_t Stats::*counter) {
  std::lock_guard<std::mutex> lock(mu_);
  ++(stats_.*counter);
}

void EventLoopServer::AcceptLoop() {
  for (;;) {
    std::list<Conn> finished;
    {
      std::unique_lock<std::mutex> lock(mu_);
      closed_cv_.wait(lock, [this] {
        return stopping_.load() ||
               open_connections_.load() < options_.max_connections;
      });
      for (auto it = conns_.begin(); it != conns_.end();) {
        auto next = std::next(it);
        if (it->fd < 0) finished.splice(finished.end(), conns_, it);
        it = next;
      }
    }
    for (Conn& conn : finished) {
      if (conn.thread.joinable()) conn.thread.join();
    }
    if (stopping_.load()) return;

    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (stopping_.load()) return;
      // Out of fds or memory: back off instead of spinning on the error.
      if (errno != EINTR && errno != ECONNABORTED) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      continue;
    }
    // Without TCP_NODELAY a pipelined client's responses are held hostage
    // by Nagle + delayed ACK (~40ms each): line-delimited request/response
    // traffic always wants small writes out immediately.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn* conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      conn = &conns_.emplace_back();
      conn->fd = fd;
      open_connections_.fetch_add(1);
      ++stats_.accepted;
    }
    try {
      conn->thread = std::thread([this, conn]() { Serve(conn); });
    } catch (const std::system_error& e) {
      EASYTIME_LOG(Warning) << "connection thread: " << e.what();
      CloseConn(conn);
    }
  }
}

void EventLoopServer::CloseConn(Conn* conn) {
  std::lock_guard<std::mutex> lock(mu_);
  ::close(conn->fd);
  conn->fd = -1;
  open_connections_.fetch_sub(1);
  ++stats_.closed;
  closed_cv_.notify_all();
}

void EventLoopServer::Serve(Conn* conn) {
  const int fd = conn->fd;  // open until CloseConn below
  bool authed = auth_token_.empty();
  std::string inbuf;
  for (;;) {
    if (stopping_.load()) break;  // drain: lines not yet started are dropped
    const size_t newline = inbuf.find('\n');
    if (newline == std::string::npos) {
      if (inbuf.size() > LineByteCap()) {
        // Unterminated oversized line: a protocol violation. Every earlier
        // line has been answered; this one gets an error, then the close.
        WriteLine(fd, MakeErrorResponse(-1, Status::InvalidArgument(
                                                "request line exceeds size "
                                                "limit"))
                          .Dump());
        Bump(&Stats::protocol_errors);
        break;
      }
      if (!ReadMore(fd, &inbuf)) break;
      continue;
    }
    std::string line = inbuf.substr(0, newline);
    inbuf.erase(0, newline + 1);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (!authed) {
      if (!Authenticate(fd, line)) break;
      authed = true;
      continue;
    }
    Bump(&Stats::requests_dispatched);
    // Chaos-level connection faults: a failed read/write drops the
    // connection mid-stream the way a flaky network would.
    if (FaultRegistry::AnyArmed() &&
        !FaultRegistry::Global().Check("serve.tcp.read").ok()) {
      break;
    }
    std::string response = handler_(line);
    if (FaultRegistry::AnyArmed() &&
        !FaultRegistry::Global().Check("serve.tcp.write").ok()) {
      break;
    }
    if (!WriteLine(fd, std::move(response))) break;
    Bump(&Stats::responses_written);
  }
  CloseConn(conn);
}

bool EventLoopServer::ReadMore(int fd, std::string* inbuf) {
  if (options_.idle_timeout_ms > 0.0) {
    pollfd pfd{fd, POLLIN, 0};
    const int timeout_ms =
        static_cast<int>(std::ceil(options_.idle_timeout_ms));
    int ready;
    do {
      ready = ::poll(&pfd, 1, timeout_ms);
    } while (ready < 0 && errno == EINTR);
    if (ready == 0) {
      Bump(&Stats::idle_closed);
      return false;
    }
  }
  char chunk[16384];
  for (;;) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      inbuf->append(chunk, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF (a half-closed peer has its answers), reset, error
  }
}

bool EventLoopServer::Authenticate(int fd, const std::string& line) {
  int64_t error_id = -1;
  auto parsed = ParseRequest(line, max_request_bytes_, &error_id);
  // Length-insensitive comparison isn't attempted here: the listener is
  // loopback-only, so the token guards against accidental cross-process
  // traffic, not a timing adversary.
  const bool ok = parsed.ok() && parsed->endpoint == "auth" &&
                  parsed->params.GetString("token", "") == auth_token_;
  if (!ok) {
    // One Unauthenticated error, then the connection closes — the same
    // answer-and-hang-up shape as the oversized-line protocol violation.
    // Pipelined lines sent ahead of a valid handshake are abandoned. The
    // counter is bumped first, so a peer that reads stats() after seeing
    // its rejection always finds the rejection counted.
    Bump(&Stats::auth_failures);
    WriteLine(fd, MakeErrorResponse(
                      parsed.ok() ? parsed->id : error_id,
                      Status::Unauthenticated(
                          "this listener requires an \"auth\" first frame "
                          "with a valid token"))
                      .Dump());
    return false;
  }
  easytime::Json result = easytime::Json::Object();
  result.Set("authenticated", true);
  return WriteLine(fd, MakeOkResponse(parsed->id, std::move(result)).Dump());
}

bool EventLoopServer::WriteLine(int fd, std::string line) {
  line += '\n';
  size_t off = 0;
  while (off < line.size()) {
    ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer hung up mid-response
  }
  return true;
}

}  // namespace easytime::serve
