#include "serve/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "serve/request.h"

namespace easytime::serve {

TcpClient::TcpClient(uint16_t port, RetryPolicy retry, std::string auth_token)
    : port_(port), retry_(retry), auth_token_(std::move(auth_token)) {
  if (auth_token_.empty()) {
    if (const char* env = std::getenv("EASYTIME_AUTH_TOKEN")) {
      auth_token_ = env;
    }
  }
}

TcpClient::~TcpClient() { Disconnect(); }

void TcpClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  read_buffer_.clear();
}

easytime::Status TcpClient::Connect() {
  if (fd_ >= 0) return Status::OK();
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Unavailable(std::string("socket(): ") +
                               std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("connect(127.0.0.1:" + std::to_string(port_) +
                               "): " + err);
  }
  fd_ = fd;
  read_buffer_.clear();

  if (!auth_token_.empty()) {
    // Authenticate before the caller's first request, and again after every
    // reconnect — the handshake is per-connection server-side. A dropped
    // socket mid-handshake is transient (Unavailable, retried by SendLine);
    // an explicit rejection is terminal (Unauthenticated, not retried).
    easytime::Json params = easytime::Json::Object();
    params.Set("token", auth_token_);
    auto line = WriteAndReadLine(MakeRequestLine("auth", params));
    if (!line.ok()) {
      Disconnect();
      return line.status();
    }
    auto resp = easytime::Json::Parse(*line);
    if (!resp.ok() || !resp->GetBool("ok", false)) {
      Disconnect();
      return Status::Unauthenticated(
          "server rejected the auth token for 127.0.0.1:" +
          std::to_string(port_));
    }
  }
  return Status::OK();
}

easytime::Result<std::string> TcpClient::SendOnce(const std::string& line) {
  EASYTIME_RETURN_IF_ERROR(Connect());
  return WriteAndReadLine(line);
}

easytime::Result<std::string> TcpClient::WriteAndReadLine(
    const std::string& line) {
  std::string payload = line + "\n";
  size_t sent = 0;
  while (sent < payload.size()) {
    ssize_t n = ::send(fd_, payload.data() + sent, payload.size() - sent,
#ifdef MSG_NOSIGNAL
                       MSG_NOSIGNAL
#else
                       0
#endif
    );
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Disconnect();
      return Status::Unavailable("connection lost while sending request");
    }
    sent += static_cast<size_t>(n);
  }

  char chunk[4096];
  for (;;) {
    size_t newline = read_buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = read_buffer_.substr(0, newline);
      read_buffer_.erase(0, newline + 1);
      return response;
    }
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Disconnect();
      return Status::Unavailable("connection lost while awaiting response");
    }
    read_buffer_.append(chunk, static_cast<size_t>(n));
  }
}

easytime::Result<std::string> TcpClient::SendLine(const std::string& line) {
  return RetryCall(retry_, [&]() { return SendOnce(line); });
}

easytime::Result<std::string> TcpClient::SendLineOnce(const std::string& line,
                                                      bool* request_sent) {
  *request_sent = false;
  EASYTIME_RETURN_IF_ERROR(Connect());
  // From the first payload byte on, a failure no longer proves the server
  // did not execute the request.
  *request_sent = true;
  return WriteAndReadLine(line);
}

easytime::Result<easytime::Json> TcpClient::Call(const std::string& endpoint,
                                                 const easytime::Json& params) {
  EASYTIME_ASSIGN_OR_RETURN(std::string line,
                            SendLine(MakeRequestLine(endpoint, params)));
  return ParseResponse(line);
}

}  // namespace easytime::serve
