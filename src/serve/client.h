#pragma once

/// \file client.h
/// \brief Loopback TCP client for EventLoopServer with reconnect + retry. One
/// request line out, one response line back; a dropped connection (the
/// server restarting, an injected serve.tcp.* fault) counts as transient:
/// the client reconnects and retries under the RetryPolicy before giving
/// up with Unavailable.

#include <cstdint>
#include <string>

#include "common/json.h"
#include "common/result.h"
#include "serve/retry.h"

namespace easytime::serve {

/// \brief A line-protocol TCP client. Not thread-safe: callers serialize or
/// give each thread its own client.
class TcpClient {
 public:
  /// \param port an EventLoopServer's bound port on 127.0.0.1
  /// \param auth_token credential for token-authenticated listeners; empty
  /// falls back to EASYTIME_AUTH_TOKEN, and if that is also unset no
  /// handshake is sent. With a token, Connect() authenticates before the
  /// first request — transparently across reconnects — and a rejected
  /// token surfaces as a non-retryable Unauthenticated error.
  TcpClient(uint16_t port, RetryPolicy retry = RetryPolicy(),
            std::string auth_token = "");
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// \brief Sends one raw request line (no newline), returns the raw
  /// response line. Reconnects and retries on connection failures.
  easytime::Result<std::string> SendLine(const std::string& line);

  /// \brief One unretried attempt, with transmission accounting for
  /// at-most-once forwarding (the cluster router's append path). On return,
  /// *\p request_sent tells whether any request byte may have reached the
  /// server: false = the failure happened while connecting/authenticating,
  /// so the request was certainly not executed and a retry is safe; true =
  /// the outcome is ambiguous (the server may have executed the request
  /// even though the reply was lost) and the caller must not blindly retry.
  easytime::Result<std::string> SendLineOnce(const std::string& line,
                                             bool* request_sent);

  /// \brief Typed call: builds the request envelope, sends it, and unwraps
  /// the response into the "result" payload or the error status.
  easytime::Result<easytime::Json> Call(const std::string& endpoint,
                                        const easytime::Json& params);

  /// Drops the current connection (the next call reconnects).
  void Disconnect();

  bool connected() const { return fd_ >= 0; }

 private:
  easytime::Status Connect();
  /// One attempt: write the line, read one response line. Connection-level
  /// failures come back as Unavailable (retryable).
  easytime::Result<std::string> SendOnce(const std::string& line);
  /// Raw write-then-read-one-line on the open socket (no connect, no retry).
  easytime::Result<std::string> WriteAndReadLine(const std::string& line);

  uint16_t port_;
  RetryPolicy retry_;
  std::string auth_token_;
  int fd_ = -1;
  std::string read_buffer_;  ///< bytes past the last consumed line
};

}  // namespace easytime::serve
