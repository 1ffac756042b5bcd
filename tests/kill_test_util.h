#pragma once

/// \file kill_test_util.h
/// \brief The "first ack" signal of the fork/SIGKILL durability tests
/// (test_store, test_streaming). Each of those tests forks a writer, kills
/// it mid-stream and then requires that something the writer acknowledged
/// survived. A fixed sleep before the kill cannot promise that: under load,
/// with slow fsync, the child may not have acknowledged anything yet. So
/// the child writes one byte to this pipe after its first acknowledged
/// write, and the parent starts its kill timer only once that byte arrives.
/// The wait is poll()-bounded: a child that never acknowledges fails the
/// test instead of hanging it.

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>

namespace easytime::testutil {

/// Create before fork(); the child calls Acked(), the parent
/// WaitForFirstAck().
class FirstAckPipe {
 public:
  FirstAckPipe() {
    if (::pipe(fds_) != 0) fds_[0] = fds_[1] = -1;
  }
  ~FirstAckPipe() {
    for (int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }
  FirstAckPipe(const FirstAckPipe&) = delete;
  FirstAckPipe& operator=(const FirstAckPipe&) = delete;

  bool ok() const { return fds_[0] >= 0; }

  /// Child side: call after every acknowledged write. Only the first call
  /// writes the byte; safe to call from several threads.
  void Acked() {
    if (sent_.exchange(true)) return;
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(fds_[1], &byte, 1);
  }

  /// Parent side: true once the child's first ack arrived; false if
  /// \p timeout passed first or the child exited without acknowledging.
  bool WaitForFirstAck(std::chrono::milliseconds timeout) {
    // Without the parent's copy of the write end, a child that dies before
    // its first ack reads as end-of-file rather than as a timeout.
    if (fds_[1] >= 0) {
      ::close(fds_[1]);
      fds_[1] = -1;
    }
    const auto until = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          until - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fds_[0], POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      char byte = 0;
      return ::read(fds_[0], &byte, 1) == 1;
    }
  }

 private:
  int fds_[2];
  std::atomic<bool> sent_{false};
};

}  // namespace easytime::testutil
