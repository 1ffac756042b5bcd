#pragma once

/// \file admission.h
/// \brief Per-endpoint weighted admission quotas and worker scheduling for
/// the fast lane (DESIGN.md §12). Two budgets, both split by endpoint class:
///
///  - **Queue slots.** Each class reserves `max(1, floor(capacity * w_i /
///    sum(w)))` of the fast-lane queue. TryAdmit admits a request while its
///    class is under its reservation, or — borrowing — while total pending
///    is under the shared capacity. A burst on one endpoint therefore sheds
///    (`Unavailable`) once it exhausts its own reservation plus the shared
///    headroom, while other classes keep their reserved slots.
///  - **Worker slots.** An admitted request runs on its caller's thread once
///    its ticket's AcquireWorker grants its class a slot; `workers` caps how
///    many run at once. While slots are short, waiters queue per class and
///    each freed slot goes to the class below its guaranteed share `max(1,
///    floor(workers * w_i / sum(w)))` first, otherwise to the class with the
///    lowest running/weight ratio, then to the least recently granted one. A
///    saturated class therefore cannot head-of-line-block the others.
///
/// Admission is a move-only Ticket: TryAdmit hands one out, and its
/// destructor gives back the queue slot and any worker slot it was granted,
/// under one lock. No caller releases anything by hand.
///
/// The controller decides only whether and when a request runs, never what
/// it computes: an admitted request does the same work at any load. A TCP
/// connection has at most one request in flight, so at the defaults (64
/// connections against a 128-slot queue) TCP traffic never reaches the
/// shared cap; only in-process callers, or a `queue_capacity` below the
/// listener's `max_connections`, are shed.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

#include "common/json.h"

namespace easytime::serve {

class AdmissionController {
  struct ClassState;

 public:
  struct Options {
    size_t queue_capacity = 128;  ///< shared queue-slot budget
    size_t workers = 2;           ///< requests running at once
    /// Class weights; classes seen at runtime but missing here get weight 1.
    std::map<std::string, double> weights;
  };

  explicit AdmissionController(Options options);

  /// \brief One admitted request's claim on the controller. Move-only; an
  /// empty ticket (TryAdmit shed the request) holds nothing. Destroying a
  /// held ticket releases its queue slot and, if AcquireWorker granted one,
  /// its worker slot, then grants the next waiter.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept;
    Ticket& operator=(Ticket&& other) noexcept;
    ~Ticket();

    /// True when TryAdmit admitted the request.
    explicit operator bool() const { return controller_ != nullptr; }

    /// \brief Blocks until the ticket's class is granted a worker slot,
    /// which the ticket then holds until it dies. Returns false, with no
    /// slot taken, once DrainAll has run. Call once, on a held ticket.
    bool AcquireWorker();

   private:
    friend class AdmissionController;
    Ticket(AdmissionController* controller, ClassState* cls)
        : controller_(controller), cls_(cls) {}

    AdmissionController* controller_ = nullptr;
    ClassState* cls_ = nullptr;  ///< its class record (map nodes never move)
    bool worker_ = false;        ///< AcquireWorker granted a slot
  };

  /// \brief Claims a queue slot for \p cls. An empty ticket = shed the
  /// request.
  Ticket TryAdmit(const std::string& cls);

  /// Stop-time drain: grants every waiter regardless of worker caps, makes
  /// every later AcquireWorker refuse, and returns once no granted slot is
  /// still held.
  void DrainAll();

  /// Total requests shed across all classes.
  uint64_t shed_total() const;

  /// Per-class and aggregate counters for the stats endpoint.
  easytime::Json StatsJson() const;

 private:
  /// One caller blocked in AcquireWorker; lives on that caller's stack.
  struct Waiter {
    std::condition_variable cv;
    bool granted = false;
  };

  struct ClassState {
    double weight = 1.0;
    size_t reserved = 1;     ///< queue slots
    size_t guaranteed = 1;   ///< worker slots
    size_t pending = 0;      ///< admitted, not yet finished
    size_t running = 0;      ///< granted worker slots
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t last_grant = 0;    ///< scheduler sequence of the newest grant
    std::deque<Waiter*> queue;  ///< callers blocked in AcquireWorker
  };

  /// Returns (creating if needed) the class record; recomputes shares on
  /// first sight of a new class.
  ClassState& Cls(const std::string& name);
  void RecomputeSharesLocked();
  /// The ticket's destructor: frees its queue slot and, when \p worker, its
  /// worker slot.
  void Release(ClassState& s, bool worker);
  /// Grants queued waiters while worker slots remain.
  void GrantReadyLocked();
  void GrantLocked(ClassState& s);

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;  ///< DrainAll waits for total_running_ 0
  std::map<std::string, ClassState> classes_;
  size_t total_pending_ = 0;
  size_t total_running_ = 0;
  uint64_t shed_total_ = 0;
  uint64_t grant_seq_ = 0;  ///< feeds ClassState::last_grant
  bool drained_ = false;  ///< DrainAll ran; AcquireWorker refuses
};

}  // namespace easytime::serve
