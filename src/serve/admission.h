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
///  - **Worker slots.** Each admitted request arrives as one unit in its
///    class's run queue. The controller launches units onto the executor
///    pool while any worker is free, preferring classes below their
///    guaranteed share `max(1, floor(workers * w_i / sum(w)))` and otherwise
///    the class with the lowest running/weight ratio. Enqueue never blocks
///    its caller, so a saturated class cannot head-of-line-block the others.
///
/// The controller also owns the brownout hysteresis: when total pending
/// crosses `enter_fraction * capacity` the process-global OverloadState flips
/// on (degraded answers, see common/overload.h), and off again once pending
/// drains below `exit_fraction * capacity`.

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "common/json.h"
#include "common/overload.h"

namespace easytime::serve {

class AdmissionController {
 public:
  /// A unit of admitted work (one request).
  using Unit = std::function<void()>;
  /// Hands a ready unit to the executor pool. Called under the controller's
  /// mutex, so it must neither block nor run the unit inline.
  using Launcher = std::function<void(Unit)>;

  struct Options {
    size_t queue_capacity = 128;  ///< shared queue-slot budget
    size_t workers = 2;           ///< executor pool size
    /// Class weights; classes seen at runtime but missing here get weight 1.
    std::map<std::string, double> weights;
    double brownout_enter_fraction = 0.75;
    double brownout_exit_fraction = 0.25;
    /// Brownout sink; nullptr disables brownout signalling.
    OverloadState* overload = nullptr;
  };

  AdmissionController(Options options, Launcher launch);

  /// \brief Claims a queue slot for \p cls. False = shed the request.
  bool TryAdmit(const std::string& cls);

  /// Releases the queue slot claimed by TryAdmit (response fulfilled).
  void Finish(const std::string& cls);

  /// \brief Queues an admitted unit for a worker slot and launches as many
  /// units as free workers allow. Never blocks. Returns false, dropping
  /// \p unit unrun, once DrainAll has run: the caller still owns its slot.
  bool Enqueue(const std::string& cls, Unit unit);

  /// Stop-time drain: hands every queued unit to the launcher regardless of
  /// worker caps, so a destructing pool can run them all, and refuses every
  /// later Enqueue. Launches happen under the controller's mutex, so once
  /// this returns no unit can reach the launcher again.
  void DrainAll();

  /// Total requests shed across all classes.
  uint64_t shed_total() const;

  /// Whether the controller currently signals brownout.
  bool brownout() const;

  /// Per-class and aggregate counters for the stats endpoint.
  easytime::Json StatsJson() const;

 private:
  struct ClassState {
    double weight = 1.0;
    size_t reserved = 1;     ///< queue slots
    size_t guaranteed = 1;   ///< worker slots
    size_t pending = 0;      ///< admitted, not yet finished
    size_t running = 0;      ///< units on workers
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t last_launch = 0;  ///< scheduler sequence of the newest launch
    std::deque<Unit> queue;    ///< units waiting for a worker slot
  };

  /// Returns (creating if needed) the class record; recomputes shares on
  /// first sight of a new class.
  ClassState& Cls(const std::string& name);
  void RecomputeSharesLocked();
  /// Launches queued units while worker slots remain.
  void LaunchReadyLocked();
  void LaunchLocked(const std::string& cls, Unit unit);
  void OnUnitDone(const std::string& cls);
  void UpdateBrownoutLocked();

  Options options_;
  Launcher launch_;
  mutable std::mutex mu_;
  std::map<std::string, ClassState> classes_;
  size_t total_pending_ = 0;
  size_t total_running_ = 0;
  uint64_t shed_total_ = 0;
  uint64_t launch_seq_ = 0;  ///< feeds ClassState::last_launch
  bool brownout_ = false;
  bool drained_ = false;  ///< DrainAll ran; Enqueue refuses
};

}  // namespace easytime::serve
