#include "serve/admission.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace easytime::serve {

AdmissionController::AdmissionController(Options options)
    : options_(std::move(options)) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, weight] : options_.weights) {
    ClassState& s = classes_[name];
    s.weight = weight > 0.0 ? weight : 1.0;
  }
  RecomputeSharesLocked();
}

AdmissionController::ClassState& AdmissionController::Cls(
    const std::string& name) {
  auto it = classes_.find(name);
  if (it != classes_.end()) return it->second;
  ClassState& s = classes_[name];  // unknown class: weight 1
  RecomputeSharesLocked();
  return s;
}

void AdmissionController::RecomputeSharesLocked() {
  double weight_sum = 0.0;
  for (const auto& [name, s] : classes_) weight_sum += s.weight;
  if (weight_sum <= 0.0) weight_sum = 1.0;
  for (auto& [name, s] : classes_) {
    s.reserved = std::max<size_t>(
        1, static_cast<size_t>(std::floor(
               static_cast<double>(options_.queue_capacity) * s.weight /
               weight_sum)));
    s.guaranteed = std::max<size_t>(
        1, static_cast<size_t>(
               std::floor(static_cast<double>(options_.workers) * s.weight /
                          weight_sum)));
  }
}

AdmissionController::Ticket::Ticket(Ticket&& other) noexcept
    : controller_(std::exchange(other.controller_, nullptr)),
      cls_(other.cls_),
      worker_(other.worker_) {}

AdmissionController::Ticket& AdmissionController::Ticket::operator=(
    Ticket&& other) noexcept {
  if (this != &other) {
    if (controller_ != nullptr) controller_->Release(*cls_, worker_);
    controller_ = std::exchange(other.controller_, nullptr);
    cls_ = other.cls_;
    worker_ = other.worker_;
  }
  return *this;
}

AdmissionController::Ticket::~Ticket() {
  if (controller_ != nullptr) controller_->Release(*cls_, worker_);
}

AdmissionController::Ticket AdmissionController::TryAdmit(
    const std::string& cls) {
  std::lock_guard<std::mutex> lock(mu_);
  ClassState& s = Cls(cls);
  // Under reservation: always in. Over it: borrow shared headroom only
  // while total pending stays under the global capacity, so one class's
  // burst cannot eat the slots other classes are entitled to.
  if (s.pending < s.reserved || total_pending_ < options_.queue_capacity) {
    ++s.pending;
    ++s.admitted;
    ++total_pending_;
    return Ticket(this, &s);
  }
  ++s.shed;
  ++shed_total_;
  return Ticket();
}

bool AdmissionController::Ticket::AcquireWorker() {
  std::unique_lock<std::mutex> lock(controller_->mu_);
  if (controller_->drained_) return false;
  Waiter waiter;
  cls_->queue.push_back(&waiter);
  controller_->GrantReadyLocked();
  waiter.cv.wait(lock, [&waiter]() { return waiter.granted; });
  worker_ = true;
  return true;
}

void AdmissionController::Release(ClassState& s, bool worker) {
  std::lock_guard<std::mutex> lock(mu_);
  --s.pending;
  --total_pending_;
  if (!worker) return;
  --s.running;
  --total_running_;
  GrantReadyLocked();
  if (drained_ && total_running_ == 0) idle_cv_.notify_all();
}

void AdmissionController::GrantReadyLocked() {
  while (total_running_ < options_.workers) {
    // Pick the best class with a waiter: under-guarantee classes first, then
    // the lowest running/weight ratio (weighted fair sharing of borrowed
    // slots), and on a full tie the least-recently-granted class — a
    // round-robin that keeps map iteration order from starving later-named
    // classes.
    ClassState* best = nullptr;
    bool best_under = false;
    double best_ratio = 0.0;
    for (auto& [name, s] : classes_) {
      if (s.queue.empty()) continue;
      bool under = s.running < s.guaranteed;
      double ratio = static_cast<double>(s.running) / s.weight;
      bool better;
      if (best == nullptr) {
        better = true;
      } else if (under != best_under) {
        better = under;
      } else if (ratio != best_ratio) {
        better = ratio < best_ratio;
      } else {
        better = s.last_grant < best->last_grant;
      }
      if (better) {
        best = &s;
        best_under = under;
        best_ratio = ratio;
      }
    }
    if (best == nullptr) return;
    GrantLocked(*best);
  }
}

void AdmissionController::GrantLocked(ClassState& s) {
  Waiter* waiter = s.queue.front();
  s.queue.pop_front();
  s.last_grant = ++grant_seq_;
  ++s.running;
  ++total_running_;
  waiter->granted = true;
  // Notified under mu_: the waiter cannot leave AcquireWorker, and so
  // destroy its condition variable, before this call returns.
  waiter->cv.notify_one();
}

void AdmissionController::DrainAll() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_ = true;
  for (auto& [name, s] : classes_) {
    while (!s.queue.empty()) GrantLocked(s);
  }
  idle_cv_.wait(lock, [this]() { return total_running_ == 0; });
}

uint64_t AdmissionController::shed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shed_total_;
}

easytime::Json AdmissionController::StatsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  easytime::Json per_class = easytime::Json::Object();
  for (const auto& [name, s] : classes_) {
    easytime::Json c = easytime::Json::Object();
    c.Set("weight", s.weight);
    c.Set("reserved_slots", static_cast<int64_t>(s.reserved));
    c.Set("guaranteed_workers", static_cast<int64_t>(s.guaranteed));
    c.Set("pending", static_cast<int64_t>(s.pending));
    c.Set("queued_units", static_cast<int64_t>(s.queue.size()));
    c.Set("running_units", static_cast<int64_t>(s.running));
    c.Set("admitted", static_cast<int64_t>(s.admitted));
    c.Set("shed", static_cast<int64_t>(s.shed));
    per_class.Set(name, std::move(c));
  }
  easytime::Json out = easytime::Json::Object();
  out.Set("classes", std::move(per_class));
  out.Set("queue_capacity", static_cast<int64_t>(options_.queue_capacity));
  out.Set("workers", static_cast<int64_t>(options_.workers));
  out.Set("total_pending", static_cast<int64_t>(total_pending_));
  out.Set("total_running", static_cast<int64_t>(total_running_));
  out.Set("shed_total", static_cast<int64_t>(shed_total_));
  return out;
}

}  // namespace easytime::serve
