#include "service/maintenance_scheduler.h"

#include <utility>

#include "service/fair_index_service.h"

namespace fairidx {

namespace {

std::chrono::duration<double> Seconds(double seconds) {
  return std::chrono::duration<double>(seconds);
}

}  // namespace

Status ValidateMaintenancePolicy(const MaintenancePolicy& policy) {
  if (policy.seal_records <= 0 && policy.seal_interval_seconds <= 0.0) {
    return InvalidArgumentError(
        "maintenance policy would never act (enable seal_records or "
        "seal_interval_seconds)");
  }
  if (!(policy.poll_interval_seconds > 0.0)) {
    return InvalidArgumentError(
        "maintenance poll_interval_seconds must be > 0");
  }
  return Status::Ok();
}

MaintenanceScheduler::MaintenanceScheduler(FairIndexService* service,
                                           MaintenancePolicy policy)
    : service_(service),
      policy_(policy),
      last_pass_(std::chrono::steady_clock::now()) {}

bool MaintenanceScheduler::Due(
    std::chrono::steady_clock::time_point now) const {
  const long long pending = service_->store().pending_records();
  if (pending <= 0) return false;  // Nothing to seal: never act.
  if (policy_.seal_records > 0 && pending >= policy_.seal_records) {
    return true;
  }
  return policy_.seal_interval_seconds > 0.0 &&
         now - last_pass_ >= Seconds(policy_.seal_interval_seconds);
}

bool MaintenanceScheduler::TickNow() {
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.ticks;
    if (!Due(now)) return false;
    // Claim the pass before acting so a concurrent ticker does not
    // double-fire the clock cadence for the same interval.
    last_pass_ = now;
  }
  // Act outside the state lock: the service serializes maintenance
  // itself, and stats() readers should not block on an O(UV) fold.
  if (policy_.drift_bound >= 0.0) {
    KdRefineOptions refine_options;
    refine_options.drift_bound = policy_.drift_bound;
    const Result<ServiceRefineResult> refined =
        service_->MaybeRefine(refine_options);
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.passes;
    ++stats_.refines;
    if (!refined.ok()) {
      ++stats_.errors;
      last_error_ = refined.status();
    } else if (refined->stats.changed) {
      ++stats_.published;
      stats_.resplits += refined->stats.subtrees_rebuilt;
      if (refined->stats.patched_in_place || refined->stats.patched_splice) {
        ++stats_.published_patched;
      } else {
        ++stats_.published_fallback;
      }
    }
  } else {
    const Result<long long> sealed = service_->Seal();
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++stats_.passes;
    if (!sealed.ok()) {
      ++stats_.errors;
      last_error_ = sealed.status();
    }
  }
  if (policy_.retain_epochs > 0) {
    // Retention rides the maintenance cadence: each pass seals at most one
    // epoch, so trimming here bounds the history at retain_epochs plus
    // whatever readers still pin.
    const int dropped = service_->ApplyRetention(policy_.retain_epochs);
    if (dropped > 0) {
      std::lock_guard<std::mutex> lock(state_mutex_);
      stats_.epochs_retired += dropped;
    }
  }
  return true;
}

Status MaintenanceScheduler::last_error() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return last_error_;
}

MaintenanceStats MaintenanceScheduler::stats() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return stats_;
}

MaintenanceLoop::~MaintenanceLoop() { Stop(); }

bool MaintenanceLoop::Start(std::function<void()> tick,
                            double poll_interval_seconds) {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (thread_.joinable()) return false;
  {
    std::lock_guard<std::mutex> lock(wakeup_mutex_);
    stop_ = false;
    notified_ = false;
  }
  thread_ = std::thread(&MaintenanceLoop::Run, this, std::move(tick),
                        poll_interval_seconds);
  return true;
}

void MaintenanceLoop::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(wakeup_mutex_);
    stop_ = true;
    wakeup_.notify_all();
  }
  thread_.join();
}

bool MaintenanceLoop::running() const {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mutex_);
  return thread_.joinable();
}

void MaintenanceLoop::Notify() {
  std::lock_guard<std::mutex> lock(wakeup_mutex_);
  notified_ = true;
  wakeup_.notify_all();
}

void MaintenanceLoop::Run(const std::function<void()>& tick,
                          double poll_interval_seconds) {
  std::unique_lock<std::mutex> lock(wakeup_mutex_);
  while (!stop_) {
    lock.unlock();
    tick();
    lock.lock();
    if (stop_) break;
    wakeup_.wait_for(lock, Seconds(poll_interval_seconds),
                     [this] { return stop_ || notified_; });
    notified_ = false;
  }
}

}  // namespace fairidx
