// Copyright 2026 The fairidx Authors.
// Licensed under the Apache License, Version 2.0.
//
// Service maintenance, decided and run in one place. A MaintenancePolicy
// names the cadence (seal once N records are pending, or at least every T
// seconds while anything is pending) and the action (drift-bounded
// MaybeRefine, or a plain Seal when drift_bound < 0, then optional epoch
// retention); a MaintenanceScheduler evaluates that policy against one
// service, one TickNow() at a time.
//
// The scheduler only uses the service's public thread-safe surface —
// store() counters to decide, MaybeRefine()/Seal()/ApplyRetention() to
// act — so epochs still seal at consistent batch boundaries, refines
// still key off the epoch they seal, and readers keep serving the
// previously published partition throughout. Every maintenance path runs
// the same scheduler code:
//
//   * caller-driven streams call TickNow() themselves after each ingest
//     (`fairidx_cli stream`, stream scenarios with maintain_policy =
//     caller);
//   * FairIndexService::StartMaintenance runs a MaintenanceLoop over its
//     scheduler's TickNow(); Ingest wakes the loop, so record-count
//     cadences react promptly;
//   * TenantRegistry::StartMaintenance runs a MaintenanceLoop over
//     TickMaintenanceNow(), which ticks every tenant's scheduler.
//
// Wall-clock cadences resolve at poll_interval_seconds.

#ifndef FAIRIDX_SERVICE_MAINTENANCE_SCHEDULER_H_
#define FAIRIDX_SERVICE_MAINTENANCE_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

#include "common/result.h"

namespace fairidx {

class FairIndexService;

/// When and how maintenance acts. At least one cadence must be enabled
/// for a MaintenanceLoop to run it (ValidateMaintenancePolicy).
struct MaintenancePolicy {
  /// Act once this many records are pending (<= 0 disables the
  /// record-count cadence).
  long long seal_records = 1;
  /// Act at least this often (wall clock) while records are pending
  /// (<= 0 disables the clock cadence).
  double seal_interval_seconds = 0.0;
  /// MaybeRefine drift bound for each pass; < 0 seals without refining
  /// (the published partition stays fixed).
  double drift_bound = 0.02;
  /// Maintenance loop wakeup cadence — the resolution of the clock
  /// cadence and the fallback poll when no ingest notification arrives.
  double poll_interval_seconds = 0.005;
  /// After each maintenance pass, drop sealed-snapshot history beyond the
  /// newest this many epochs (reader-pinned snapshots are always kept;
  /// see ShardedDeltaStore::RetainEpochs). <= 0 disables retention — the
  /// history then grows by one entry per capturing seal for the life of
  /// the stream.
  int retain_epochs = 0;
};

/// InvalidArgument unless `policy` can act on a background loop: at least
/// one cadence enabled and a positive poll interval.
Status ValidateMaintenancePolicy(const MaintenancePolicy& policy);

/// Counters of everything a scheduler did (all monotone; readable while
/// a loop ticks it).
struct MaintenanceStats {
  /// Policy evaluations (ticks that checked the cadences).
  long long ticks = 0;
  /// Maintenance actions taken (seal-only passes + refine passes).
  long long passes = 0;
  /// Passes that ran MaybeRefine (drift_bound >= 0).
  long long refines = 0;
  /// Refine passes that re-split at least one subtree and published a new
  /// partition. Zero-drift passes never publish.
  long long published = 0;
  /// Published passes whose partition went out via an O(changed area)
  /// cell-map patch (in-place or splice-path; see KdRefineStats).
  long long published_patched = 0;
  /// Published passes that fell back to a full O(grid) cell-map rebuild.
  long long published_fallback = 0;
  /// Subtree re-splits across all published passes.
  long long resplits = 0;
  /// Sealed-snapshot history entries dropped by retention (policy
  /// retain_epochs > 0).
  long long epochs_retired = 0;
  /// Passes that failed (the service call returned an error).
  long long errors = 0;
};

/// Evaluates one MaintenancePolicy against one service. Owns no thread:
/// callers tick it directly, or hand TickNow() to a MaintenanceLoop. The
/// referenced service must outlive the scheduler.
class MaintenanceScheduler {
 public:
  MaintenanceScheduler(FairIndexService* service, MaintenancePolicy policy);

  MaintenanceScheduler(const MaintenanceScheduler&) = delete;
  MaintenanceScheduler& operator=(const MaintenanceScheduler&) = delete;

  /// One synchronous policy evaluation: when a cadence is due, one
  /// maintenance pass (refine or seal, then retention). Thread-safe (the
  /// service serializes maintenance). Returns true when a pass ran.
  bool TickNow();

  /// The error of the most recent failed pass (Ok when none failed) —
  /// how caller-driven streams surface what a pass ran into.
  Status last_error() const;

  MaintenanceStats stats() const;
  const MaintenancePolicy& policy() const { return policy_; }

 private:
  /// True when either cadence is due given the pending-record count.
  bool Due(std::chrono::steady_clock::time_point now) const;

  FairIndexService* service_;
  const MaintenancePolicy policy_;

  /// Guards last_pass_, stats_ and last_error_ (ticks may come from a
  /// loop and from TickNow callers concurrently).
  mutable std::mutex state_mutex_;
  std::chrono::steady_clock::time_point last_pass_;
  MaintenanceStats stats_;
  Status last_error_ = Status::Ok();
};

/// The one maintenance thread: runs `tick`, then waits up to the poll
/// interval for a Notify(), and repeats until Stop(). Owners stop the
/// loop before tearing down anything `tick` touches.
class MaintenanceLoop {
 public:
  MaintenanceLoop() = default;
  ~MaintenanceLoop();

  MaintenanceLoop(const MaintenanceLoop&) = delete;
  MaintenanceLoop& operator=(const MaintenanceLoop&) = delete;

  /// Spawns the thread. Returns false, doing nothing, when it is already
  /// running.
  bool Start(std::function<void()> tick, double poll_interval_seconds);

  /// Signals the thread and joins it. Idempotent; safe without Start().
  void Stop();

  bool running() const;

  /// Wakes the thread so the next tick runs now instead of at the next
  /// poll.
  void Notify();

 private:
  void Run(const std::function<void()>& tick, double poll_interval_seconds);

  /// Serializes Start/Stop (held across the join) and guards thread_.
  mutable std::mutex lifecycle_mutex_;
  std::thread thread_;

  std::mutex wakeup_mutex_;
  std::condition_variable wakeup_;
  bool stop_ = false;
  bool notified_ = false;
};

}  // namespace fairidx

#endif  // FAIRIDX_SERVICE_MAINTENANCE_SCHEDULER_H_
