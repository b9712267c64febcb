// MaintenanceScheduler tests: the hands-off serving story. The background
// policy thread must seal by pending-record count and by wall clock,
// refine (and publish) only on real drift — zero-drift passes must never
// mutate the published partition — and survive concurrent writers and
// readers (a ThreadSanitizer target, run in the TSan CI lane).

#include "service/maintenance_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "index/partition.h"
#include "service/fair_index_service.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

AggregateBatch RandomBatch(Rng& rng, const Grid& grid, int n,
                           double label_bias = 0.5, int block = 0) {
  AggregateBatch batch;
  for (int i = 0; i < n; ++i) {
    const int cell =
        block > 0
            ? grid.CellId(static_cast<int>(rng.NextBounded(block)),
                          static_cast<int>(rng.NextBounded(block)))
            : static_cast<int>(rng.NextBounded(grid.num_cells()));
    batch.Append(cell, rng.Bernoulli(label_bias) ? 1 : 0, rng.NextDouble());
  }
  return batch;
}

FairIndexServiceOptions AutoOptions(int height, int shards,
                                    MaintenancePolicy policy) {
  FairIndexServiceOptions options;
  options.algorithm = "fair_kd_tree";
  options.build.height = height;
  options.store.num_shards = shards;
  options.store.num_threads = 2;
  options.auto_maintain = true;
  options.maintain = policy;
  return options;
}

// Polls `done` until it returns true or ~10s pass (generous: the TSan
// lane runs these suites an order of magnitude slower).
bool WaitFor(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return done();
}

TEST(MaintenanceSchedulerTest, RejectsPoliciesThatNeverAct) {
  const Grid grid = MakeGrid(8, 8);
  Rng rng(1);
  const AggregateBatch warmup = RandomBatch(rng, grid, 100);
  MaintenancePolicy never;
  never.seal_records = 0;
  never.seal_interval_seconds = 0.0;
  EXPECT_FALSE(
      FairIndexService::Create(grid, warmup, AutoOptions(4, 1, never)).ok());

  MaintenancePolicy bad_poll;
  bad_poll.poll_interval_seconds = 0.0;
  EXPECT_FALSE(
      FairIndexService::Create(grid, warmup, AutoOptions(4, 1, bad_poll))
          .ok());
}

TEST(MaintenanceSchedulerTest, SealsByPendingRecordCountWithoutCaller) {
  const Grid grid = MakeGrid(16, 16);
  Rng rng(2);
  const AggregateBatch warmup = RandomBatch(rng, grid, 300);
  MaintenancePolicy policy;
  policy.seal_records = 100;
  policy.drift_bound = 0.05;
  policy.poll_interval_seconds = 0.001;
  auto service =
      FairIndexService::Create(grid, warmup, AutoOptions(4, 2, policy));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_TRUE((*service)->maintenance_running());
  EXPECT_EQ((*service)->store().epoch(), 0);

  // Below the record cadence: nothing should seal.
  ASSERT_TRUE((*service)->Ingest(RandomBatch(rng, grid, 50)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ((*service)->store().epoch(), 0);
  EXPECT_EQ((*service)->store().pending_records(), 50);

  // Crossing it: the scheduler seals with no caller Seal/MaybeRefine.
  // Wait on the scheduler's pass counter (bumped after the pass fully
  // completes) so the sealed state is visible by then.
  ASSERT_TRUE((*service)->Ingest(RandomBatch(rng, grid, 60)).ok());
  EXPECT_TRUE(WaitFor(
      [&] { return (*service)->maintenance_stats().passes >= 1; }));
  EXPECT_EQ((*service)->store().pending_records(), 0);
  EXPECT_GE((*service)->store().epoch(), 1);
  (*service)->StopMaintenance();
  EXPECT_FALSE((*service)->maintenance_running());
}

TEST(MaintenanceSchedulerTest, SealsByWallClockWhileRecordsPend) {
  const Grid grid = MakeGrid(16, 16);
  Rng rng(3);
  const AggregateBatch warmup = RandomBatch(rng, grid, 300);
  MaintenancePolicy policy;
  policy.seal_records = 0;  // Record cadence off: clock only.
  policy.seal_interval_seconds = 0.01;
  policy.drift_bound = -1.0;  // Seal-only maintenance.
  policy.poll_interval_seconds = 0.002;
  auto service =
      FairIndexService::Create(grid, warmup, AutoOptions(4, 1, policy));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ASSERT_TRUE((*service)->Ingest(RandomBatch(rng, grid, 30)).ok());
  EXPECT_TRUE(WaitFor(
      [&] { return (*service)->maintenance_stats().passes >= 1; }));
  EXPECT_GE((*service)->store().epoch(), 1);
  const MaintenanceStats stats = (*service)->maintenance_stats();
  EXPECT_EQ(stats.refines, 0);  // drift_bound < 0: plain seals only.
  EXPECT_EQ((*service)->total_resplits(), 0);
}

TEST(MaintenanceSchedulerTest, ZeroDriftPassesNeverMutatePartition) {
  const Grid grid = MakeGrid(16, 16);
  Rng rng(4);
  const AggregateBatch warmup = RandomBatch(rng, grid, 400);
  MaintenancePolicy policy;
  policy.seal_records = 100;
  policy.drift_bound = 0.01;
  policy.poll_interval_seconds = 0.001;
  auto service =
      FairIndexService::Create(grid, warmup, AutoOptions(5, 2, policy));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::shared_ptr<const std::vector<CellRect>> published =
      (*service)->regions();

  // An exact duplicate of the warmup keeps every region's calibration gap
  // where it was: the scheduler's refine passes must seal the epoch but
  // never publish a new partition.
  ASSERT_TRUE((*service)->Ingest(warmup).ok());
  // Wait on the scheduler's own counter: it is bumped after the pass
  // fully completes, so everything the pass did is visible by then.
  EXPECT_TRUE(WaitFor(
      [&] { return (*service)->maintenance_stats().refines >= 1; }));
  EXPECT_EQ((*service)->store().pending_records(), 0);
  EXPECT_GE((*service)->store().epoch(), 1);
  const MaintenanceStats stats = (*service)->maintenance_stats();
  EXPECT_EQ(stats.published, 0);
  EXPECT_EQ(stats.resplits, 0);
  // Pointer identity: zero-drift maintenance does not even re-publish an
  // equal list.
  EXPECT_EQ((*service)->regions().get(), published.get());
}

TEST(MaintenanceSchedulerTest, RefinesAndPublishesOnRealDrift) {
  const Grid grid = MakeGrid(24, 24);
  Rng rng(5);
  const AggregateBatch warmup = RandomBatch(rng, grid, 600);
  MaintenancePolicy policy;
  policy.seal_records = 50;
  policy.drift_bound = 0.02;
  policy.poll_interval_seconds = 0.001;
  auto service =
      FairIndexService::Create(grid, warmup, AutoOptions(5, 2, policy));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  for (int b = 0; b < 8; ++b) {
    ASSERT_TRUE(
        (*service)
            ->Ingest(RandomBatch(rng, grid, 80, /*label_bias=*/0.95,
                                 /*block=*/8))
            .ok());
  }
  // Wait on the scheduler's own counter (bumped after the pass fully
  // completes), not the service's, to avoid the publish/stats window.
  EXPECT_TRUE(WaitFor(
      [&] { return (*service)->maintenance_stats().published >= 1; }));
  const MaintenanceStats stats = (*service)->maintenance_stats();
  EXPECT_GE(stats.resplits, 1);
  EXPECT_GT((*service)->total_resplits(), 0);
  (*service)->StopMaintenance();
  EXPECT_TRUE(
      Partition::FromRects(grid, *(*service)->regions()).ok());
}

TEST(MaintenanceSchedulerTest, StartStopLifecycle) {
  const Grid grid = MakeGrid(8, 8);
  Rng rng(6);
  const AggregateBatch warmup = RandomBatch(rng, grid, 100);
  FairIndexServiceOptions options;
  options.algorithm = "median_kd_tree";
  options.build.height = 3;
  auto service = FairIndexService::Create(grid, warmup, options);
  ASSERT_TRUE(service.ok());
  EXPECT_FALSE((*service)->maintenance_running());
  EXPECT_EQ((*service)->maintenance_stats().passes, 0);

  MaintenancePolicy policy;
  policy.seal_records = 10;
  policy.poll_interval_seconds = 0.001;
  ASSERT_TRUE((*service)->StartMaintenance(policy).ok());
  EXPECT_TRUE((*service)->maintenance_running());
  // A second start while running must refuse rather than fork a second
  // maintenance thread.
  EXPECT_FALSE((*service)->StartMaintenance(policy).ok());
  (*service)->StopMaintenance();
  (*service)->StopMaintenance();  // Idempotent.
  EXPECT_FALSE((*service)->maintenance_running());
  // Restart after a stop is allowed; the destructor joins the thread.
  ASSERT_TRUE((*service)->StartMaintenance(policy).ok());
}

// Multi-writer stress with the background scheduler and readers running —
// the TSan lane's target for the scheduler: ingest, seal, refine, publish
// and query must all interleave cleanly, and after quiescence the sealed
// state must account for every record.
TEST(MaintenanceSchedulerTest, MultiWriterStressUnderBackgroundScheduler) {
  const Grid grid = MakeGrid(24, 24);
  Rng rng(7);
  const AggregateBatch warmup = RandomBatch(rng, grid, 400);
  MaintenancePolicy policy;
  policy.seal_records = 60;
  policy.seal_interval_seconds = 0.005;
  policy.drift_bound = 0.02;
  policy.poll_interval_seconds = 0.001;
  auto service =
      FairIndexService::Create(grid, warmup, AutoOptions(5, 4, policy));
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 30;
  std::vector<std::vector<AggregateBatch>> per_writer(kWriters);
  long long streamed = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int b = 0; b < kBatchesPerWriter; ++b) {
      AggregateBatch batch =
          RandomBatch(rng, grid, 25, /*label_bias=*/0.9, /*block=*/12);
      streamed += static_cast<long long>(batch.size());
      per_writer[w].push_back(std::move(batch));
    }
  }

  std::atomic<int> writers_done{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (const AggregateBatch& batch : per_writer[w]) {
        if (!(*service)->Ingest(batch).ok()) {
          failed.store(true);
          break;
        }
      }
      writers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (writers_done.load() < kWriters) {
        const std::vector<RegionAggregate> aggs =
            (*service)->QueryRegions();
        const double total = (*service)->store().snapshot()->Total().count;
        double sum = 0.0;
        for (const RegionAggregate& agg : aggs) sum += agg.count;
        if (sum > total + 0.5) failed.store(true);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  // Quiesce: stop the scheduler (joins any in-flight pass), seal the
  // tail, audit.
  (*service)->StopMaintenance();
  ASSERT_TRUE((*service)->Seal().ok());
  const std::shared_ptr<const std::vector<CellRect>> regions =
      (*service)->regions();
  EXPECT_TRUE(Partition::FromRects(grid, *regions).ok());
  EXPECT_EQ((*service)->store().num_records(),
            static_cast<long long>(warmup.size()) + streamed);
  EXPECT_EQ((*service)->store().num_records(),
            (*service)->store().sealed_records());
  EXPECT_GE((*service)->maintenance_stats().passes, 1);
}

// Long-stream retention: with retain_epochs set, the scheduler must keep
// the snapshot history bounded no matter how many epochs a stream seals —
// the leak the retention knob exists to close.
TEST(MaintenanceSchedulerTest, LongStreamKeepsSnapshotHistoryBounded) {
  const Grid grid = MakeGrid(16, 16);
  Rng rng(8);
  const AggregateBatch warmup = RandomBatch(rng, grid, 200);
  MaintenancePolicy policy;
  policy.seal_records = 1;    // Every tick with pending records seals.
  policy.drift_bound = -1.0;  // Seal-only: epochs advance fast.
  policy.poll_interval_seconds = 0.001;
  policy.retain_epochs = 3;
  FairIndexServiceOptions options = AutoOptions(4, 2, policy);
  options.auto_maintain = false;  // Drive ticks deterministically.
  auto service = FairIndexService::Create(grid, warmup, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  MaintenanceScheduler scheduler(service->get(), policy);
  for (int b = 0; b < 20; ++b) {
    ASSERT_TRUE((*service)->Ingest(RandomBatch(rng, grid, 15)).ok());
    ASSERT_TRUE(scheduler.TickNow());
    // The bound holds THROUGHOUT the stream, not just at the end.
    EXPECT_LE((*service)->store().history_size(), 3)
        << "after batch " << b;
  }
  EXPECT_EQ((*service)->store().epoch(), 20);
  EXPECT_EQ((*service)->store().history_size(), 3);
  EXPECT_EQ(scheduler.stats().epochs_retired,
            (*service)->store().epoch() + 1 - 3);
}

// Caller-driven maintenance differential: ticking a never-started
// scheduler after every ingest is the same maintenance as the hand loop
// callers used to write (seal or refine once `seal_records` are pending,
// then apply retention). The hand loop stays here as the oracle: both
// services must agree on epochs, published rects, sealed region
// aggregates (bitwise) and re-split totals after every batch.
TEST(MaintenanceSchedulerTest, CallerDrivenTickMatchesHandLoop) {
  const Grid grid = MakeGrid(24, 24);
  Rng rng(23);
  const AggregateBatch warmup = RandomBatch(rng, grid, 600);
  std::vector<AggregateBatch> batches;
  for (int b = 0; b < 24; ++b) {
    // Label drift concentrated in one block so refines re-split.
    batches.push_back(RandomBatch(rng, grid, 200, /*label_bias=*/0.9,
                                  /*block=*/10));
  }
  auto expect_same = [&](const FairIndexService& a,
                         const FairIndexService& b, const std::string& at) {
    EXPECT_EQ(a.store().epoch(), b.store().epoch()) << at;
    EXPECT_EQ(a.store().pending_records(), b.store().pending_records())
        << at;
    EXPECT_EQ(a.store().history_size(), b.store().history_size()) << at;
    EXPECT_EQ(a.total_resplits(), b.total_resplits()) << at;
    const std::vector<CellRect>& ra = *a.regions();
    const std::vector<CellRect>& rb = *b.regions();
    ASSERT_EQ(ra.size(), rb.size()) << at;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].row_begin, rb[i].row_begin) << at;
      EXPECT_EQ(ra[i].row_end, rb[i].row_end) << at;
      EXPECT_EQ(ra[i].col_begin, rb[i].col_begin) << at;
      EXPECT_EQ(ra[i].col_end, rb[i].col_end) << at;
    }
    const std::vector<RegionAggregate> qa = a.QueryRegions();
    const std::vector<RegionAggregate> qb = b.QueryRegions();
    ASSERT_EQ(qa.size(), qb.size()) << at;
    EXPECT_EQ(0, std::memcmp(qa.data(), qb.data(),
                             qa.size() * sizeof(RegionAggregate)))
        << at;
  };

  long long refine_resplits = 0;
  for (long long seal_records : {0LL, 500LL}) {
    for (double drift_bound : {-1.0, 0.02}) {
      for (int retain_epochs : {0, 3}) {
        const std::string label =
            "seal_records=" + std::to_string(seal_records) +
            " drift_bound=" + std::to_string(drift_bound) +
            " retain_epochs=" + std::to_string(retain_epochs);
        MaintenancePolicy policy;
        // 0 means "every batch" to the hand loop; the scheduler's
        // equivalent is a 1-record cadence.
        policy.seal_records = seal_records > 0 ? seal_records : 1;
        policy.drift_bound = drift_bound;
        policy.retain_epochs = retain_epochs;
        FairIndexServiceOptions options = AutoOptions(5, 2, policy);
        options.auto_maintain = false;
        options.refine.drift_bound = drift_bound;
        auto hand = FairIndexService::Create(grid, warmup, options);
        auto ticked = FairIndexService::Create(grid, warmup, options);
        ASSERT_TRUE(hand.ok()) << hand.status().ToString();
        ASSERT_TRUE(ticked.ok()) << ticked.status().ToString();
        MaintenanceScheduler scheduler(ticked->get(), policy);

        for (size_t b = 0; b < batches.size(); ++b) {
          ASSERT_TRUE((*hand)->Ingest(batches[b]).ok());
          if ((*hand)->store().pending_records() >= seal_records) {
            if (drift_bound >= 0.0) {
              ASSERT_TRUE((*hand)->MaybeRefine().ok());
            } else {
              ASSERT_TRUE((*hand)->Seal().ok());
            }
            if (retain_epochs > 0) (*hand)->ApplyRetention(retain_epochs);
          }
          ASSERT_TRUE((*ticked)->Ingest(batches[b]).ok());
          scheduler.TickNow();
          expect_same(**hand, **ticked,
                      label + " batch " + std::to_string(b));
        }
        EXPECT_EQ(scheduler.stats().errors, 0) << label;
        if (drift_bound >= 0.0) refine_resplits += (*hand)->total_resplits();
      }
    }
  }
  // The refine cases must actually re-split, or the differential would
  // only cover seals.
  EXPECT_GT(refine_resplits, 0);
}

}  // namespace
}  // namespace fairidx
