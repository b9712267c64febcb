// Background checkpoint writes: a checkpointing Seal/MaybeRefine captures
// the sealed state and returns while one background write per service
// installs the file and prunes. These tests pin what must survive that
// move off the caller's thread:
//   * a failed (torn) background delta write surfaces from the next call
//     that waits for it, prunes nothing — no WAL segment past the last
//     durable checkpoint goes — and forces the next checkpoint to be
//     full, and recovery stays bit-identical to an uninterrupted run;
//   * destroying a service waits for its in-flight write, so a clean
//     close leaves the captured checkpoint on disk;
//   * Checkpoint() and WaitForCheckpoint() race a scheduler-driven
//     maintenance loop without errors, and the run still recovers
//     bit-identically.
// The fault and stall seams wrap only checkpoint files (checkpoint-* and
// delta-*): WAL appends run through the plain file, so the injected
// fault lands exactly on the write under test.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fault_injection.h"
#include "service/checkpoint.h"
#include "service/fair_index_service.h"

namespace fairidx {
namespace {

using testing_fault::FaultInjectingFile;
using testing_fault::FaultMode;
using testing_fault::FaultPlan;

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

AggregateBatch RandomRecords(Rng& rng, const Grid& grid, int n) {
  AggregateBatch batch;
  for (int i = 0; i < n; ++i) {
    batch.Append(static_cast<int>(rng.NextBounded(grid.num_cells())),
                 rng.Bernoulli(0.5) ? 1 : 0, rng.NextDouble());
  }
  return batch;
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/fairidx_background_ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

bool IsCheckpointPath(const std::string& path) {
  const std::string name = std::filesystem::path(path).filename().string();
  return name.rfind("checkpoint-", 0) == 0 || name.rfind("delta-", 0) == 0;
}

/// Routes checkpoint files through `wrap`, every other file (the WAL)
/// through the plain OpenWritableFile.
template <typename Wrap>
WritableFileFactory CheckpointOnlyFactory(Wrap wrap) {
  return [wrap](const std::string& path)
             -> Result<std::unique_ptr<WritableFile>> {
    FAIRIDX_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                             OpenWritableFile(path));
    if (!IsCheckpointPath(path)) return base;
    return wrap(std::move(base));
  };
}

/// A checkpoint file whose Sync blocks until `release` is ready, so a
/// test can hold a background write in flight.
class StalledFile : public WritableFile {
 public:
  StalledFile(std::unique_ptr<WritableFile> base,
              std::shared_future<void> release)
      : base_(std::move(base)), release_(std::move(release)) {}
  Status Append(const char* data, size_t size) override {
    return base_->Append(data, size);
  }
  Status Sync() override {
    release_.wait();
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  std::shared_future<void> release_;
};

FairIndexServiceOptions DurableOptions(const std::string& dir) {
  FairIndexServiceOptions options;
  options.algorithm = "fair_kd_tree";
  options.build.height = 3;
  options.durability.wal_dir = dir;
  options.durability.checkpoint_interval = 1;
  options.durability.full_snapshot_interval = 4;
  // Every seal flushes the group-commit buffer, so after a MaybeRefine
  // the whole log is in the files.
  options.durability.fsync = WalFsync::kNone;
  return options;
}

struct ServiceState {
  long long epoch = 0;
  long long num_records = 0;
  long long total_resplits = 0;
  std::vector<CellRect> regions;
  std::shared_ptr<const GridAggregates> snapshot;
};

ServiceState CaptureState(const FairIndexService& service) {
  return ServiceState{service.store().epoch(), service.store().num_records(),
                      service.total_resplits(), *service.regions(),
                      service.store().snapshot()};
}

void ExpectStateBitEq(const ServiceState& a, const ServiceState& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.num_records, b.num_records);
  EXPECT_EQ(a.total_resplits, b.total_resplits);
  EXPECT_TRUE(a.regions == b.regions);
  ASSERT_EQ(a.snapshot->rows(), b.snapshot->rows());
  ASSERT_EQ(a.snapshot->cols(), b.snapshot->cols());
  for (int r = 0; r <= a.snapshot->rows(); ++r) {
    for (int c = 0; c <= a.snapshot->cols(); ++c) {
      const RegionAggregate x = a.snapshot->Query(CellRect{0, r, 0, c});
      const RegionAggregate y = b.snapshot->Query(CellRect{0, r, 0, c});
      ASSERT_EQ(x.count, y.count) << "(" << r << "," << c << ")";
      ASSERT_EQ(x.sum_labels, y.sum_labels);
      ASSERT_EQ(x.sum_scores, y.sum_scores);
      ASSERT_EQ(x.sum_residuals, y.sum_residuals);
      ASSERT_EQ(x.sum_cell_abs_miscalibration,
                y.sum_cell_abs_miscalibration);
    }
  }
}

std::vector<long long> WalEpochs(const std::string& dir) {
  std::vector<long long> epochs;
  const std::vector<WalSegmentInfo> segments = ListWalSegments(dir).value();
  for (const WalSegmentInfo& segment : segments) {
    epochs.push_back(segment.epoch);
  }
  return epochs;
}

struct Stream {
  Grid grid = MakeGrid(8, 8);
  AggregateBatch warmup;
  std::vector<AggregateBatch> batches;
};

Stream MakeStream(uint64_t seed, int num_batches) {
  Stream stream;
  Rng rng(seed);
  stream.warmup = RandomRecords(rng, stream.grid, 200);
  for (int i = 0; i < num_batches; ++i) {
    stream.batches.push_back(RandomRecords(rng, stream.grid, 40));
  }
  return stream;
}

// A torn background delta write: the capturing MaybeRefine succeeds, the
// next checkpointing MaybeRefine reports the failure, nothing is pruned
// past the last durable checkpoint, the checkpoint after that is full,
// and both a crash at the failure and a clean close recover bit-identical
// to a run that never failed.
TEST(BackgroundCheckpointTest, FailedDeltaWriteSurfacesAndForcesFull) {
  const Stream stream = MakeStream(21, 6);
  const std::string ref_dir = FreshDir("fail_ref");
  FairIndexServiceOptions ref_options = DurableOptions(ref_dir);
  ref_options.durability.full_snapshot_interval = 8;
  auto reference =
      FairIndexService::Create(stream.grid, stream.warmup, ref_options);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (const AggregateBatch& batch : stream.batches) {
    ASSERT_TRUE((*reference)->Ingest(batch).ok());
    ASSERT_TRUE((*reference)->MaybeRefine().ok());
  }
  const ServiceState want = CaptureState(**reference);
  reference->reset();

  const std::string dir = FreshDir("fail");
  FaultPlan plan;  // Unarmed: ops_until_fault < 0.
  plan.mode = FaultMode::kShortWrite;
  FairIndexServiceOptions options = DurableOptions(dir);
  // Every 8th checkpoint full: without the failure, epochs 1-7 would
  // all be deltas on full@0.
  options.durability.full_snapshot_interval = 8;
  options.durability.file_factory =
      CheckpointOnlyFactory([&plan](std::unique_ptr<WritableFile> base)
                                -> Result<std::unique_ptr<WritableFile>> {
        return std::unique_ptr<WritableFile>(
            std::make_unique<FaultInjectingFile>(std::move(base), &plan));
      });
  auto created = FairIndexService::Create(stream.grid, stream.warmup, options);
  ASSERT_TRUE(created.ok()) << created.status();
  FairIndexService& service = **created;

  // Epoch 1: full@0 + delta@1 become durable.
  ASSERT_TRUE(service.Ingest(stream.batches[0]).ok());
  ASSERT_TRUE(service.MaybeRefine().ok());
  ASSERT_TRUE(service.WaitForCheckpoint().ok());
  EXPECT_EQ(service.last_checkpoint_epoch(), 1);
  ASSERT_EQ(ListDeltaCheckpoints(dir)->size(), 1u);

  // Epoch 2: the delta's first append tears. The capturing call returns
  // Ok; the write fails behind it.
  plan.ops_until_fault.store(0);
  ASSERT_TRUE(service.Ingest(stream.batches[1]).ok());
  ASSERT_TRUE(service.MaybeRefine().ok());

  // Epoch 3: the next checkpointing call waits for that write and
  // reports it (its own seal and refine still happened).
  ASSERT_TRUE(service.Ingest(stream.batches[2]).ok());
  const auto failed = service.MaybeRefine();
  EXPECT_FALSE(failed.ok());
  EXPECT_GE(plan.faults_fired.load(), 1);
  plan.ops_until_fault.store(-1);
  EXPECT_EQ(service.store().epoch(), 3);
  EXPECT_EQ(service.last_checkpoint_epoch(), 1);
  // Reported once: nothing is in flight now.
  EXPECT_TRUE(service.WaitForCheckpoint().ok());
  // The failed write pruned nothing: every segment past the durable
  // checkpoint's epoch is still on disk, and the newest loadable state
  // is the delta@1 chain.
  const std::vector<long long> segments = WalEpochs(dir);
  for (long long epoch : {2, 3}) {
    EXPECT_NE(std::find(segments.begin(), segments.end(), epoch),
              segments.end())
        << "WAL segment for epoch " << epoch << " was pruned";
  }
  ASSERT_EQ(ListDeltaCheckpoints(dir)->size(), 1u);
  EXPECT_EQ(LoadLatestCheckpoint(dir)->epoch, 1);

  // A crash right here recovers from delta@1 plus the WAL tail.
  const ServiceState at_failure = CaptureState(service);
  const std::string crash_dir = FreshDir("fail_crash");
  std::filesystem::copy(dir, crash_dir);
  {
    FairIndexServiceOptions crash_options = DurableOptions(crash_dir);
    auto recovered = FairIndexService::Recover(stream.grid, crash_options);
    ASSERT_TRUE(recovered.ok()) << recovered.status();
    ExpectStateBitEq(CaptureState(**recovered), at_failure);
  }

  // Epoch 4: the next checkpoint is full, where the cadence alone would
  // have written a delta.
  ASSERT_TRUE(service.Ingest(stream.batches[3]).ok());
  ASSERT_TRUE(service.MaybeRefine().ok());
  ASSERT_TRUE(service.WaitForCheckpoint().ok());
  EXPECT_EQ(service.last_checkpoint_epoch(), 4);
  auto fulls = ListCheckpoints(dir);
  ASSERT_TRUE(fulls.ok());
  ASSERT_FALSE(fulls->empty());
  EXPECT_EQ(fulls->back().epoch, 4);

  for (size_t i = 4; i < stream.batches.size(); ++i) {
    ASSERT_TRUE(service.Ingest(stream.batches[i]).ok());
    ASSERT_TRUE(service.MaybeRefine().ok());
  }
  ExpectStateBitEq(CaptureState(service), want);
  created->reset();
  auto recovered = FairIndexService::Recover(stream.grid, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectStateBitEq(CaptureState(**recovered), want);
}

// A failed inline write: Checkpoint() returns the error itself, and the
// next periodic checkpoint is full.
TEST(BackgroundCheckpointTest, FailedExplicitCheckpointForcesFull) {
  const Stream stream = MakeStream(22, 3);
  const std::string dir = FreshDir("explicit_fail");
  FaultPlan plan;
  plan.mode = FaultMode::kFailOp;
  FairIndexServiceOptions options = DurableOptions(dir);
  options.durability.checkpoint_interval = 2;
  options.durability.file_factory =
      CheckpointOnlyFactory([&plan](std::unique_ptr<WritableFile> base)
                                -> Result<std::unique_ptr<WritableFile>> {
        return std::unique_ptr<WritableFile>(
            std::make_unique<FaultInjectingFile>(std::move(base), &plan));
      });
  auto service = FairIndexService::Create(stream.grid, stream.warmup, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE((*service)->Ingest(stream.batches[0]).ok());
  ASSERT_TRUE((*service)->Seal().ok());  // Epoch 1: below the interval.
  plan.ops_until_fault.store(0);
  EXPECT_FALSE((*service)->Checkpoint().ok());
  plan.ops_until_fault.store(-1);
  EXPECT_EQ((*service)->last_checkpoint_epoch(), 0);
  EXPECT_TRUE((*service)->WaitForCheckpoint().ok());

  // The cadence counts from the failed capture at epoch 1, so epoch 3
  // is the next periodic checkpoint, full where a delta was due.
  ASSERT_TRUE((*service)->Ingest(stream.batches[1]).ok());
  ASSERT_TRUE((*service)->MaybeRefine().ok());
  ASSERT_TRUE((*service)->Ingest(stream.batches[2]).ok());
  ASSERT_TRUE((*service)->MaybeRefine().ok());
  ASSERT_TRUE((*service)->WaitForCheckpoint().ok());
  EXPECT_EQ((*service)->last_checkpoint_epoch(), 3);
  EXPECT_EQ(ListCheckpoints(dir)->back().epoch, 3);
  EXPECT_TRUE(ListDeltaCheckpoints(dir)->empty());
}

// Destroying the service with a write in flight waits for it: the
// captured checkpoint is on disk after the close, and recovery loads it.
TEST(BackgroundCheckpointTest, DestructorWaitsForInFlightWrite) {
  const Stream stream = MakeStream(23, 2);
  const std::string dir = FreshDir("destroy");
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  // Create writes its full@0 inline through the stall seam too.
  release.set_value();
  std::promise<void> hold;
  std::shared_future<void> held = hold.get_future().share();
  std::atomic<bool> stall{false};
  FairIndexServiceOptions options = DurableOptions(dir);
  options.durability.file_factory = CheckpointOnlyFactory(
      [&stall, released, held](std::unique_ptr<WritableFile> base)
          -> Result<std::unique_ptr<WritableFile>> {
        return std::unique_ptr<WritableFile>(std::make_unique<StalledFile>(
            std::move(base), stall.load() ? held : released));
      });
  auto service = FairIndexService::Create(stream.grid, stream.warmup, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE((*service)->Ingest(stream.batches[0]).ok());
  ASSERT_TRUE((*service)->MaybeRefine().ok());
  ASSERT_TRUE((*service)->WaitForCheckpoint().ok());

  // No ASSERT until the reset below releases the held write: an early
  // return would leave the destructor waiting on it forever.
  stall.store(true);
  EXPECT_TRUE((*service)->Ingest(stream.batches[1]).ok());
  EXPECT_TRUE((*service)->MaybeRefine().ok());  // Epoch 2, write held.
  EXPECT_EQ((*service)->last_checkpoint_epoch(), 1);
  EXPECT_EQ(LoadLatestCheckpoint(dir)->epoch, 1);
  const ServiceState closed = CaptureState(**service);

  std::thread releaser([&hold] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    hold.set_value();
  });
  service->reset();  // Blocks until the held write lands.
  releaser.join();
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 2);

  FairIndexServiceOptions plain = DurableOptions(dir);
  auto recovered = FairIndexService::Recover(stream.grid, plain);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectStateBitEq(CaptureState(**recovered), closed);
}

// Explicit Checkpoint() and WaitForCheckpoint() calls race the service's
// own maintenance loop, whose passes checkpoint every epoch in the
// background: every call succeeds, the durable epoch never moves
// backwards, and the run recovers bit-identically.
TEST(BackgroundCheckpointTest, ExplicitCallsRaceMaintenanceLoop) {
  const Stream stream = MakeStream(24, 60);
  const std::string dir = FreshDir("race");
  FairIndexServiceOptions options = DurableOptions(dir);
  options.durability.full_snapshot_interval = 3;
  auto created = FairIndexService::Create(stream.grid, stream.warmup, options);
  ASSERT_TRUE(created.ok()) << created.status();
  FairIndexService& service = **created;
  MaintenancePolicy policy;
  policy.seal_records = 80;
  policy.drift_bound = 0.02;
  policy.poll_interval_seconds = 0.001;
  ASSERT_TRUE(service.StartMaintenance(policy).ok());

  std::atomic<bool> done{false};
  std::atomic<int> explicit_errors{0};
  std::atomic<int> went_backwards{0};
  std::thread racer([&] {
    long long seen = 0;
    int round = 0;
    while (!done.load()) {
      const Status status = (round++ % 2 == 0) ? service.Checkpoint()
                                               : service.WaitForCheckpoint();
      if (!status.ok()) explicit_errors.fetch_add(1);
      const long long epoch = service.last_checkpoint_epoch();
      if (epoch < seen) went_backwards.fetch_add(1);
      seen = epoch;
      std::this_thread::yield();
    }
  });
  for (const AggregateBatch& batch : stream.batches) {
    ASSERT_TRUE(service.Ingest(batch).ok());
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  done.store(true);
  racer.join();
  service.StopMaintenance();
  EXPECT_EQ(explicit_errors.load(), 0);
  EXPECT_EQ(went_backwards.load(), 0);
  EXPECT_EQ(service.maintenance_stats().errors, 0);
  EXPECT_GT(service.maintenance_stats().passes, 0);
  ASSERT_TRUE(service.Seal().ok());
  ASSERT_TRUE(service.WaitForCheckpoint().ok());
  EXPECT_EQ(service.last_checkpoint_epoch(), service.store().epoch());

  const ServiceState closed = CaptureState(service);
  created->reset();
  auto recovered = FairIndexService::Recover(stream.grid, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  ExpectStateBitEq(CaptureState(**recovered), closed);
}

// Without durability nothing is ever in flight.
TEST(BackgroundCheckpointTest, NonDurableServiceHasNothingToWaitFor) {
  const Stream stream = MakeStream(25, 1);
  FairIndexServiceOptions options;
  options.build.height = 3;
  auto service = FairIndexService::Create(stream.grid, stream.warmup, options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE((*service)->Ingest(stream.batches[0]).ok());
  ASSERT_TRUE((*service)->MaybeRefine().ok());
  EXPECT_TRUE((*service)->WaitForCheckpoint().ok());
  EXPECT_EQ((*service)->last_checkpoint_epoch(), 0);
  EXPECT_EQ((*service)->max_checkpoint_stall_us(), 0);
}

}  // namespace
}  // namespace fairidx
