// Equivalence and concurrency tests for the epoch-based ShardedDeltaStore:
// a sealed snapshot must be BIT-identical to a from-scratch
// GridAggregates::Build over the same batches in sequence order — at any
// shard count, after any seal cadence, and under
// concurrent multi-threaded ingest + query + seal interleavings (the
// stress tests here are also the ThreadSanitizer targets for the serving
// layer).

#include "service/sharded_delta_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "record_log_oracle.h"
#include "service/wal.h"

namespace fairidx {
namespace {

Grid MakeGrid(int rows, int cols) {
  return Grid::Create(rows, cols,
                      BoundingBox{0, 0, static_cast<double>(cols),
                                  static_cast<double>(rows)})
      .value();
}

AggregateBatch RandomBatch(Rng& rng, const Grid& grid, int n) {
  AggregateBatch batch;
  for (int i = 0; i < n; ++i) {
    batch.Append(static_cast<int>(rng.NextBounded(grid.num_cells())),
                 rng.Bernoulli(0.5) ? 1 : 0, rng.NextDouble());
  }
  return batch;
}

void ExpectAggBitEq(const RegionAggregate& a, const RegionAggregate& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum_labels, b.sum_labels);
  EXPECT_EQ(a.sum_scores, b.sum_scores);
  EXPECT_EQ(a.sum_residuals, b.sum_residuals);
  EXPECT_EQ(a.sum_cell_abs_miscalibration, b.sum_cell_abs_miscalibration);
}

// Equality of every prefix rectangle {[0,r) x [0,c)} pins the two prefix
// structures bit for bit (every stored corner entry is one such query).
void ExpectSnapshotBitEq(const GridAggregates& sealed,
                         const GridAggregates& replayed) {
  ASSERT_EQ(sealed.rows(), replayed.rows());
  ASSERT_EQ(sealed.cols(), replayed.cols());
  for (int r = 0; r <= sealed.rows(); ++r) {
    for (int c = 0; c <= sealed.cols(); ++c) {
      ExpectAggBitEq(sealed.Query(CellRect{0, r, 0, c}),
                     replayed.Query(CellRect{0, r, 0, c}));
    }
  }
}

// Serial oracle: GridAggregates::Build over the warmup plus every batch
// in `order`, concatenated in that order.
GridAggregates SerialReplay(const Grid& grid, const AggregateBatch& warmup,
                            const std::vector<AggregateBatch>& batches,
                            const std::vector<size_t>& order) {
  AggregateBatch log = warmup;
  for (size_t index : order) {
    testing_oracle::AppendRecords(batches[index], &log);
  }
  return testing_oracle::BuildFromScratch(grid, log);
}

TEST(ShardedDeltaStoreTest, SealedSnapshotMatchesSerialReplayAtAnyShardCount) {
  const Grid grid = MakeGrid(16, 12);
  Rng data_rng(1234);
  const AggregateBatch warmup = RandomBatch(data_rng, grid, 300);
  std::vector<AggregateBatch> batches;
  for (int b = 0; b < 24; ++b) {
    batches.push_back(
        RandomBatch(data_rng, grid, 1 + static_cast<int>(
                                            data_rng.NextBounded(60))));
  }
  std::vector<size_t> order(batches.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (int shards : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE(shards);
    ShardedDeltaStoreOptions options;
    options.num_shards = shards;
    options.num_threads = 4;
    // Pin the sharded range-fold path itself, even on a workerless pool.
    options.force_sharded_fold = true;
    auto store = ShardedDeltaStore::Build(grid, warmup, options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();

    // Epoch 0 covers exactly the warmup.
    ExpectSnapshotBitEq(*(*store)->snapshot(),
                        SerialReplay(grid, warmup, batches, {}));

    // Uneven seal cadence: fold after batches 5, 6 and 23, verifying the
    // sealed prefix equals the serial replay of that batch PREFIX each
    // time (not just at the end).
    std::vector<size_t> sealed_prefix;
    size_t next = 0;
    for (size_t cut : {size_t{6}, size_t{7}, batches.size()}) {
      for (; next < cut; ++next) {
        auto seq = (*store)->Ingest(batches[next]);
        ASSERT_TRUE(seq.ok());
        EXPECT_EQ(*seq, static_cast<long long>(next));
        sealed_prefix.push_back(next);
      }
      ASSERT_TRUE((*store)->Seal().ok());
      ExpectSnapshotBitEq(*(*store)->snapshot(),
                          SerialReplay(grid, warmup, batches,
                                       sealed_prefix));
    }
    EXPECT_EQ((*store)->epoch(), 3);
    EXPECT_EQ((*store)->pending_records(), 0);
    EXPECT_EQ((*store)->num_records(), (*store)->sealed_records());
  }
}

TEST(ShardedDeltaStoreTest, ResidualsFollowTheOverlayContract) {
  const Grid grid = MakeGrid(6, 5);
  Rng rng(77);
  AggregateBatch warmup = RandomBatch(rng, grid, 40);
  AggregateBatch batch = RandomBatch(rng, grid, 25);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch.residuals.push_back(rng.NextDouble() - 0.5);
  }
  auto store = ShardedDeltaStore::Build(grid, warmup,
                                        ShardedDeltaStoreOptions{3, 2});
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Ingest(batch).ok());
  ASSERT_TRUE((*store)->Seal().ok());

  // The warmup keeps its default residuals, the batch its explicit ones.
  ExpectSnapshotBitEq(*(*store)->snapshot(),
                      SerialReplay(grid, warmup, {batch}, {0}));
}

TEST(ShardedDeltaStoreTest, RejectsBadBatchesAtomically) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(5);
  auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 20),
                                        ShardedDeltaStoreOptions{2, 1});
  ASSERT_TRUE(store.ok());
  const long long before = (*store)->num_records();

  AggregateBatch bad = RandomBatch(rng, grid, 10);
  bad.cell_ids[7] = grid.num_cells();  // Out of range, mid-batch.
  EXPECT_FALSE((*store)->Ingest(bad).ok());
  AggregateBatch mismatched = RandomBatch(rng, grid, 3);
  mismatched.scores.pop_back();
  EXPECT_FALSE((*store)->Ingest(mismatched).ok());

  // Nothing from the rejected batches leaked into the store: the epoch
  // does not advance (nothing pending) and counters are untouched.
  EXPECT_EQ((*store)->num_records(), before);
  EXPECT_EQ((*store)->pending_records(), 0);
  ASSERT_TRUE((*store)->Seal().ok());
  EXPECT_EQ((*store)->epoch(), 0);
}

TEST(ShardedDeltaStoreTest, EmptySealKeepsEpochAndSnapshot) {
  const Grid grid = MakeGrid(5, 5);
  Rng rng(9);
  auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 30),
                                        ShardedDeltaStoreOptions{4, 2});
  ASSERT_TRUE(store.ok());
  const std::shared_ptr<const GridAggregates> epoch0 = (*store)->snapshot();
  auto sealed = (*store)->Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->epoch, 0);
  // Identical object, not merely identical contents: nothing was folded,
  // and the returned pair carries the same pinned snapshot.
  EXPECT_EQ((*store)->snapshot().get(), epoch0.get());
  EXPECT_EQ(sealed->snapshot.get(), epoch0.get());
}

TEST(ShardedDeltaStoreTest, SnapshotsStayValidAcrossLaterEpochs) {
  const Grid grid = MakeGrid(8, 8);
  Rng rng(21);
  const AggregateBatch warmup = RandomBatch(rng, grid, 50);
  auto store = ShardedDeltaStore::Build(grid, warmup,
                                        ShardedDeltaStoreOptions{2, 2});
  ASSERT_TRUE(store.ok());
  const std::shared_ptr<const GridAggregates> epoch0 = (*store)->snapshot();
  const RegionAggregate before = epoch0->Total();
  ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 40)).ok());
  ASSERT_TRUE((*store)->Seal().ok());
  // The pinned epoch-0 snapshot still answers exactly as before the seal.
  ExpectAggBitEq(epoch0->Total(), before);
  EXPECT_GT((*store)->snapshot()->Total().count, before.count);
}

// The concurrency pin: many writer threads ingesting interleaved with
// seals and reader queries must produce sealed snapshots bit-identical to
// the serial single-writer replay of the batches in the sequence order
// the store actually assigned. Run under TSan in CI.
TEST(ShardedDeltaStoreTest, ConcurrentIngestSealQueryMatchesSerialReplay) {
  const Grid grid = MakeGrid(24, 18);
  Rng data_rng(4321);
  const AggregateBatch warmup = RandomBatch(data_rng, grid, 200);
  constexpr int kWriters = 4;
  constexpr int kBatchesPerWriter = 30;
  std::vector<std::vector<AggregateBatch>> per_writer(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    for (int b = 0; b < kBatchesPerWriter; ++b) {
      per_writer[w].push_back(RandomBatch(
          data_rng, grid,
          1 + static_cast<int>(data_rng.NextBounded(40))));
    }
  }

  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    ShardedDeltaStoreOptions options;
    options.num_shards = shards;
    options.num_threads = 4;
    options.force_sharded_fold = true;
    auto store = ShardedDeltaStore::Build(grid, warmup, options);
    ASSERT_TRUE(store.ok());

    // seq -> (writer, batch) mapping, filled by the writers.
    std::vector<std::pair<int, int>> by_seq(
        static_cast<size_t>(kWriters) * kBatchesPerWriter);
    std::atomic<int> writers_done{0};
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        for (int b = 0; b < kBatchesPerWriter; ++b) {
          auto seq = (*store)->Ingest(per_writer[w][b]);
          if (!seq.ok()) {
            failed.store(true);
            break;
          }
          by_seq[static_cast<size_t>(*seq)] = {w, b};
        }
        writers_done.fetch_add(1);
      });
    }
    // A sealer thread folding epochs while writers run, and a reader
    // thread hammering sealed-snapshot queries; neither may disturb the
    // writers or tear a snapshot.
    threads.emplace_back([&] {
      while (writers_done.load() < kWriters) {
        if (!(*store)->Seal().ok()) failed.store(true);
        std::this_thread::yield();
      }
    });
    threads.emplace_back([&] {
      const CellRect half{0, grid.rows() / 2, 0, grid.cols()};
      double sink = 0.0;
      while (writers_done.load() < kWriters) {
        // Both queries must read the SAME pinned snapshot: two separate
        // snapshot() calls may straddle a seal and legitimately disagree.
        const std::shared_ptr<const GridAggregates> pinned =
            (*store)->snapshot();
        const RegionAggregate whole = pinned->Total();
        const RegionAggregate part = pinned->Query(half);
        // Monotone sanity on one immutable snapshot; values themselves
        // are timing-dependent.
        sink += whole.count + part.count;
        if (part.count > whole.count + 0.5) failed.store(true);
      }
      EXPECT_GE(sink, 0.0);
    });
    for (std::thread& thread : threads) thread.join();
    ASSERT_FALSE(failed.load());
    ASSERT_TRUE((*store)->Seal().ok());
    EXPECT_EQ((*store)->pending_records(), 0);

    // Replay serially in assigned-sequence order and pin bit-identity.
    AggregateBatch log = warmup;
    for (const auto& [w, b] : by_seq) {
      testing_oracle::AppendRecords(per_writer[w][b], &log);
    }
    ExpectSnapshotBitEq(*(*store)->snapshot(),
                        testing_oracle::BuildFromScratch(grid, log));
  }
}

TEST(ShardedDeltaStoreTest, EmptyBatchIsAcceptedAndDiscardedAtSeal) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(11);
  auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 20),
                                        ShardedDeltaStoreOptions{2, 1});
  ASSERT_TRUE(store.ok());

  // An empty batch is a valid no-op: it consumes a sequence number but
  // adds no records, so the next seal has nothing to capture.
  auto seq = (*store)->Ingest(AggregateBatch{});
  ASSERT_TRUE(seq.ok()) << seq.status();
  EXPECT_EQ((*store)->num_records(), 20);
  EXPECT_EQ((*store)->pending_records(), 0);
  auto sealed = (*store)->Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed->epoch, 0);
  // The sequence counter still advanced: a later real batch continues
  // strictly after the empty one.
  auto next = (*store)->Ingest(RandomBatch(rng, grid, 3));
  ASSERT_TRUE(next.ok());
  EXPECT_GT(*next, *seq);
}

TEST(ShardedDeltaStoreTest, IngestAfterWalCloseIsRejectedAtomically) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(12);
  const std::string dir =
      ::testing::TempDir() + "/fairidx_store_walclose";
  std::filesystem::remove_all(dir);
  auto wal = WalWriter::Open(dir, 1, 1, WalOptions{});
  ASSERT_TRUE(wal.ok()) << wal.status();
  ShardedDeltaStoreOptions options;
  options.num_shards = 2;
  options.wal = wal->get();
  auto store =
      ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 20), options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 5)).ok());
  const long long before_records = (*store)->num_records();
  const long long before_pending = (*store)->pending_records();

  // Once the log can no longer accept the record, the batch must be
  // rejected whole — log-before-apply means the store and the log never
  // disagree about what was accepted.
  ASSERT_TRUE((*wal)->Close().ok());
  EXPECT_FALSE((*store)->Ingest(RandomBatch(rng, grid, 5)).ok());
  EXPECT_EQ((*store)->num_records(), before_records);
  EXPECT_EQ((*store)->pending_records(), before_pending);
  // Sealing is equally off the table (the seal record cannot be logged),
  // so the pending records stay pending rather than vanish.
  EXPECT_FALSE((*store)->Seal().ok());
  EXPECT_EQ((*store)->pending_records(), before_pending);
}

TEST(ShardedDeltaStoreTest, RetainEpochsKeepsNewestAndReaderPinned) {
  const Grid grid = MakeGrid(4, 4);
  Rng rng(13);
  auto store = ShardedDeltaStore::Build(grid, RandomBatch(rng, grid, 10),
                                        ShardedDeltaStoreOptions{2, 1});
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->history_size(), 1);  // Epoch 0 seeds the history.

  // A reader pins epoch 2's snapshot; epochs keep sealing past it.
  std::shared_ptr<const GridAggregates> pinned;
  for (int epoch = 1; epoch <= 5; ++epoch) {
    ASSERT_TRUE((*store)->Ingest(RandomBatch(rng, grid, 4)).ok());
    ASSERT_TRUE((*store)->Seal().ok());
    if (epoch == 2) pinned = (*store)->snapshot();
  }
  EXPECT_EQ((*store)->history_size(), 6);

  // keep_last = 2 keeps epochs 4 and 5 plus the reader-pinned epoch 2.
  EXPECT_EQ((*store)->RetainEpochs(2), 3);
  EXPECT_EQ((*store)->history_size(), 3);
  // The pinned snapshot stays fully usable regardless of retention.
  EXPECT_GT(pinned->Total().count, 0.0);
  // Releasing the pin lets the next retention pass drop it.
  pinned.reset();
  EXPECT_EQ((*store)->RetainEpochs(2), 1);
  EXPECT_EQ((*store)->history_size(), 2);
  // keep_last < 1 clamps to "newest only": the serving snapshot can
  // never be retired out from under readers.
  EXPECT_EQ((*store)->RetainEpochs(0), 1);
  EXPECT_EQ((*store)->history_size(), 1);
  EXPECT_GT((*store)->snapshot()->Total().count, 0.0);
}

}  // namespace
}  // namespace fairidx
