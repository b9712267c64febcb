// Tests for sealed-snapshot checkpoints (service/checkpoint.h): framed
// round trip of every CheckpointData field (cell sums, partition with
// region ids verbatim, regions, maintainer blob), atomic installation
// under injected I/O faults, corrupt-checkpoint skipping in
// LoadLatestCheckpoint, and the two pruning helpers.

#include "service/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "fault_injection.h"
#include "service/wal.h"

namespace fairidx {
namespace {

using testing_fault::FaultMode;
using testing_fault::FaultPlan;
using testing_fault::MakeFaultyFactory;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/fairidx_ckpt_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

CheckpointData MakeData(long long epoch) {
  CheckpointData data;
  data.rows = 2;
  data.cols = 3;
  data.epoch = epoch;
  data.sealed_records = 40 + epoch;
  data.wal_generation = 2;
  data.total_resplits = 5;
  data.algorithm = "fair_kd_tree";
  for (int i = 0; i < 6; ++i) {
    GridAggregates::PrefixEntry entry;
    entry.count = i + 0.0;
    entry.labels = i * 0.5;
    entry.scores = i * 0.25 + 0.125;
    entry.residuals = -0.5 * i;
    entry.cell_abs = 0.0625 * i;
    data.cell_sums.push_back(entry);
  }
  // Region ids deliberately NOT in first-appearance order: the round trip
  // must preserve them verbatim (maintainer state indexes regions by id).
  data.partition =
      Partition::FromCellMapExact({2, 2, 0, 1, 0, 1}, 3).value();
  data.regions = {CellRect{0, 1, 0, 3}, CellRect{1, 2, 0, 2},
                  CellRect{1, 2, 2, 3}};
  data.maintained_blob = std::string("tree-bytes\x00\x01\x7f", 13);
  return data;
}

TEST(CheckpointTest, RoundTripsEveryField) {
  const std::string dir = FreshDir("roundtrip");
  const CheckpointData data = MakeData(7);
  ASSERT_TRUE(WriteCheckpoint(dir, data).ok());

  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok()) << listed.status();
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ((*listed)[0].epoch, 7);
  EXPECT_EQ((*listed)[0].generation, 2);

  auto loaded = ReadCheckpoint((*listed)[0].path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->rows, data.rows);
  EXPECT_EQ(loaded->cols, data.cols);
  EXPECT_EQ(loaded->epoch, data.epoch);
  EXPECT_EQ(loaded->sealed_records, data.sealed_records);
  EXPECT_EQ(loaded->wal_generation, data.wal_generation);
  EXPECT_EQ(loaded->total_resplits, data.total_resplits);
  EXPECT_EQ(loaded->algorithm, data.algorithm);
  ASSERT_EQ(loaded->cell_sums.size(), data.cell_sums.size());
  for (size_t i = 0; i < data.cell_sums.size(); ++i) {
    EXPECT_EQ(loaded->cell_sums[i].count, data.cell_sums[i].count);
    EXPECT_EQ(loaded->cell_sums[i].labels, data.cell_sums[i].labels);
    EXPECT_EQ(loaded->cell_sums[i].scores, data.cell_sums[i].scores);
    EXPECT_EQ(loaded->cell_sums[i].residuals, data.cell_sums[i].residuals);
    EXPECT_EQ(loaded->cell_sums[i].cell_abs, data.cell_sums[i].cell_abs);
  }
  EXPECT_EQ(loaded->partition.num_regions(), 3);
  for (int cell = 0; cell < 6; ++cell) {
    EXPECT_EQ(loaded->partition.RegionOfCell(cell),
              data.partition.RegionOfCell(cell))
        << "cell " << cell;
  }
  ASSERT_EQ(loaded->regions.size(), data.regions.size());
  EXPECT_EQ(loaded->regions[1].row_begin, 1);
  EXPECT_EQ(loaded->regions[1].col_end, 2);
  EXPECT_EQ(loaded->maintained_blob, data.maintained_blob);
}

TEST(CheckpointTest, CorruptNewestFallsBackToOlderValidOne) {
  const std::string dir = FreshDir("fallback");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeData(3)).ok());
  ASSERT_TRUE(WriteCheckpoint(dir, MakeData(9)).ok());
  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);

  // Corrupt the newest file's body; the loader must skip it and return
  // the older valid checkpoint rather than fail or trust garbage.
  const std::string newest = (*listed)[1].path;
  {
    std::ifstream in(newest, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    std::string bytes = buffer.str();
    bytes[40] ^= 0x7e;
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(ReadCheckpoint(newest).ok());
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_EQ(latest->epoch, 3);
}

TEST(CheckpointTest, LoadLatestFailsCleanlyWithNoValidCheckpoint) {
  const std::string dir = FreshDir("none");
  std::filesystem::create_directories(dir);
  EXPECT_EQ(LoadLatestCheckpoint(dir).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(LoadLatestCheckpoint(dir + "/missing").status().code(),
            StatusCode::kNotFound);
}

TEST(CheckpointTest, TruncatedFileIsRejectedWithByteCounts) {
  const std::string dir = FreshDir("truncated");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeData(1)).ok());
  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok());
  const std::string path = (*listed)[0].path;
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = buffer.str();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 10));
  }
  const Status status = ReadCheckpoint(path).status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_NE(status.message().find("truncated body"), std::string::npos)
      << status;
}

// A full checkpoint whose body CRC is valid but declares 2^64-1 region
// rects: the reader must answer DataLoss instead of attempting the
// reserve (which throws out of a Status API).
TEST(CheckpointTest, HostileRegionCountIsDataLossNotAnAllocation) {
  // File = 16-byte frame header + body; the body ends with the partition
  // (u64 cell count, i32 region count, one i32 per cell), num_rects
  // (u64), the rects (16 bytes each) and the blob (u64 length + bytes).
  // Each case overwrites one count with a hostile value, re-seals the CRC
  // so the body parser sees it, and must get DataLoss naming the count.
  constexpr size_t kFrameHeader = 16;
  const CheckpointData data = MakeData(3);
  const size_t num_rects_from_end =
      (8 + data.maintained_blob.size()) + 16 * data.regions.size() + 8;
  const size_t num_cells = static_cast<size_t>(data.partition.num_cells());
  const size_t num_regions_from_end = num_rects_from_end + 4 * num_cells + 4;
  BinaryWriter max_regions;
  max_regions.PutI32(2147483647);
  struct Case {
    const char* name;
    size_t from_end;
    std::string value;
    const char* message;
  };
  const Case cases[] = {
      {"rects", num_rects_from_end, std::string(8, '\xff'), "region count"},
      {"regions", num_regions_from_end, max_regions.buffer(),
       "2147483647 regions exceed 6 cells"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string dir = FreshDir(std::string("hostile_") + c.name);
    ASSERT_TRUE(WriteCheckpoint(dir, data).ok());
    auto listed = ListCheckpoints(dir);
    ASSERT_TRUE(listed.ok());
    const std::string path = (*listed)[0].path;
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      std::stringstream buffer;
      buffer << in.rdbuf();
      bytes = buffer.str();
    }
    bytes.replace(bytes.size() - c.from_end, c.value.size(), c.value);
    BinaryWriter crc;
    crc.PutU32(
        Crc32(bytes.data() + kFrameHeader, bytes.size() - kFrameHeader));
    bytes.replace(12, 4, crc.buffer());
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const Status status = ReadCheckpoint(path).status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
    EXPECT_NE(status.message().find(c.message), std::string::npos)
        << status;
  }
}

TEST(CheckpointTest, FaultedWriteInstallsNothing) {
  const std::string dir = FreshDir("faulted");
  ASSERT_TRUE(WriteCheckpoint(dir, MakeData(2)).ok());

  // Fail each stage of the next write (append, sync, close): the .tmp
  // staging must keep a half-written epoch-5 checkpoint from ever
  // becoming loadable, and the epoch-2 one must keep working.
  for (long long fault_at = 0; fault_at < 3; ++fault_at) {
    FaultPlan plan;
    plan.mode = FaultMode::kFailOp;
    plan.ops_until_fault.store(fault_at);
    EXPECT_FALSE(WriteCheckpoint(dir, MakeData(5),
                                 MakeFaultyFactory(&plan))
                     .ok())
        << "fault at op " << fault_at;
    auto latest = LoadLatestCheckpoint(dir);
    ASSERT_TRUE(latest.ok()) << latest.status();
    EXPECT_EQ(latest->epoch, 2);
  }
  // Dropped writes (crash before anything landed): same story.
  FaultPlan plan;
  plan.mode = FaultMode::kDropWrites;
  plan.ops_until_fault.store(0);
  (void)WriteCheckpoint(dir, MakeData(6), MakeFaultyFactory(&plan));
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest->epoch, 2);
}

TEST(CheckpointTest, PruneCheckpointsKeepsTheNewest) {
  const std::string dir = FreshDir("prune");
  for (long long epoch : {1, 4, 6, 9}) {
    ASSERT_TRUE(WriteCheckpoint(dir, MakeData(epoch)).ok());
  }
  EXPECT_EQ(PruneCheckpoints(dir, 0).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(PruneCheckpoints(dir, 2).ok());
  auto listed = ListCheckpoints(dir);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ((*listed)[0].epoch, 6);
  EXPECT_EQ((*listed)[1].epoch, 9);
}

TEST(CheckpointTest, PruneWalSegmentsDropsCoveredEpochsAcrossGenerations) {
  const std::string dir = FreshDir("prune_wal");
  std::filesystem::create_directories(dir);
  for (const char* name :
       {"wal-1-1.log", "wal-1-2.log", "wal-2-3.log", "wal-2-4.log"}) {
    std::ofstream(dir + "/" + name) << "x";
  }
  ASSERT_TRUE(PruneWalSegments(dir, /*through_epoch=*/3).ok());
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 1u);
  EXPECT_EQ((*segments)[0].epoch, 4);
}

}  // namespace
}  // namespace fairidx
