// Tests for the write-ahead log (service/wal.h): record framing and
// round-trip fidelity, segment-per-epoch rotation, the torn-tail contract
// (a truncated or corrupt FINAL record is dropped; damage anywhere
// earlier is a hard DataLoss error), fsync-mode plumbing, and the
// fault-injection seam.

#include "service/wal.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "fault_injection.h"

namespace fairidx {
namespace {

// Checkpoints checksum with Crc32 (IEEE), so pin it to the standard
// CRC-32 (reflected, poly 0xEDB88320): the classic check value, a sweep
// of every length mod 8 (the sliced fold + bytewise tail), and seed
// chaining. A checksum change would silently orphan every existing file.
TEST(Crc32Test, MatchesTheStandardCheckValueAndFoldsAnyLength) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);

  // Bytewise reference, against the sliced implementation at every
  // remainder-of-8 length.
  const auto reference = [](const std::string& bytes) {
    uint32_t crc = 0xFFFFFFFFu;
    for (const char byte : bytes) {
      crc ^= static_cast<uint8_t>(byte);
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
    }
    return ~crc;
  };
  std::string data;
  for (int i = 0; i < 41; ++i) {
    EXPECT_EQ(Crc32(data.data(), data.size()), reference(data))
        << "length " << i;
    data.push_back(static_cast<char>(i * 37 + 11));
  }

  // Seed chaining: CRC(a+b) == CRC(b, seed=CRC(a)).
  const std::string joined = check + data;
  EXPECT_EQ(Crc32(data.data(), data.size(),
                  Crc32(check.data(), check.size())),
            Crc32(joined.data(), joined.size()));
}

// WAL records checksum with Crc32c (Castagnoli), which dispatches to the
// SSE4.2 instruction when available — pin the standard CRC-32C check
// value and verify the hardware and table paths agree byte for byte by
// sweeping every length mod 8, plus seed chaining.
TEST(Crc32Test, Crc32cMatchesTheCastagnoliCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32c(check.data(), check.size()), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);

  const auto reference = [](const std::string& bytes) {
    uint32_t crc = 0xFFFFFFFFu;
    for (const char byte : bytes) {
      crc ^= static_cast<uint8_t>(byte);
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
    }
    return ~crc;
  };
  std::string data;
  for (int i = 0; i < 41; ++i) {
    EXPECT_EQ(Crc32c(data.data(), data.size()), reference(data))
        << "length " << i;
    data.push_back(static_cast<char>(i * 53 + 29));
  }

  const std::string joined = check + data;
  EXPECT_EQ(Crc32c(data.data(), data.size(),
                   Crc32c(check.data(), check.size())),
            Crc32c(joined.data(), joined.size()));
}

using testing_fault::FaultMode;
using testing_fault::FaultPlan;
using testing_fault::MakeFaultyFactory;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/fairidx_wal_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

AggregateBatch MakeBatch(int base, int n, bool with_residuals = false) {
  AggregateBatch batch;
  for (int i = 0; i < n; ++i) {
    batch.Append(base + i, i % 2, 0.25 * i + base);
  }
  if (with_residuals) {
    for (int i = 0; i < n; ++i) batch.residuals.push_back(0.5 - 0.01 * i);
  }
  return batch;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(WalFsyncTest, ParseAndNameRoundTrip) {
  for (const char* name : {"none", "batch", "always"}) {
    const auto mode = ParseWalFsync(name);
    ASSERT_TRUE(mode.ok()) << mode.status();
    EXPECT_STREQ(WalFsyncName(*mode), name);
  }
  EXPECT_FALSE(ParseWalFsync("sometimes").ok());
}

TEST(WalWriterTest, RoundTripsBatchesSealsAndRotation) {
  const std::string dir = FreshDir("roundtrip");
  auto writer = WalWriter::Open(dir, /*generation=*/1, /*next_epoch=*/1,
                                WalOptions{});
  ASSERT_TRUE(writer.ok()) << writer.status();

  const AggregateBatch plain = MakeBatch(10, 4);
  const AggregateBatch resid = MakeBatch(20, 3, /*with_residuals=*/true);
  ASSERT_TRUE((*writer)->AppendBatch(7, plain).ok());
  ASSERT_TRUE((*writer)->AppendBatch(8, resid).ok());
  // Captured seal: epoch 1 closes, segment rotates to epoch 2.
  ASSERT_TRUE((*writer)
                  ->AppendSeal(/*sealed_epoch=*/1, /*captured=*/true,
                               /*refine=*/true, /*drift_bound=*/0.125)
                  .ok());
  ASSERT_TRUE((*writer)->AppendBatch(9, MakeBatch(30, 2)).ok());
  ASSERT_TRUE((*writer)->Close().ok());

  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok()) << segments.status();
  ASSERT_EQ(segments->size(), 2u);
  EXPECT_EQ((*segments)[0].generation, 1);
  EXPECT_EQ((*segments)[0].epoch, 1);
  EXPECT_EQ((*segments)[1].epoch, 2);

  auto records =
      ReadWalSegment((*segments)[0].path, /*allow_torn_tail=*/false);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 3u);
  EXPECT_EQ((*records)[0].type, WalRecord::Type::kBatch);
  EXPECT_EQ((*records)[0].seq, 7);
  EXPECT_EQ((*records)[0].batch.cell_ids, plain.cell_ids);
  EXPECT_EQ((*records)[0].batch.labels, plain.labels);
  EXPECT_EQ((*records)[0].batch.scores, plain.scores);
  EXPECT_TRUE((*records)[0].batch.residuals.empty());
  EXPECT_EQ((*records)[1].seq, 8);
  EXPECT_EQ((*records)[1].batch.residuals, resid.residuals);
  EXPECT_EQ((*records)[2].type, WalRecord::Type::kSeal);
  EXPECT_EQ((*records)[2].epoch, 1);
  EXPECT_TRUE((*records)[2].captured);
  EXPECT_TRUE((*records)[2].refine);
  EXPECT_EQ((*records)[2].drift_bound, 0.125);

  auto tail =
      ReadWalSegment((*segments)[1].path, /*allow_torn_tail=*/false);
  ASSERT_TRUE(tail.ok()) << tail.status();
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].seq, 9);
}

TEST(WalWriterTest, EmptyPlainSealAppendsNothing) {
  const std::string dir = FreshDir("emptyseal");
  auto writer =
      WalWriter::Open(dir, 1, 1, WalOptions{});
  ASSERT_TRUE(writer.ok()) << writer.status();
  const long long before = (*writer)->bytes_appended();
  // A seal that captured nothing and refined nothing is a no-op on both
  // sides of a crash; logging it would only bloat the segment.
  ASSERT_TRUE((*writer)
                  ->AppendSeal(1, /*captured=*/false, /*refine=*/false, 0.0)
                  .ok());
  EXPECT_EQ((*writer)->bytes_appended(), before);
  // An empty refine-tagged seal DOES log: replay must re-run the refine.
  ASSERT_TRUE((*writer)
                  ->AppendSeal(1, /*captured=*/false, /*refine=*/true, 0.5)
                  .ok());
  EXPECT_GT((*writer)->bytes_appended(), before);
  ASSERT_TRUE((*writer)->Close().ok());
}

TEST(WalWriterTest, AppendAfterCloseIsRejected) {
  const std::string dir = FreshDir("afterclose");
  auto writer = WalWriter::Open(dir, 1, 1, WalOptions{});
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->Close().ok());
  EXPECT_EQ((*writer)->AppendBatch(1, MakeBatch(0, 1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(WalWriterTest, FsyncAlwaysRoundTrips) {
  const std::string dir = FreshDir("always");
  WalOptions options;
  options.fsync = WalFsync::kAlways;
  auto writer = WalWriter::Open(dir, 1, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->AppendBatch(1, MakeBatch(0, 5)).ok());
  ASSERT_TRUE((*writer)->AppendSeal(1, true, false, 0.0).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  auto records = ReadWalSegment((*segments)[0].path, false);
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(records->size(), 2u);
}

// fsync = none is group-commit buffering: appends park in a user-space
// buffer (no file growth), one write() flushes the lot at the cap, and
// seals/Close flush the remainder — with every record intact on replay.
TEST(WalWriterTest, FsyncNoneBuffersUntilCapSealOrClose) {
  const std::string dir = FreshDir("buffered");
  WalOptions options;
  options.fsync = WalFsync::kNone;
  options.buffer_bytes = 1024;
  auto writer = WalWriter::Open(dir, 1, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  const long long header = (*writer)->bytes_appended();

  ASSERT_TRUE((*writer)->AppendBatch(1, MakeBatch(0, 4)).ok());
  EXPECT_EQ((*writer)->bytes_appended(), header) << "buffered, not written";
  // This batch alone exceeds the cap: the whole buffer flushes at once.
  ASSERT_TRUE((*writer)->AppendBatch(2, MakeBatch(5, 80)).ok());
  const long long flushed = (*writer)->bytes_appended();
  EXPECT_GT(flushed, header);
  ASSERT_TRUE((*writer)->AppendBatch(3, MakeBatch(9, 2)).ok());
  EXPECT_EQ((*writer)->bytes_appended(), flushed) << "buffered again";
  // The seal flushes the remainder before cutting the epoch.
  ASSERT_TRUE((*writer)->AppendSeal(1, /*captured=*/true, false, 0.0).ok());
  EXPECT_GT((*writer)->bytes_appended(), flushed);
  ASSERT_TRUE((*writer)->Close().ok());

  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  ASSERT_EQ(segments->size(), 2u);
  auto records = ReadWalSegment((*segments)[0].path, false);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 4u);
  EXPECT_EQ((*records)[0].seq, 1);
  EXPECT_EQ((*records)[1].seq, 2);
  EXPECT_EQ((*records)[2].seq, 3);
  EXPECT_EQ((*records)[3].type, WalRecord::Type::kSeal);
}

TEST(WalReadTest, TornTrailingGarbageIsDroppedOnlyWhenAllowed) {
  const std::string dir = FreshDir("torn");
  auto writer = WalWriter::Open(dir, 1, 1, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(1, MakeBatch(0, 3)).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  const std::string path = (*segments)[0].path;

  // Simulate a crash mid-append: half a record header of garbage.
  {
    std::ofstream file(path, std::ios::binary | std::ios::app);
    file.write("\x05\x00", 2);
  }
  long long dropped = 0;
  auto records = ReadWalSegment(path, /*allow_torn_tail=*/true, &dropped);
  ASSERT_TRUE(records.ok()) << records.status();
  EXPECT_EQ(records->size(), 1u);
  EXPECT_EQ(dropped, 2);
  // The same damage is a hard error when this is not the final segment.
  EXPECT_EQ(ReadWalSegment(path, /*allow_torn_tail=*/false).status().code(),
            StatusCode::kDataLoss);
}

TEST(WalReadTest, EveryTruncationPointIsATornTail) {
  const std::string dir = FreshDir("truncate");
  auto writer = WalWriter::Open(dir, 1, 1, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(1, MakeBatch(0, 2)).ok());
  ASSERT_TRUE((*writer)->AppendBatch(2, MakeBatch(5, 2)).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  const std::string path = (*segments)[0].path;
  const std::string bytes = ReadFileBytes(path);

  // A prefix of a valid segment is always full records plus at most one
  // partial one — recovery must accept every possible crash length.
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileBytes(path, bytes.substr(0, len));
    long long dropped = 0;
    auto records = ReadWalSegment(path, /*allow_torn_tail=*/true, &dropped);
    ASSERT_TRUE(records.ok())
        << "truncation at " << len << ": " << records.status();
    EXPECT_LE(records->size(), 2u);
    if (records->size() < 2u) EXPECT_GE(dropped, 0);
  }
}

TEST(WalReadTest, MidLogCorruptionIsAHardError) {
  const std::string dir = FreshDir("midlog");
  auto writer = WalWriter::Open(dir, 1, 1, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->AppendBatch(1, MakeBatch(0, 3)).ok());
  const long long first_record_end = (*writer)->bytes_appended();
  ASSERT_TRUE((*writer)->AppendBatch(2, MakeBatch(9, 3)).ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  const std::string path = (*segments)[0].path;

  // Flip one payload byte of the FIRST record: bytes remain behind it, so
  // even the lenient torn-tail read must refuse — this is corruption, not
  // a crash point, and replaying past it would silently drop data.
  std::string bytes = ReadFileBytes(path);
  ASSERT_LT(static_cast<size_t>(first_record_end), bytes.size());
  bytes[static_cast<size_t>(first_record_end) - 1] ^= 0x40;
  WriteFileBytes(path, bytes);
  const Status lenient = ReadWalSegment(path, true).status();
  EXPECT_EQ(lenient.code(), StatusCode::kDataLoss);
  EXPECT_NE(lenient.message().find("mid-log"), std::string::npos)
      << lenient;
  EXPECT_EQ(ReadWalSegment(path, false).status().code(),
            StatusCode::kDataLoss);
}

TEST(WalReadTest, BadMagicIsAlwaysAHardError) {
  const std::string dir = FreshDir("badmagic");
  auto writer = WalWriter::Open(dir, 1, 1, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  const std::string path = (*segments)[0].path;
  std::string bytes = ReadFileBytes(path);
  bytes[0] ^= 0xFF;
  WriteFileBytes(path, bytes);
  EXPECT_EQ(ReadWalSegment(path, true).status().code(),
            StatusCode::kDataLoss);
}

// A 22-byte batch record with a VALID CRC that declares 2^32-1 cells:
// the count must be checked against the bytes actually present and
// answered with DataLoss, never a reserve that throws or exhausts memory.
TEST(WalReadTest, HostileRecordCountIsDataLossNotAnAllocation) {
  const std::string dir = FreshDir("hostile_count");
  auto writer = WalWriter::Open(dir, 1, 1, WalOptions{});
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Close().ok());
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  const std::string path = (*segments)[0].path;

  BinaryWriter payload;
  payload.PutU8(1);             // Batch record.
  payload.PutI64(1);            // Sequence number.
  payload.PutU32(0xFFFFFFFFu);  // Declared cell count.
  payload.PutU8(0);             // No residuals; no cells follow.
  BinaryWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32c(payload.buffer().data(), payload.size()));
  frame.PutBytes(payload.buffer().data(), payload.size());
  ASSERT_EQ(frame.size(), 22u);
  WriteFileBytes(path, ReadFileBytes(path) + frame.buffer());

  for (bool allow_torn_tail : {true, false}) {
    const Status status = ReadWalSegment(path, allow_torn_tail).status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
    EXPECT_NE(status.message().find("declares"), std::string::npos)
        << status;
  }
}

TEST(WalListTest, SortsByGenerationThenEpochAndIgnoresForeignFiles) {
  const std::string dir = FreshDir("list");
  std::filesystem::create_directories(dir);
  for (const char* name :
       {"wal-2-5.log", "wal-1-9.log", "wal-2-3.log", "checkpoint-1-1.ckpt",
        "wal-x-1.log", "wal-1-1.log.tmp", "notes.txt"}) {
    std::ofstream(dir + "/" + name) << "x";
  }
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok()) << segments.status();
  ASSERT_EQ(segments->size(), 3u);
  EXPECT_EQ((*segments)[0].generation, 1);
  EXPECT_EQ((*segments)[0].epoch, 9);
  EXPECT_EQ((*segments)[1].generation, 2);
  EXPECT_EQ((*segments)[1].epoch, 3);
  EXPECT_EQ((*segments)[2].epoch, 5);
}

TEST(WalFaultTest, InjectedAppendFailureSurfacesToTheCaller) {
  const std::string dir = FreshDir("fault_append");
  FaultPlan plan;
  plan.mode = FaultMode::kFailOp;
  WalOptions options;
  options.file_factory = MakeFaultyFactory(&plan);
  auto writer = WalWriter::Open(dir, 1, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  // Op 0 was the segment-header append; fault the next data append.
  plan.ops_until_fault.store(0);
  EXPECT_FALSE((*writer)->AppendBatch(1, MakeBatch(0, 2)).ok());
  EXPECT_EQ(plan.faults_fired.load(), 1);
}

TEST(WalFaultTest, ShortWriteLeavesARecoverableTornTail) {
  const std::string dir = FreshDir("fault_short");
  FaultPlan plan;
  plan.mode = FaultMode::kShortWrite;
  WalOptions options;
  options.file_factory = MakeFaultyFactory(&plan);
  auto writer = WalWriter::Open(dir, 1, 1, options);
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE((*writer)->AppendBatch(1, MakeBatch(0, 4)).ok());
  plan.ops_until_fault.store(0);
  EXPECT_FALSE((*writer)->AppendBatch(2, MakeBatch(9, 4)).ok());
  plan.ops_until_fault.store(-1);
  (void)(*writer)->Close();

  // The half-written record is exactly what recovery's torn-tail rule
  // must absorb: the first record survives, the cut one is dropped.
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  long long dropped = 0;
  auto records =
      ReadWalSegment((*segments)[0].path, /*allow_torn_tail=*/true,
                     &dropped);
  ASSERT_TRUE(records.ok()) << records.status();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].seq, 1);
  EXPECT_GT(dropped, 0);
}

}  // namespace
}  // namespace fairidx
