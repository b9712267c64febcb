#include "service/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/binary_io.h"
#include "index/partition_io.h"

namespace fairidx {
namespace {

constexpr uint32_t kCheckpointMagic = 0x4658434Bu;  // "FXCK"
constexpr uint32_t kCheckpointVersion = 1;
constexpr uint32_t kDeltaCheckpointMagic = 0x46584443u;  // "FXDC"
constexpr uint32_t kDeltaCheckpointVersion = 1;
// Encoded sizes of the counted body items: five f64 sums per cell, four
// i32 bounds per region rect.
constexpr size_t kCellSumBytes = 5 * sizeof(double);
constexpr size_t kRectBytes = 4 * sizeof(int32_t);

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  return dir.back() == '/' ? dir + name : dir + "/" + name;
}

// Best-effort directory fsync so the rename itself survives power loss.
// Failure is ignored: some filesystems reject directory fsync, and the
// checkpoint contents are already synced.
void SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

std::string SerializeBody(const CheckpointData& data) {
  BinaryWriter out;
  out.PutI32(data.rows);
  out.PutI32(data.cols);
  out.PutI64(data.epoch);
  out.PutI64(data.sealed_records);
  out.PutI64(data.wal_generation);
  out.PutI64(data.total_resplits);
  out.PutString(data.algorithm);
  out.PutU64(data.cell_sums.size());
  for (const GridAggregates::PrefixEntry& entry : data.cell_sums) {
    out.PutDouble(entry.count);
    out.PutDouble(entry.labels);
    out.PutDouble(entry.scores);
    out.PutDouble(entry.residuals);
    out.PutDouble(entry.cell_abs);
  }
  out.PutString(SerializePartitionBinary(data.partition));
  out.PutU64(data.regions.size());
  for (const CellRect& rect : data.regions) {
    out.PutI32(rect.row_begin);
    out.PutI32(rect.row_end);
    out.PutI32(rect.col_begin);
    out.PutI32(rect.col_end);
  }
  out.PutString(data.maintained_blob);
  return out.Release();
}

Result<CheckpointData> ParseBody(const std::string& body,
                                 const std::string& path) {
  BinaryReader in(body);
  CheckpointData data;
  FAIRIDX_ASSIGN_OR_RETURN(data.rows, in.ReadI32());
  FAIRIDX_ASSIGN_OR_RETURN(data.cols, in.ReadI32());
  FAIRIDX_ASSIGN_OR_RETURN(data.epoch, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(data.sealed_records, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(data.wal_generation, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(data.total_resplits, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(data.algorithm, in.ReadString());
  if (data.rows < 1 || data.cols < 1 || data.epoch < 0 ||
      data.sealed_records < 0 || data.wal_generation < 1) {
    return DataLossError("checkpoint " + path + ": invalid header fields");
  }
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t num_cells, in.ReadU64());
  if (num_cells != static_cast<uint64_t>(data.rows) *
                       static_cast<uint64_t>(data.cols)) {
    return DataLossError("checkpoint " + path +
                         ": cell-sum count disagrees with grid shape");
  }
  if (!in.Fits(num_cells, kCellSumBytes)) {
    return DataLossError("checkpoint " + path +
                         ": cell-sum count exceeds the body");
  }
  data.cell_sums.reserve(static_cast<size_t>(num_cells));
  for (uint64_t i = 0; i < num_cells; ++i) {
    GridAggregates::PrefixEntry entry;
    FAIRIDX_ASSIGN_OR_RETURN(entry.count, in.ReadDouble());
    FAIRIDX_ASSIGN_OR_RETURN(entry.labels, in.ReadDouble());
    FAIRIDX_ASSIGN_OR_RETURN(entry.scores, in.ReadDouble());
    FAIRIDX_ASSIGN_OR_RETURN(entry.residuals, in.ReadDouble());
    FAIRIDX_ASSIGN_OR_RETURN(entry.cell_abs, in.ReadDouble());
    data.cell_sums.push_back(entry);
  }
  // The partition cell map, region ids verbatim (same wire format as
  // SerializePartitionBinary, parsed here against rows*cols instead of a
  // full Grid object).
  FAIRIDX_ASSIGN_OR_RETURN(const std::string partition_bytes,
                           in.ReadString());
  BinaryReader partition_in(partition_bytes);
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t map_cells, partition_in.ReadU64());
  if (map_cells != num_cells) {
    return DataLossError("checkpoint " + path +
                         ": partition cell count disagrees with grid");
  }
  FAIRIDX_ASSIGN_OR_RETURN(const int32_t num_regions, partition_in.ReadI32());
  if (!partition_in.Fits(map_cells, sizeof(int32_t))) {
    return DataLossError("checkpoint " + path +
                         ": partition cell count exceeds the body");
  }
  std::vector<int> cell_to_region;
  cell_to_region.reserve(static_cast<size_t>(map_cells));
  for (uint64_t i = 0; i < map_cells; ++i) {
    FAIRIDX_ASSIGN_OR_RETURN(const int32_t region, partition_in.ReadI32());
    cell_to_region.push_back(region);
  }
  Result<Partition> partition =
      Partition::FromCellMapExact(std::move(cell_to_region), num_regions);
  if (!partition.ok()) {
    return DataLossError("checkpoint " + path + ": " +
                         partition.status().message());
  }
  data.partition = std::move(*partition);
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t num_rects, in.ReadU64());
  if (!in.Fits(num_rects, kRectBytes)) {
    return DataLossError("checkpoint " + path +
                         ": region count exceeds the body");
  }
  data.regions.reserve(static_cast<size_t>(num_rects));
  for (uint64_t i = 0; i < num_rects; ++i) {
    CellRect rect;
    FAIRIDX_ASSIGN_OR_RETURN(rect.row_begin, in.ReadI32());
    FAIRIDX_ASSIGN_OR_RETURN(rect.row_end, in.ReadI32());
    FAIRIDX_ASSIGN_OR_RETURN(rect.col_begin, in.ReadI32());
    FAIRIDX_ASSIGN_OR_RETURN(rect.col_end, in.ReadI32());
    data.regions.push_back(rect);
  }
  FAIRIDX_ASSIGN_OR_RETURN(data.maintained_blob, in.ReadString());
  if (in.remaining() != 0) {
    return DataLossError("checkpoint " + path + ": trailing bytes");
  }
  return data;
}

std::string SerializeDeltaBody(const CheckpointDelta& delta) {
  BinaryWriter out;
  out.PutI32(delta.rows);
  out.PutI32(delta.cols);
  out.PutI64(delta.epoch);
  out.PutI64(delta.sealed_records);
  out.PutI64(delta.wal_generation);
  out.PutI64(delta.total_resplits);
  out.PutString(delta.algorithm);
  out.PutI64(delta.prev_epoch);
  out.PutI64(delta.prev_generation);
  out.PutU64(delta.cells.size());
  for (size_t i = 0; i < delta.cells.size(); ++i) {
    out.PutU32(static_cast<uint32_t>(delta.cells[i]));
    out.PutDouble(delta.sums[i].count);
    out.PutDouble(delta.sums[i].labels);
    out.PutDouble(delta.sums[i].scores);
    out.PutDouble(delta.sums[i].residuals);
    out.PutDouble(delta.sums[i].cell_abs);
  }
  out.PutU64(delta.regions.size());
  for (const CellRect& rect : delta.regions) {
    out.PutI32(rect.row_begin);
    out.PutI32(rect.row_end);
    out.PutI32(rect.col_begin);
    out.PutI32(rect.col_end);
  }
  out.PutString(delta.maintained_blob);
  return out.Release();
}

Result<CheckpointDelta> ParseDeltaBody(const std::string& body,
                                       const std::string& path) {
  BinaryReader in(body);
  CheckpointDelta delta;
  FAIRIDX_ASSIGN_OR_RETURN(delta.rows, in.ReadI32());
  FAIRIDX_ASSIGN_OR_RETURN(delta.cols, in.ReadI32());
  FAIRIDX_ASSIGN_OR_RETURN(delta.epoch, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(delta.sealed_records, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(delta.wal_generation, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(delta.total_resplits, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(delta.algorithm, in.ReadString());
  FAIRIDX_ASSIGN_OR_RETURN(delta.prev_epoch, in.ReadI64());
  FAIRIDX_ASSIGN_OR_RETURN(delta.prev_generation, in.ReadI64());
  if (delta.rows < 1 || delta.cols < 1 || delta.epoch < 0 ||
      delta.sealed_records < 0 || delta.wal_generation < 1 ||
      delta.prev_epoch < 0 || delta.prev_generation < 1) {
    return DataLossError("checkpoint " + path + ": invalid header fields");
  }
  const uint64_t num_cells = static_cast<uint64_t>(delta.rows) *
                             static_cast<uint64_t>(delta.cols);
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t num_dirty, in.ReadU64());
  if (num_dirty > num_cells) {
    return DataLossError("checkpoint " + path +
                         ": more dirty cells than grid cells");
  }
  if (!in.Fits(num_dirty, sizeof(uint32_t) + kCellSumBytes)) {
    return DataLossError("checkpoint " + path +
                         ": dirty-cell count exceeds the body");
  }
  delta.cells.reserve(static_cast<size_t>(num_dirty));
  delta.sums.reserve(static_cast<size_t>(num_dirty));
  for (uint64_t i = 0; i < num_dirty; ++i) {
    FAIRIDX_ASSIGN_OR_RETURN(const uint32_t cell, in.ReadU32());
    if (cell >= num_cells ||
        (!delta.cells.empty() &&
         static_cast<uint32_t>(delta.cells.back()) >= cell)) {
      return DataLossError("checkpoint " + path +
                           ": dirty cells not ascending in-grid ids");
    }
    GridAggregates::PrefixEntry entry;
    FAIRIDX_ASSIGN_OR_RETURN(entry.count, in.ReadDouble());
    FAIRIDX_ASSIGN_OR_RETURN(entry.labels, in.ReadDouble());
    FAIRIDX_ASSIGN_OR_RETURN(entry.scores, in.ReadDouble());
    FAIRIDX_ASSIGN_OR_RETURN(entry.residuals, in.ReadDouble());
    FAIRIDX_ASSIGN_OR_RETURN(entry.cell_abs, in.ReadDouble());
    delta.cells.push_back(static_cast<int>(cell));
    delta.sums.push_back(entry);
  }
  FAIRIDX_ASSIGN_OR_RETURN(const uint64_t num_rects, in.ReadU64());
  if (!in.Fits(num_rects, kRectBytes)) {
    return DataLossError("checkpoint " + path +
                         ": region count exceeds the body");
  }
  delta.regions.reserve(static_cast<size_t>(num_rects));
  for (uint64_t i = 0; i < num_rects; ++i) {
    CellRect rect;
    FAIRIDX_ASSIGN_OR_RETURN(rect.row_begin, in.ReadI32());
    FAIRIDX_ASSIGN_OR_RETURN(rect.row_end, in.ReadI32());
    FAIRIDX_ASSIGN_OR_RETURN(rect.col_begin, in.ReadI32());
    FAIRIDX_ASSIGN_OR_RETURN(rect.col_end, in.ReadI32());
    delta.regions.push_back(rect);
  }
  FAIRIDX_ASSIGN_OR_RETURN(delta.maintained_blob, in.ReadString());
  if (in.remaining() != 0) {
    return DataLossError("checkpoint " + path + ": trailing bytes");
  }
  return delta;
}

// Lists dir entries matching `pattern` (a two-%lld sscanf format), sorted
// ascending by (epoch, generation) — the shared scan behind
// ListCheckpoints / ListDeltaCheckpoints.
Result<std::vector<CheckpointInfo>> ListByPattern(const std::string& dir,
                                                  const char* pattern) {
  std::error_code ec;
  std::vector<CheckpointInfo> checkpoints;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return NotFoundError("cannot list checkpoint dir '" + dir +
                         "': " + ec.message());
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    long long epoch = 0;
    long long generation = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), pattern, &epoch, &generation,
                    &consumed) == 2 &&
        consumed == static_cast<int>(name.size())) {
      checkpoints.push_back(
          CheckpointInfo{epoch, generation, entry.path().string()});
    }
  }
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.epoch != b.epoch ? a.epoch < b.epoch
                                        : a.generation < b.generation;
            });
  return checkpoints;
}

// Atomically installs one CRC-framed body as dir/name (tmp + fsync +
// rename) — the shared tail of WriteCheckpoint / WriteDeltaCheckpoint.
Status WriteFramedFile(const std::string& dir, const std::string& name,
                       uint32_t magic, uint32_t version,
                       const std::string& body,
                       const WritableFileFactory& file_factory) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return InternalError("cannot create checkpoint dir '" + dir +
                         "': " + ec.message());
  }
  BinaryWriter framed;
  framed.PutU32(magic);
  framed.PutU32(version);
  framed.PutU32(static_cast<uint32_t>(body.size()));
  framed.PutU32(Crc32(body.data(), body.size()));
  framed.PutBytes(body.data(), body.size());

  const std::string final_path = JoinPath(dir, name);
  const std::string tmp_path = final_path + ".tmp";
  {
    Result<std::unique_ptr<WritableFile>> file =
        file_factory ? file_factory(tmp_path) : OpenWritableFile(tmp_path);
    FAIRIDX_RETURN_IF_ERROR(file.status());
    FAIRIDX_RETURN_IF_ERROR(
        (*file)->Append(framed.buffer().data(), framed.buffer().size()));
    FAIRIDX_RETURN_IF_ERROR((*file)->Sync());
    FAIRIDX_RETURN_IF_ERROR((*file)->Close());
  }
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    return InternalError("cannot install checkpoint '" + final_path +
                         "': " + ec.message());
  }
  SyncDir(dir);
  return Status::Ok();
}

// Reads one CRC-framed file and returns its validated body — the shared
// head of ReadCheckpoint / ReadDeltaCheckpoint.
Result<std::string> ReadFramedFile(const std::string& path, uint32_t magic,
                                   uint32_t version) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return NotFoundError("cannot open checkpoint '" + path + "'");
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string bytes = buffer.str();
  BinaryReader frame(bytes);
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t got_magic, frame.ReadU32());
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t got_version, frame.ReadU32());
  if (got_magic != magic || got_version != version) {
    return DataLossError("checkpoint " + path + ": bad magic or version");
  }
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t body_len, frame.ReadU32());
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t expected_crc, frame.ReadU32());
  if (frame.remaining() != body_len) {
    return DataLossError("checkpoint " + path + ": truncated body (" +
                         std::to_string(frame.remaining()) + " of " +
                         std::to_string(body_len) + " bytes)");
  }
  const std::string body = bytes.substr(bytes.size() - body_len);
  if (Crc32(body.data(), body.size()) != expected_crc) {
    return DataLossError("checkpoint " + path + ": CRC mismatch");
  }
  return body;
}

// Materializes the partition a delta head's region rects imply (region i
// owns rect i — the tiling Partition::FromRects validates), reported as
// DataLoss so a bad head falls back like any other corrupt checkpoint.
Result<Partition> PartitionFromRegionRects(
    int rows, int cols, const std::vector<CellRect>& rects,
    const std::string& path) {
  std::vector<int> cell_to_region(
      static_cast<size_t>(rows) * static_cast<size_t>(cols), -1);
  for (size_t r = 0; r < rects.size(); ++r) {
    const CellRect& rect = rects[r];
    if (rect.row_begin < 0 || rect.col_begin < 0 || rect.row_end > rows ||
        rect.col_end > cols) {
      return DataLossError("checkpoint " + path +
                           ": region rect outside grid");
    }
    for (int row = rect.row_begin; row < rect.row_end; ++row) {
      std::fill(cell_to_region.begin() +
                    static_cast<size_t>(row) * cols + rect.col_begin,
                cell_to_region.begin() +
                    static_cast<size_t>(row) * cols + rect.col_end,
                static_cast<int>(r));
    }
  }
  Result<Partition> partition = Partition::FromCellMapExact(
      std::move(cell_to_region), static_cast<int>(rects.size()));
  if (!partition.ok()) {
    return DataLossError("checkpoint " + path + ": " +
                         partition.status().message());
  }
  return partition;
}

// Resolves a delta head into full CheckpointData: follows prev links back
// to a full checkpoint, then overlays the chain's dirty cells oldest
// first. Any missing/corrupt/cyclic link fails (with DataLoss), and
// LoadLatestCheckpoint falls back to the next-older head.
Result<CheckpointData> ResolveDeltaChain(
    const std::string& dir, const CheckpointInfo& head,
    const std::vector<CheckpointInfo>& deltas) {
  std::vector<CheckpointDelta> chain;  // head first, oldest last
  FAIRIDX_ASSIGN_OR_RETURN(CheckpointDelta head_delta,
                           ReadDeltaCheckpoint(head.path));
  chain.push_back(std::move(head_delta));
  CheckpointData base;
  for (;;) {
    const CheckpointDelta& tail = chain.back();
    // A full checkpoint at the link ends the chain.
    Result<CheckpointData> full = ReadCheckpoint(JoinPath(
        dir, CheckpointFileName(tail.prev_epoch, tail.prev_generation)));
    if (full.ok()) {
      base = std::move(*full);
      break;
    }
    const CheckpointInfo* prev_info = nullptr;
    for (const CheckpointInfo& info : deltas) {
      if (info.epoch == tail.prev_epoch &&
          info.generation == tail.prev_generation) {
        prev_info = &info;
        break;
      }
    }
    if (prev_info == nullptr) {
      return DataLossError("checkpoint " + head.path +
                           ": delta chain broken at predecessor (" +
                           std::to_string(tail.prev_epoch) + ", " +
                           std::to_string(tail.prev_generation) + ")");
    }
    if (chain.size() > deltas.size()) {
      return DataLossError("checkpoint " + head.path +
                           ": delta chain cycle");
    }
    FAIRIDX_ASSIGN_OR_RETURN(CheckpointDelta prev,
                             ReadDeltaCheckpoint(prev_info->path));
    chain.push_back(std::move(prev));
  }
  // Overlay oldest -> newest onto the base's cell sums.
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    const CheckpointDelta& delta = *it;
    if (delta.rows != base.rows || delta.cols != base.cols ||
        delta.algorithm != base.algorithm) {
      return DataLossError("checkpoint " + head.path +
                           ": delta chain disagrees with its base");
    }
    for (size_t i = 0; i < delta.cells.size(); ++i) {
      base.cell_sums[static_cast<size_t>(delta.cells[i])] = delta.sums[i];
    }
  }
  const CheckpointDelta& newest = chain.front();
  base.epoch = newest.epoch;
  base.sealed_records = newest.sealed_records;
  base.wal_generation = newest.wal_generation;
  base.total_resplits = newest.total_resplits;
  base.regions = newest.regions;
  base.maintained_blob = newest.maintained_blob;
  FAIRIDX_ASSIGN_OR_RETURN(
      base.partition,
      PartitionFromRegionRects(base.rows, base.cols, base.regions,
                               head.path));
  return base;
}

}  // namespace

std::string CheckpointFileName(long long epoch, long long generation) {
  return "checkpoint-" + std::to_string(epoch) + "-" +
         std::to_string(generation) + ".ckpt";
}

std::string DeltaCheckpointFileName(long long epoch, long long generation) {
  return "delta-" + std::to_string(epoch) + "-" +
         std::to_string(generation) + ".ckpt";
}

Result<std::vector<CheckpointInfo>> ListCheckpoints(const std::string& dir) {
  return ListByPattern(dir, "checkpoint-%lld-%lld.ckpt%n");
}

Result<std::vector<CheckpointInfo>> ListDeltaCheckpoints(
    const std::string& dir) {
  return ListByPattern(dir, "delta-%lld-%lld.ckpt%n");
}

Status WriteCheckpoint(const std::string& dir, const CheckpointData& data,
                       const WritableFileFactory& file_factory) {
  return WriteFramedFile(
      dir, CheckpointFileName(data.epoch, data.wal_generation),
      kCheckpointMagic, kCheckpointVersion, SerializeBody(data),
      file_factory);
}

Status WriteDeltaCheckpoint(const std::string& dir,
                            const CheckpointDelta& delta,
                            const WritableFileFactory& file_factory) {
  if (delta.sums.size() != delta.cells.size()) {
    return InvalidArgumentError(
        "WriteDeltaCheckpoint: cells/sums size mismatch");
  }
  return WriteFramedFile(
      dir, DeltaCheckpointFileName(delta.epoch, delta.wal_generation),
      kDeltaCheckpointMagic, kDeltaCheckpointVersion,
      SerializeDeltaBody(delta), file_factory);
}

Result<CheckpointData> ReadCheckpoint(const std::string& path) {
  FAIRIDX_ASSIGN_OR_RETURN(
      const std::string body,
      ReadFramedFile(path, kCheckpointMagic, kCheckpointVersion));
  return ParseBody(body, path);
}

Result<CheckpointDelta> ReadDeltaCheckpoint(const std::string& path) {
  FAIRIDX_ASSIGN_OR_RETURN(
      const std::string body,
      ReadFramedFile(path, kDeltaCheckpointMagic, kDeltaCheckpointVersion));
  return ParseDeltaBody(body, path);
}

Result<CheckpointData> LoadLatestCheckpoint(const std::string& dir) {
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<CheckpointInfo> fulls,
                           ListCheckpoints(dir));
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<CheckpointInfo> deltas,
                           ListDeltaCheckpoints(dir));
  // Heads: every file, newest (epoch, generation) first. A delta head
  // resolves through its chain; any failure falls back to the next head,
  // exactly like a corrupt full checkpoint.
  struct Head {
    CheckpointInfo info;
    bool is_delta = false;
  };
  std::vector<Head> heads;
  heads.reserve(fulls.size() + deltas.size());
  for (const CheckpointInfo& info : fulls) heads.push_back({info, false});
  for (const CheckpointInfo& info : deltas) heads.push_back({info, true});
  std::sort(heads.begin(), heads.end(), [](const Head& a, const Head& b) {
    return a.info.epoch != b.info.epoch
               ? a.info.epoch < b.info.epoch
               : a.info.generation < b.info.generation;
  });
  for (auto it = heads.rbegin(); it != heads.rend(); ++it) {
    Result<CheckpointData> data =
        it->is_delta ? ResolveDeltaChain(dir, it->info, deltas)
                     : ReadCheckpoint(it->info.path);
    if (data.ok()) return data;
  }
  return NotFoundError("no valid checkpoint under '" + dir + "'");
}

Status PruneCheckpoints(const std::string& dir, int keep_last) {
  if (keep_last < 1) {
    return InvalidArgumentError("PruneCheckpoints: keep_last must be >= 1");
  }
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<CheckpointInfo> fulls,
                           ListCheckpoints(dir));
  std::error_code ec;
  if (fulls.size() > static_cast<size_t>(keep_last)) {
    for (size_t i = 0; i + static_cast<size_t>(keep_last) < fulls.size();
         ++i) {
      std::filesystem::remove(fulls[i].path, ec);
    }
  }
  if (fulls.empty()) return Status::Ok();
  // Deltas older than the oldest KEPT full can only chain to state that
  // was just pruned (the service never chains a delta across a newer
  // full), so they are unreachable; newer deltas may be the live head.
  const size_t first_kept =
      fulls.size() > static_cast<size_t>(keep_last)
          ? fulls.size() - static_cast<size_t>(keep_last)
          : 0;
  const CheckpointInfo& oldest_kept = fulls[first_kept];
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<CheckpointInfo> deltas,
                           ListDeltaCheckpoints(dir));
  for (const CheckpointInfo& delta : deltas) {
    const bool older = delta.epoch != oldest_kept.epoch
                           ? delta.epoch < oldest_kept.epoch
                           : delta.generation < oldest_kept.generation;
    if (older) std::filesystem::remove(delta.path, ec);
  }
  return Status::Ok();
}

Status PruneWalSegments(const std::string& dir, long long through_epoch) {
  FAIRIDX_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> segments,
                           ListWalSegments(dir));
  std::error_code ec;
  for (const WalSegmentInfo& segment : segments) {
    if (segment.epoch <= through_epoch) {
      std::filesystem::remove(segment.path, ec);
    }
  }
  return Status::Ok();
}

}  // namespace fairidx
