#include "service/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/binary_io.h"

namespace fairidx {
namespace {

constexpr uint32_t kWalMagic = 0x4658574Cu;  // "FXWL"
constexpr uint32_t kWalVersion = 1;
// Segment header: magic u32, version u32, generation i64, epoch i64.
constexpr size_t kSegmentHeaderSize = 4 + 4 + 8 + 8;

constexpr uint8_t kBatchRecord = 1;
constexpr uint8_t kSealRecord = 2;
constexpr uint8_t kSealCapturedFlag = 1u << 0;
constexpr uint8_t kSealRefineFlag = 1u << 1;

std::string SegmentFileName(long long generation, long long epoch) {
  return "wal-" + std::to_string(generation) + "-" + std::to_string(epoch) +
         ".log";
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  return dir.back() == '/' ? dir + name : dir + "/" + name;
}

// POSIX append-only file. Append issues the write() immediately (full
// write, retrying on short writes), so a killed process loses nothing
// that Append returned Ok for; Sync adds the power-failure guarantee.
class PosixWritableFile : public WritableFile {
 public:
  explicit PosixWritableFile(int fd) : fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const char* data, size_t size) override {
    while (size > 0) {
      const ssize_t written = ::write(fd_, data, size);
      if (written < 0) {
        if (errno == EINTR) continue;
        return InternalError(std::string("wal write failed: ") +
                             std::strerror(errno));
      }
      data += written;
      size -= static_cast<size_t>(written);
    }
    return Status::Ok();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return InternalError(std::string("wal fsync failed: ") +
                           std::strerror(errno));
    }
    return Status::Ok();
  }

  Status Close() override {
    if (fd_ < 0) return Status::Ok();
    const int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) {
      return InternalError(std::string("wal close failed: ") +
                           std::strerror(errno));
    }
    return Status::Ok();
  }

 private:
  int fd_;
};

// Record framing is [u32 len][u32 crc][payload]. The payload is
// serialized straight after an 8-byte placeholder in the SAME buffer,
// then the prefix is patched in place — no second serialize-then-copy
// pass, and everything (including the CRC) runs OUTSIDE the append lock
// so concurrent writers frame in parallel.
std::string FinishFrame(BinaryWriter out) {
  const uint32_t length = static_cast<uint32_t>(out.size() - 8);
  out.PatchU32(0, length);
  out.PatchU32(4, Crc32c(out.buffer().data() + 8, length));
  return out.Release();
}

std::string FrameBatchRecord(long long seq, const AggregateBatch& batch) {
  const size_t n = batch.size();
  BinaryWriter out;
  out.Reserve(8 + 14 + n * 13 + batch.residuals.size() * 8);
  out.PutU32(0);  // Length placeholder, patched by FinishFrame.
  out.PutU32(0);  // CRC placeholder.
  out.PutU8(kBatchRecord);
  out.PutI64(seq);
  out.PutU32(static_cast<uint32_t>(n));
  out.PutU8(batch.residuals.empty() ? 0 : 1);
  out.PutI32Array(batch.cell_ids.data(), batch.cell_ids.size());
  std::string labels(batch.labels.size(), '\0');
  for (size_t i = 0; i < batch.labels.size(); ++i) {
    labels[i] = static_cast<char>(static_cast<uint8_t>(batch.labels[i]));
  }
  out.PutBytes(labels.data(), labels.size());
  out.PutDoubleArray(batch.scores.data(), batch.scores.size());
  out.PutDoubleArray(batch.residuals.data(), batch.residuals.size());
  return FinishFrame(std::move(out));
}

std::string FrameSealRecord(long long epoch, bool captured, bool refine,
                            double drift_bound) {
  BinaryWriter out;
  out.PutU32(0);
  out.PutU32(0);
  out.PutU8(kSealRecord);
  out.PutI64(epoch);
  uint8_t flags = 0;
  if (captured) flags |= kSealCapturedFlag;
  if (refine) flags |= kSealRefineFlag;
  out.PutU8(flags);
  out.PutDouble(drift_bound);
  return FinishFrame(std::move(out));
}

Result<WalRecord> ParseRecordPayload(const std::string& payload,
                                     const std::string& path) {
  BinaryReader in(payload);
  WalRecord record;
  FAIRIDX_ASSIGN_OR_RETURN(const uint8_t type, in.ReadU8());
  if (type == kBatchRecord) {
    record.type = WalRecord::Type::kBatch;
    FAIRIDX_ASSIGN_OR_RETURN(record.seq, in.ReadI64());
    FAIRIDX_ASSIGN_OR_RETURN(const uint32_t n, in.ReadU32());
    FAIRIDX_ASSIGN_OR_RETURN(const uint8_t has_residuals, in.ReadU8());
    // Per record: cell i32 + label u8 + score f64 (+ residual f64).
    if (!in.Fits(n, has_residuals ? 21 : 13)) {
      return DataLossError("wal segment " + path + ": batch declares " +
                           std::to_string(n) +
                           " records, more than the record holds");
    }
    record.batch.cell_ids.reserve(n);
    record.batch.labels.reserve(n);
    record.batch.scores.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      FAIRIDX_ASSIGN_OR_RETURN(const int32_t cell, in.ReadI32());
      record.batch.cell_ids.push_back(cell);
    }
    for (uint32_t i = 0; i < n; ++i) {
      FAIRIDX_ASSIGN_OR_RETURN(const uint8_t label, in.ReadU8());
      record.batch.labels.push_back(label);
    }
    for (uint32_t i = 0; i < n; ++i) {
      FAIRIDX_ASSIGN_OR_RETURN(const double score, in.ReadDouble());
      record.batch.scores.push_back(score);
    }
    if (has_residuals) {
      record.batch.residuals.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        FAIRIDX_ASSIGN_OR_RETURN(const double residual, in.ReadDouble());
        record.batch.residuals.push_back(residual);
      }
    }
  } else if (type == kSealRecord) {
    record.type = WalRecord::Type::kSeal;
    FAIRIDX_ASSIGN_OR_RETURN(record.epoch, in.ReadI64());
    FAIRIDX_ASSIGN_OR_RETURN(const uint8_t flags, in.ReadU8());
    record.captured = (flags & kSealCapturedFlag) != 0;
    record.refine = (flags & kSealRefineFlag) != 0;
    FAIRIDX_ASSIGN_OR_RETURN(record.drift_bound, in.ReadDouble());
  } else {
    return DataLossError("wal segment " + path +
                         ": unknown record type " + std::to_string(type));
  }
  if (in.remaining() != 0) {
    return DataLossError("wal segment " + path +
                         ": trailing bytes inside a record");
  }
  return record;
}

}  // namespace

Result<WalFsync> ParseWalFsync(const std::string& name) {
  if (name == "none") return WalFsync::kNone;
  if (name == "batch") return WalFsync::kBatch;
  if (name == "always") return WalFsync::kAlways;
  return InvalidArgumentError("unknown fsync mode '" + name +
                              "' (expected none|batch|always)");
}

const char* WalFsyncName(WalFsync fsync) {
  switch (fsync) {
    case WalFsync::kNone:
      return "none";
    case WalFsync::kBatch:
      return "batch";
    case WalFsync::kAlways:
      return "always";
  }
  return "unknown";
}

Result<std::unique_ptr<WritableFile>> OpenWritableFile(
    const std::string& path) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) {
    return InternalError("cannot open '" + path +
                         "': " + std::strerror(errno));
  }
  return std::unique_ptr<WritableFile>(new PosixWritableFile(fd));
}

Result<std::vector<WalSegmentInfo>> ListWalSegments(const std::string& dir) {
  std::error_code ec;
  std::vector<WalSegmentInfo> segments;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return NotFoundError("cannot list wal dir '" + dir +
                         "': " + ec.message());
  }
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    long long generation = 0;
    long long epoch = 0;
    int consumed = 0;
    if (std::sscanf(name.c_str(), "wal-%lld-%lld.log%n", &generation,
                    &epoch, &consumed) == 2 &&
        consumed == static_cast<int>(name.size())) {
      segments.push_back(
          WalSegmentInfo{generation, epoch, entry.path().string()});
    }
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              return a.generation != b.generation
                         ? a.generation < b.generation
                         : a.epoch < b.epoch;
            });
  return segments;
}

Result<std::vector<WalRecord>> ReadWalSegment(const std::string& path,
                                              bool allow_torn_tail,
                                              long long* torn_bytes_dropped) {
  if (torn_bytes_dropped != nullptr) *torn_bytes_dropped = 0;
  std::ifstream file(path, std::ios::binary);
  if (!file) return NotFoundError("cannot open wal segment '" + path + "'");
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string data = buffer.str();

  const auto torn = [&](size_t offset) -> Status {
    if (!allow_torn_tail) {
      return DataLossError("wal segment " + path +
                           ": truncated record at offset " +
                           std::to_string(offset));
    }
    if (torn_bytes_dropped != nullptr) {
      *torn_bytes_dropped = static_cast<long long>(data.size() - offset);
    }
    return Status::Ok();
  };

  std::vector<WalRecord> records;
  if (data.size() < kSegmentHeaderSize) {
    FAIRIDX_RETURN_IF_ERROR(torn(0));
    return records;
  }
  BinaryReader header(data.data(), kSegmentHeaderSize);
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t magic, header.ReadU32());
  FAIRIDX_ASSIGN_OR_RETURN(const uint32_t version, header.ReadU32());
  if (magic != kWalMagic || version != kWalVersion) {
    return DataLossError("wal segment " + path +
                         ": bad magic or version in header");
  }

  size_t offset = kSegmentHeaderSize;
  while (offset < data.size()) {
    if (data.size() - offset < 8) {
      FAIRIDX_RETURN_IF_ERROR(torn(offset));
      return records;
    }
    BinaryReader prefix(data.data() + offset, 8);
    FAIRIDX_ASSIGN_OR_RETURN(const uint32_t length, prefix.ReadU32());
    FAIRIDX_ASSIGN_OR_RETURN(const uint32_t expected_crc, prefix.ReadU32());
    if (data.size() - offset - 8 < length) {
      FAIRIDX_RETURN_IF_ERROR(torn(offset));
      return records;
    }
    const char* payload = data.data() + offset + 8;
    const uint32_t actual_crc = Crc32c(payload, length);
    if (actual_crc != expected_crc) {
      const bool is_final_record = offset + 8 + length == data.size();
      if (is_final_record) {
        FAIRIDX_RETURN_IF_ERROR(torn(offset));
        return records;
      }
      return DataLossError("wal segment " + path +
                           ": CRC mismatch mid-log at offset " +
                           std::to_string(offset));
    }
    FAIRIDX_ASSIGN_OR_RETURN(
        WalRecord record,
        ParseRecordPayload(std::string(payload, length), path));
    records.push_back(std::move(record));
    offset += 8 + length;
  }
  return records;
}

WalWriter::WalWriter(std::string dir, long long generation,
                     WalOptions options)
    : dir_(std::move(dir)),
      generation_(generation),
      options_(std::move(options)) {}

WalWriter::~WalWriter() {
  // Destruction is a clean shutdown, not a crash: push any buffered
  // records to the OS (the recovery suite's "crash" is destroying the
  // service, and it relies on every accepted record being in the file),
  // then close the descriptor. No fsync — the power-failure window is
  // the fsync mode's business, not the destructor's.
  std::unique_lock<std::mutex> append_lock(append_mutex_);
  WaitForAppendsLocked(append_lock);
  std::lock_guard<std::mutex> sync_lock(sync_mutex_);
  if (file_ != nullptr && !write_buffer_.empty()) {
    (void)file_->Append(write_buffer_.data(), write_buffer_.size());
    write_buffer_.clear();
  }
  if (file_ != nullptr) (void)file_->Close();
  file_ = nullptr;
  closed_ = true;
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(const std::string& dir,
                                                   long long generation,
                                                   long long next_epoch,
                                                   const WalOptions& options) {
  if (generation < 1) {
    return InvalidArgumentError("WalWriter: generation must be >= 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return InternalError("cannot create wal dir '" + dir +
                         "': " + ec.message());
  }
  std::unique_ptr<WalWriter> writer(
      new WalWriter(dir, generation, options));
  std::lock_guard<std::mutex> append_lock(writer->append_mutex_);
  std::lock_guard<std::mutex> sync_lock(writer->sync_mutex_);
  FAIRIDX_RETURN_IF_ERROR(writer->OpenSegmentLocked(next_epoch));
  return writer;
}

Status WalWriter::OpenSegmentLocked(long long epoch) {
  const std::string path =
      JoinPath(dir_, SegmentFileName(generation_, epoch));
  Result<std::unique_ptr<WritableFile>> file =
      options_.file_factory ? options_.file_factory(path)
                            : OpenWritableFile(path);
  FAIRIDX_RETURN_IF_ERROR(file.status());
  BinaryWriter header;
  header.PutU32(kWalMagic);
  header.PutU32(kWalVersion);
  header.PutI64(generation_);
  header.PutI64(epoch);
  FAIRIDX_RETURN_IF_ERROR(
      (*file)->Append(header.buffer().data(), header.buffer().size()));
  file_ = std::move(*file);
  current_epoch_ = epoch;
  bytes_appended_.fetch_add(static_cast<long long>(header.size()),
                            std::memory_order_acq_rel);
  return Status::Ok();
}

Status WalWriter::AppendRecordLocked(const std::string& framed) {
  if (closed_ || file_ == nullptr) {
    return FailedPreconditionError("WalWriter: log is closed");
  }
  FAIRIDX_RETURN_IF_ERROR(file_->Append(framed.data(), framed.size()));
  bytes_appended_.fetch_add(static_cast<long long>(framed.size()),
                            std::memory_order_acq_rel);
  return Status::Ok();
}

/// One queued writer. Stack-allocated in its own AppendFramed frame; the
/// leader fills `status` and flips `done` before notifying, so the frame
/// outlives every access.
struct WalWriter::PendingAppend {
  const std::string* framed = nullptr;
  Status status;
  bool done = false;
};

void WalWriter::WaitForAppendsLocked(std::unique_lock<std::mutex>& lock) {
  while (append_in_flight_ || !append_queue_.empty()) {
    append_cv_.wait(lock);
  }
}

Status WalWriter::AppendFramed(const std::string& framed) {
  std::unique_lock<std::mutex> lock(append_mutex_);
  PendingAppend self;
  self.framed = &framed;
  append_queue_.push_back(&self);
  while (!self.done &&
         (append_in_flight_ || append_queue_.front() != &self)) {
    append_cv_.wait(lock);
  }
  if (self.done) return self.status;  // A leader wrote our record for us.

  // Leader: claim everything queued so far; later arrivals queue behind
  // and form the next group.
  std::vector<PendingAppend*> group(append_queue_.begin(),
                                    append_queue_.end());
  append_queue_.clear();
  Status status;
  if (closed_ || file_ == nullptr) {
    status = FailedPreconditionError("WalWriter: log is closed");
  } else {
    // Single-record groups write in place; larger groups concatenate so
    // the whole group lands in one write() (and one torn-tail boundary
    // per record is preserved — records stay self-delimiting).
    std::string combined;
    const std::string* data = group.front()->framed;
    if (group.size() > 1) {
      size_t total = 0;
      for (const PendingAppend* entry : group) total += entry->framed->size();
      combined.reserve(total);
      for (const PendingAppend* entry : group) combined += *entry->framed;
      data = &combined;
    }
    WritableFile* file = file_.get();
    append_in_flight_ = true;
    // Release the lock for the write(): rotation/Close cannot swap file_
    // underneath us — they wait for append_in_flight_ to clear.
    lock.unlock();
    status = file->Append(data->data(), data->size());
    lock.lock();
    append_in_flight_ = false;
    if (status.ok()) {
      bytes_appended_.fetch_add(static_cast<long long>(data->size()),
                                std::memory_order_acq_rel);
    }
  }
  for (PendingAppend* entry : group) {
    entry->status = status;
    entry->done = true;
  }
  append_cv_.notify_all();
  return status;
}

Status WalWriter::FlushBufferLocked(std::unique_lock<std::mutex>& lock) {
  // An in-flight flush may be writing the bytes we came for; wait it out
  // and re-check (the buffer is usually empty afterwards).
  while (append_in_flight_) append_cv_.wait(lock);
  if (write_buffer_.empty()) return Status::Ok();
  if (closed_ || file_ == nullptr) {
    return FailedPreconditionError("WalWriter: log is closed");
  }
  std::string local;
  local.swap(write_buffer_);
  WritableFile* file = file_.get();
  append_in_flight_ = true;
  lock.unlock();
  const Status status = file->Append(local.data(), local.size());
  lock.lock();
  append_in_flight_ = false;
  if (status.ok()) {
    bytes_appended_.fetch_add(static_cast<long long>(local.size()),
                              std::memory_order_acq_rel);
  }
  append_cv_.notify_all();
  return status;
}

Status WalWriter::AppendBuffered(const std::string& framed) {
  std::unique_lock<std::mutex> lock(append_mutex_);
  if (closed_ || file_ == nullptr) {
    return FailedPreconditionError("WalWriter: log is closed");
  }
  write_buffer_ += framed;
  if (write_buffer_.size() < options_.buffer_bytes) return Status::Ok();
  return FlushBufferLocked(lock);
}

Status WalWriter::GroupSync(long long appended_through) {
  std::lock_guard<std::mutex> lock(sync_mutex_);
  // Another writer's sync (or a rotation) may already cover our bytes.
  if (bytes_synced_ >= appended_through) return Status::Ok();
  if (file_ == nullptr) return Status::Ok();  // Rotation/Close synced.
  const long long covered = bytes_appended_.load(std::memory_order_acquire);
  FAIRIDX_RETURN_IF_ERROR(file_->Sync());
  bytes_synced_ = std::max(bytes_synced_, covered);
  return Status::Ok();
}

Status WalWriter::AppendBatch(long long seq, const AggregateBatch& batch) {
  const std::string framed = FrameBatchRecord(seq, batch);
  if (options_.fsync == WalFsync::kNone) {
    return AppendBuffered(framed);
  }
  FAIRIDX_RETURN_IF_ERROR(AppendFramed(framed));
  if (options_.fsync == WalFsync::kAlways) {
    return GroupSync(bytes_appended_.load(std::memory_order_acquire));
  }
  return Status::Ok();
}

Status WalWriter::AppendSeal(long long sealed_epoch, bool captured,
                             bool refine, double drift_bound) {
  // An empty plain cut changes nothing on either side of a recovery;
  // logging it would only grow the tail segment.
  if (!captured && !refine) return Status::Ok();
  const std::string framed =
      FrameSealRecord(sealed_epoch, captured, refine, drift_bound);
  std::unique_lock<std::mutex> append_lock(append_mutex_);
  WaitForAppendsLocked(append_lock);
  // Buffered records must hit the file before the seal that cuts their
  // epoch (and certainly before rotation swaps the segment).
  FAIRIDX_RETURN_IF_ERROR(FlushBufferLocked(append_lock));
  FAIRIDX_RETURN_IF_ERROR(AppendRecordLocked(framed));
  std::lock_guard<std::mutex> sync_lock(sync_mutex_);
  if (options_.fsync != WalFsync::kNone) {
    FAIRIDX_RETURN_IF_ERROR(file_->Sync());
    bytes_synced_ = bytes_appended_.load(std::memory_order_acquire);
  }
  if (captured) {
    FAIRIDX_RETURN_IF_ERROR(file_->Close());
    file_ = nullptr;
    FAIRIDX_RETURN_IF_ERROR(OpenSegmentLocked(sealed_epoch + 1));
  }
  return Status::Ok();
}

Status WalWriter::Close() {
  std::unique_lock<std::mutex> append_lock(append_mutex_);
  WaitForAppendsLocked(append_lock);
  const Status flushed = FlushBufferLocked(append_lock);
  std::lock_guard<std::mutex> sync_lock(sync_mutex_);
  if (closed_) return Status::Ok();
  closed_ = true;
  if (file_ == nullptr) return Status::Ok();
  FAIRIDX_RETURN_IF_ERROR(flushed);
  if (options_.fsync != WalFsync::kNone) {
    FAIRIDX_RETURN_IF_ERROR(file_->Sync());
    bytes_synced_ = bytes_appended_.load(std::memory_order_acquire);
  }
  const Status status = file_->Close();
  file_ = nullptr;
  return status;
}

}  // namespace fairidx
