#include "durability/fact_log.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "recovery/atomic_file.h"
#include "recovery/checkpoint.h"
#include "recovery/fault.h"

namespace exdl::durability {

namespace {

constexpr char kMagic[8] = {'E', 'X', 'D', 'L', 'F', 'L', 'O', 'G'};
constexpr size_t kFrameHeaderSize = 8;  // u32 length + u32 crc.

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<uint8_t>(p[i]);
  }
  return v;
}

Status Corrupt(const std::string& what) {
  return Status::CorruptCheckpoint("fact log: " + what);
}

bool FaultAt(std::string_view site) {
  return FaultPlan::Global().armed() && FaultPlan::Global().ShouldFail(site);
}

}  // namespace

std::string EncodeFactLogHeader() {
  std::string out(kMagic, sizeof kMagic);
  PutU32(&out, kFactLogVersion);
  PutU32(&out, 0);  // flags
  return out;
}

std::string EncodeFactRecord(uint64_t generation, std::string_view source) {
  std::string payload;
  payload.reserve(8 + source.size());
  PutU64(&payload, generation);
  payload.append(source);
  std::string out;
  out.reserve(kFrameHeaderSize + payload.size());
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, recovery::Crc32c(payload.data(), payload.size()));
  out.append(payload);
  return out;
}

Result<FactLogScan> ScanFactLog(std::string_view bytes) {
  FactLogScan scan;
  if (bytes.empty()) return scan;  // A fresh, never-written log.
  const std::string header = EncodeFactLogHeader();
  if (bytes.size() < kFactLogHeaderSize) {
    // Interrupted while the header itself was being created: torn, as
    // long as what is there is a prefix of the real header.
    if (header.compare(0, bytes.size(), bytes.data(), bytes.size()) != 0) {
      return Corrupt("bad magic");
    }
    scan.truncated_tail_bytes = bytes.size();
    return scan;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return Corrupt("bad magic");
  }
  const uint32_t version = GetU32(bytes.data() + 8);
  if (version != kFactLogVersion) {
    return Corrupt("unsupported version " + std::to_string(version));
  }
  if (GetU32(bytes.data() + 12) != 0) {
    return Corrupt("unsupported flags");
  }
  size_t offset = kFactLogHeaderSize;
  scan.valid_bytes = offset;
  uint64_t prev_generation = 0;
  while (offset < bytes.size()) {
    const size_t remaining = bytes.size() - offset;
    if (remaining < kFrameHeaderSize) break;  // Torn frame header.
    const uint32_t length = GetU32(bytes.data() + offset);
    if (length < 8 || length > kMaxFactPayloadBytes) {
      // No interrupted append produces an out-of-range length (the field
      // is written before the payload, from an in-range value), so this
      // is corruption, not a tear.
      return Corrupt("record length out of range at offset " +
                     std::to_string(offset));
    }
    if (remaining - kFrameHeaderSize < length) break;  // Torn payload.
    const uint32_t stored_crc = GetU32(bytes.data() + offset + 4);
    const char* payload = bytes.data() + offset + kFrameHeaderSize;
    if (recovery::Crc32c(payload, length) != stored_crc) {
      return Corrupt("record checksum mismatch at offset " +
                     std::to_string(offset));
    }
    FactRecord record;
    record.generation = GetU64(payload);
    if (record.generation <= prev_generation) {
      return Corrupt("generations out of order at offset " +
                     std::to_string(offset));
    }
    prev_generation = record.generation;
    record.source.assign(payload + 8, length - 8);
    scan.records.push_back(std::move(record));
    offset += kFrameHeaderSize + length;
    scan.valid_bytes = offset;
  }
  scan.truncated_tail_bytes = bytes.size() - scan.valid_bytes;
  return scan;
}

FactLog::~FactLog() { Close(); }

FactLog::FactLog(FactLog&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), end_(std::exchange(other.end_, 0)) {}

FactLog& FactLog::operator=(FactLog&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    end_ = std::exchange(other.end_, 0);
  }
  return *this;
}

void FactLog::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  end_ = 0;
}

Status FactLog::Open(const std::string& path, FactLogScan* scan) {
  Close();
  Result<std::string> bytes = recovery::ReadFileToString(path);
  std::string image;
  if (bytes.ok()) {
    image = std::move(*bytes);
  } else if (bytes.status().code() != StatusCode::kNotFound) {
    return bytes.status();
  }
  EXDL_ASSIGN_OR_RETURN(*scan, ScanFactLog(image));
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return Status::Internal("open(" + path + "): " + std::strerror(errno));
  }
  if (scan->valid_bytes < kFactLogHeaderSize) {
    // Empty or header-torn file: start from a fresh header.
    if (::ftruncate(fd_, 0) != 0) {
      return Status::Internal("ftruncate(" + path +
                              "): " + std::strerror(errno));
    }
    const std::string header = EncodeFactLogHeader();
    if (!recovery::WriteAll(fd_, header.data(), header.size())) {
      return Status::Internal("write header(" + path +
                              "): " + std::strerror(errno));
    }
    end_ = kFactLogHeaderSize;
  } else {
    // Repair the torn tail in place; complete records are untouched.
    if (scan->truncated_tail_bytes > 0 &&
        ::ftruncate(fd_, static_cast<off_t>(scan->valid_bytes)) != 0) {
      return Status::Internal("ftruncate(" + path +
                              "): " + std::strerror(errno));
    }
    end_ = scan->valid_bytes;
  }
  if (::fsync(fd_) != 0) {
    return Status::Internal("fsync(" + path + "): " + std::strerror(errno));
  }
  if (::lseek(fd_, static_cast<off_t>(end_), SEEK_SET) < 0) {
    return Status::Internal("lseek(" + path + "): " + std::strerror(errno));
  }
  return Status::Ok();
}

Status FactLog::Append(uint64_t generation, std::string_view source) {
  if (fd_ < 0) return Status::FailedPrecondition("fact log is not open");
  const std::string record = EncodeFactRecord(generation, source);
  const uint64_t before = end_;
  // Any failure past this point — injected or real — unwinds the file to
  // `before` so an in-process retry sees a clean log. Only a hard crash
  // (the ":abort" fault, a real SIGKILL) leaves the torn tail behind.
  auto unwind = [&](std::string what) {
    ::ftruncate(fd_, static_cast<off_t>(before));
    ::lseek(fd_, static_cast<off_t>(before), SEEK_SET);
    return Status::Internal(std::move(what));
  };
  if (FaultPlan::Global().armed()) {
    // Split write so an abort at factlog.append dies with a half-written
    // frame on disk — the torn-tail shape recovery must repair.
    const size_t half = record.size() / 2;
    if (!recovery::WriteAll(fd_, record.data(), half)) {
      return unwind(std::string("fact log append: ") + std::strerror(errno));
    }
    if (FaultAt("factlog.append")) {
      return unwind("injected fault at factlog.append (short write)");
    }
    if (!recovery::WriteAll(fd_, record.data() + half, record.size() - half)) {
      return unwind(std::string("fact log append: ") + std::strerror(errno));
    }
  } else if (!recovery::WriteAll(fd_, record.data(), record.size())) {
    return unwind(std::string("fact log append: ") + std::strerror(errno));
  }
  if (FaultAt("factlog.fsync")) {
    return unwind("injected fault at factlog.fsync");
  }
  if (::fsync(fd_) != 0) {
    return unwind(std::string("fact log fsync: ") + std::strerror(errno));
  }
  end_ = before + record.size();
  return Status::Ok();
}

Status FactLog::Truncate() {
  if (fd_ < 0) return Status::FailedPrecondition("fact log is not open");
  if (::ftruncate(fd_, static_cast<off_t>(kFactLogHeaderSize)) != 0) {
    return Status::Internal(std::string("fact log truncate: ") +
                            std::strerror(errno));
  }
  if (::fsync(fd_) != 0) {
    return Status::Internal(std::string("fact log fsync: ") +
                            std::strerror(errno));
  }
  if (::lseek(fd_, static_cast<off_t>(kFactLogHeaderSize), SEEK_SET) < 0) {
    return Status::Internal(std::string("fact log lseek: ") +
                            std::strerror(errno));
  }
  end_ = kFactLogHeaderSize;
  return Status::Ok();
}

}  // namespace exdl::durability
