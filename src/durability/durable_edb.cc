#include "durability/durable_edb.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/stat.h>

#include "eval/evaluator.h"
#include "recovery/atomic_file.h"

namespace exdl::durability {

DurableEdb::DurableEdb(DurabilityOptions options)
    : options_(std::move(options)) {}

std::string DurableEdb::SnapshotPathIn(const std::string& dir) {
  return dir + "/edb.exdl";
}

std::string DurableEdb::LogPathIn(const std::string& dir) {
  return dir + "/facts.log";
}

Status DurableEdb::Open() {
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument("durable EDB data_dir is empty");
  }
  if (::mkdir(options_.data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("mkdir(" + options_.data_dir +
                            "): " + std::strerror(errno));
  }
  snapshot_.reset();
  snapshot_generation_ = 0;
  tail_.clear();
  Result<recovery::Snapshot> snap =
      recovery::ReadSnapshotFile(SnapshotPathIn(options_.data_dir));
  if (snap.ok()) {
    // The fingerprint field of an EDB snapshot carries its generation.
    snapshot_generation_ = snap->program_fingerprint;
    snapshot_ = std::move(*snap);
  } else if (snap.status().code() != StatusCode::kNotFound) {
    return snap.status();  // Corrupt snapshot: fail closed.
  }
  FactLogScan scan;
  EXDL_RETURN_IF_ERROR(log_.Open(LogPathIn(options_.data_dir), &scan));
  // Records at or below the snapshot generation were compacted into it
  // (a crash between the snapshot rename and the log truncate leaves
  // them behind); everything newer must be gap-free to replay.
  uint64_t expected = snapshot_generation_;
  for (FactRecord& record : scan.records) {
    if (record.generation <= snapshot_generation_) continue;
    if (record.generation != expected + 1) {
      return Status::CorruptCheckpoint(
          "fact log: generation gap (snapshot at " +
          std::to_string(snapshot_generation_) + ", record at " +
          std::to_string(record.generation) + " expected " +
          std::to_string(expected + 1) + ")");
    }
    expected = record.generation;
    tail_.push_back(std::move(record));
  }
  appends_since_compact_ = static_cast<uint32_t>(tail_.size());
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.truncated_tail_bytes = scan.truncated_tail_bytes;
  counters_.snapshot_generation = snapshot_generation_;
  return Status::Ok();
}

Status DurableEdb::Append(uint64_t generation, std::string_view source) {
  EXDL_RETURN_IF_ERROR(log_.Append(generation, source));
  std::lock_guard<std::mutex> lock(counters_mu_);
  ++counters_.records_appended;
  return Status::Ok();
}

Status DurableEdb::MaybeCompact(const Context& ctx, const Database& db,
                                uint64_t generation) {
  if (options_.compact_every == 0) return Status::Ok();
  if (++appends_since_compact_ < options_.compact_every) return Status::Ok();
  const std::string bytes =
      recovery::EncodeSnapshot(ctx, db, EvalCursor{}, generation);
  // A failed write leaves the previous snapshot in place, so recovery is
  // unaffected.
  EXDL_RETURN_IF_ERROR(recovery::AtomicWriteFile(
      SnapshotPathIn(options_.data_dir), bytes,
      recovery::WriteFaults::kCompaction));
  // The snapshot is durable; from here the log records it covers are
  // redundant (recovery filters by generation even if the truncate is
  // lost to a crash).
  EXDL_RETURN_IF_ERROR(log_.Truncate());
  appends_since_compact_ = 0;
  snapshot_generation_ = generation;
  std::lock_guard<std::mutex> lock(counters_mu_);
  ++counters_.compactions;
  counters_.snapshot_generation = generation;
  return Status::Ok();
}

void DurableEdb::NoteReplayed(uint64_t records) {
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.records_replayed += records;
}

void DurableEdb::NoteRecoverySeconds(double seconds) {
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_.recovery_seconds = seconds;
}

DurabilityCounters DurableEdb::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

}  // namespace exdl::durability
