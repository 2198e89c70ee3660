// Durable EDB directory (DESIGN.md §15): the fact log plus its periodic
// compaction into a §11-style snapshot.
//
// A data directory holds two files:
//
//   edb.exdl    the newest compacted EDB snapshot (the §11 checkpoint
//               format: interning tables + every relation + a CRC32C;
//               the cursor section is a default cursor and the
//               fingerprint field carries the snapshot's generation)
//   facts.log   the write-ahead fact log of every LoadFacts since that
//               snapshot (fact_log.h)
//
// Write path ordering contract (the whole point):
//
//   1. Append(generation, source) — record fsync'd to facts.log;
//   2. only then does the QueryService publish the new generation;
//   3. every compact_every appends, MaybeCompact writes the whole EDB
//      as a snapshot (tmp + fsync + rename, the factlog.compact_rename
//      fault site guarding the rename) and truncates the log, keeping
//      replay cost O(recent loads) instead of O(daemon lifetime).
//
// A crash between the snapshot rename and the log truncate is benign:
// recovery filters replay records to generation > snapshot generation.
//
// Recovery (Open) loads the newest valid snapshot, scans the log with
// torn-tail repair, and exposes the filtered replay tail; the service
// layer (service/edb_recovery.h) replays it through the path a live load
// takes, so it interns in the same order. Mid-log corruption, a corrupt snapshot, or a generation gap
// all fail closed with kCorruptCheckpoint.

#ifndef EXDL_DURABILITY_DURABLE_EDB_H_
#define EXDL_DURABILITY_DURABLE_EDB_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "durability/fact_log.h"
#include "recovery/checkpoint.h"
#include "util/status.h"

namespace exdl::durability {

struct DurabilityOptions {
  /// Directory holding edb.exdl + facts.log; created if absent.
  std::string data_dir;
  /// Appends between compactions; 0 = never compact (the log only grows).
  uint32_t compact_every = 8;
};

/// Monotonic counters for the "daemon" -> "durability" telemetry object
/// (tools/metrics_schema.json) and test assertions.
struct DurabilityCounters {
  uint64_t records_appended = 0;
  uint64_t records_replayed = 0;
  uint64_t truncated_tail_bytes = 0;  ///< Torn bytes cut at the last Open.
  uint64_t compactions = 0;
  uint64_t snapshot_generation = 0;   ///< Generation of the newest snapshot.
  double recovery_seconds = 0;        ///< Wall-clock of the last recovery.
};

class DurableEdb {
 public:
  explicit DurableEdb(DurabilityOptions options);
  DurableEdb(const DurableEdb&) = delete;
  DurableEdb& operator=(const DurableEdb&) = delete;

  /// Creates the directory if needed, loads the newest valid snapshot,
  /// opens the log (repairing a torn tail), and filters the replay tail.
  /// Fails closed with kCorruptCheckpoint on any damaged state.
  Status Open();

  /// The recovered snapshot, if one had been compacted. Valid after Open.
  const std::optional<recovery::Snapshot>& snapshot() const {
    return snapshot_;
  }
  /// Generation the recovered snapshot represents (0 = none).
  uint64_t snapshot_generation() const { return snapshot_generation_; }
  /// Log records newer than the snapshot, in replay (generation) order.
  const std::vector<FactRecord>& tail() const { return tail_; }

  /// WAL hook for QueryService::LoadFacts: fsyncs the record before the
  /// caller publishes `generation`. Consults factlog.append/factlog.fsync.
  Status Append(uint64_t generation, std::string_view source);

  /// Post-publish hook: every compact_every-th append snapshots (ctx, db)
  /// at `generation` and truncates the log. A failure (injected
  /// factlog.compact_rename, real I/O error) is non-fatal to the load —
  /// the previous snapshot plus the intact log still recover everything —
  /// so callers may ignore the status; the next append retries.
  Status MaybeCompact(const Context& ctx, const Database& db,
                      uint64_t generation);

  /// Metric hooks for the recovery driver.
  void NoteReplayed(uint64_t records);
  void NoteRecoverySeconds(double seconds);

  DurabilityCounters counters() const;

  const DurabilityOptions& options() const { return options_; }

  static std::string SnapshotPathIn(const std::string& dir);
  static std::string LogPathIn(const std::string& dir);

 private:
  DurabilityOptions options_;
  std::optional<recovery::Snapshot> snapshot_;
  uint64_t snapshot_generation_ = 0;
  std::vector<FactRecord> tail_;
  FactLog log_;
  uint32_t appends_since_compact_ = 0;

  mutable std::mutex counters_mu_;
  DurabilityCounters counters_;
};

}  // namespace exdl::durability

#endif  // EXDL_DURABILITY_DURABLE_EDB_H_
