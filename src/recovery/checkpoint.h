// Durable evaluation checkpoints (DESIGN.md §11).
//
// A snapshot is one self-contained binary blob holding everything needed
// to continue a fixpoint from a round boundary in a fresh process:
//
//   * the interning tables (symbols and predicate versions) of the
//     Context the run was using — stored for *validation*: a resuming
//     engine re-parses and re-optimizes the program, then checks that its
//     freshly built tables are identical, which guarantees every id in
//     the snapshot means the same thing in the new process;
//   * every relation of the database, rows in insertion order (insertion
//     order is the semi-naive delta mechanism, so it must survive the
//     round trip bit-for-bit);
//   * the EvalCursor (stratum, cumulative stats, delta watermarks,
//     retired rules, wall-clock spent);
//   * a fingerprint of the program + evaluation semantics, so a snapshot
//     is never resumed against a different program.
//
// Layout: "EXDLSNAP" magic, u32 version, u32 flags, u64 payload length,
// tagged payload sections (u32 tag, u64 length, bytes — unknown tags are
// skipped), and a trailing CRC32C over every preceding byte. All integers
// little-endian. DecodeSnapshot is fully bounds-checked and returns
// kCorruptCheckpoint for *any* malformed input: wrong magic or version,
// bad CRC, truncation, out-of-range ids, duplicate rows, non-canonical
// cursor tables. It must never crash and never accept a byte-flipped
// snapshot (the fuzz_snapshot harness enforces this).

#ifndef EXDL_RECOVERY_CHECKPOINT_H_
#define EXDL_RECOVERY_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ast/context.h"
#include "eval/evaluator.h"
#include "storage/database.h"
#include "util/status.h"

namespace exdl::recovery {

/// CRC32C (Castagnoli): the checksum guarding every snapshot and every
/// fact-log record. Runs the SSE4.2 `crc32` instruction on x86-64 hosts
/// that have it (detected once, at first use) and a slicing-by-8 table
/// everywhere else; both give the same value for every input.
uint32_t Crc32c(const void* data, size_t n);

/// Current snapshot format version. Decoders accept exactly this version;
/// compat rules are documented in DESIGN.md §11.
inline constexpr uint32_t kSnapshotVersion = 1;

/// One interned predicate version as stored in a snapshot.
struct SnapshotPred {
  SymbolId name = kInvalidId;
  uint32_t arity = 0;
  std::string adornment;  ///< Adornment::str(); empty = unadorned.
};

/// A decoded snapshot.
struct Snapshot {
  std::vector<std::string> symbols;  ///< SymbolId -> name.
  std::vector<SnapshotPred> preds;   ///< PredId -> version triple.
  Database db;
  EvalCursor cursor;
  uint64_t program_fingerprint = 0;
};

/// Serializes (ctx, db, cursor, fingerprint) into a snapshot blob.
std::string EncodeSnapshot(const Context& ctx, const Database& db,
                           const EvalCursor& cursor, uint64_t fingerprint);

/// Parses and validates a snapshot blob. Any malformation yields
/// kCorruptCheckpoint; a successful decode is internally consistent
/// (every id in range, every relation deduplicated, cursor tables
/// canonical).
Result<Snapshot> DecodeSnapshot(std::string_view bytes);

/// Reads and decodes the snapshot at `path`. NotFound if the file does
/// not exist; kCorruptCheckpoint if it fails validation.
Result<Snapshot> ReadSnapshotFile(const std::string& path);

/// File-backed CheckpointSink: every Write encodes a snapshot and lands
/// it at `<directory>/checkpoint.exdl` via the atomic temp + fsync +
/// rename protocol (with the snapshot.* fault sites armed), so the file
/// always holds the latest *complete* checkpoint — a failed or torn write
/// leaves the previous one untouched.
class Checkpointer : public CheckpointSink {
 public:
  Checkpointer(std::string directory, uint64_t program_fingerprint);

  Result<uint64_t> Write(const Context& ctx, const Database& db,
                         const EvalCursor& cursor) override;

  /// The checkpoint file this sink writes.
  const std::string& path() const { return path_; }

  /// `<directory>/checkpoint.exdl` — the well-known checkpoint file name
  /// inside a checkpoint directory.
  static std::string PathIn(const std::string& directory);

 private:
  std::string path_;
  uint64_t fingerprint_;
};

}  // namespace exdl::recovery

#endif  // EXDL_RECOVERY_CHECKPOINT_H_
