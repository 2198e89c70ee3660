// Atomic whole-file writes: write to `<path>.tmp`, fsync, rename over
// `path`. A reader never observes a partially written file — it sees the
// old contents (or no file) until the rename, and the complete new
// contents after it. Used for checkpoints, durable-EDB compaction,
// --metrics-json, and the bench BENCH_*.json reports.

#ifndef EXDL_RECOVERY_ATOMIC_FILE_H_
#define EXDL_RECOVERY_ATOMIC_FILE_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace exdl::recovery {

/// Which fault sites (fault.h) an atomic write consults. Each writer has
/// its own sites so the fault sweep's per-site hit counts stay apart.
enum class WriteFaults {
  kNone,
  /// Engine checkpoints: snapshot.open / snapshot.write / snapshot.fsync /
  /// snapshot.rename. An injected write fault leaves a deliberately
  /// truncated temp file; an injected rename fault leaves the complete
  /// temp file but never touches `path`.
  kSnapshot,
  /// Durable-EDB compaction: factlog.compact_rename only, a torn rename.
  kCompaction,
};

/// Writes `data` to `path` atomically. After any failure, injected or
/// not, `path` still holds its previous contents.
Status AtomicWriteFile(const std::string& path, std::string_view data,
                       WriteFaults faults = WriteFaults::kNone);

/// write() until all `n` bytes are written, retrying on EINTR; false on
/// any other error (errno is set) or a zero-byte kernel write.
bool WriteAll(int fd, const char* data, size_t n);

/// Reads the whole file into a string.
Result<std::string> ReadFileToString(const std::string& path);

}  // namespace exdl::recovery

#endif  // EXDL_RECOVERY_ATOMIC_FILE_H_
