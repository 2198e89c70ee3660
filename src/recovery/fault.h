// Deterministic fault injection (DESIGN.md §11b).
//
// A FaultPlan arms at most one *site* — a named instrumentation point in
// the engine — to fail on exactly the Nth time execution reaches it. Tests
// and the CI fault sweep use this to exercise every failure path the same
// way every run: `EXDL_FAULT_SPEC="snapshot.write:3"` makes the third
// snapshot write fail; `"storage.arena_grow:2:abort"` makes the second
// arena-growth flush terminate the process (exit 86), simulating a hard
// crash mid-evaluation.
//
// The registered sites are:
//   storage.arena_grow   tuple-arena growth at the end-of-round flush
//   snapshot.open        opening the checkpoint temp file
//   snapshot.write       writing snapshot bytes (fails as a short write)
//   snapshot.fsync       flushing the temp file to stable storage
//   snapshot.rename      the atomic rename (temp stays, target untouched)
//   daemon.accept        exdld accepting a client connection (dropped at birth)
//   daemon.read          exdld reading a protocol frame (torn connection)
//   daemon.write         exdld writing a protocol frame (torn connection)
//   daemon.dispatch      exdld handing a SUBMIT to the query service
//   factlog.append       appending a LOAD_FACTS record to the durable
//                        fact log (fails as a short write; an abort here
//                        leaves the torn tail recovery must repair)
//   factlog.fsync        fsyncing the appended record — the generation is
//                        published only after this point
//   factlog.compact_rename  the atomic rename publishing a compacted EDB
//                        snapshot (temp stays, previous snapshot intact)
//   daemon.recover_replay   exdld replaying one fact-log record during
//                        --data-dir startup recovery
//
// The site list is the single source of truth for tools/fault_sweep.sh,
// which reads it via `exdlc fault-sites` — add sites here, never in the
// sweep script.
//
// When no plan is armed every check is one relaxed atomic load — cheap
// enough to leave compiled into release builds.

#ifndef EXDL_RECOVERY_FAULT_H_
#define EXDL_RECOVERY_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>

#include "util/status.h"

namespace exdl {

class FaultPlan {
 public:
  /// The process-wide plan. Sites consult this instance; tests and the CLI
  /// arm it.
  static FaultPlan& Global();

  /// All registered site names, in a stable order (the sweep iterates it).
  static std::span<const std::string_view> Sites();
  /// True if `site` is a registered site name.
  static bool IsSite(std::string_view site);

  /// Arms the plan from `spec` = "<site>:<n>" or "<site>:<n>:abort" with
  /// n >= 1: the n-th hit of <site> fails (or exits 86 with ":abort").
  /// Replaces any previous plan and resets the hit counter.
  Status Arm(std::string_view spec);

  /// Arms from the EXDL_FAULT_SPEC environment variable; no-op when the
  /// variable is unset or empty.
  Status ArmFromEnv();

  /// Disarms the plan and resets the hit counter.
  void Disarm();

  /// Fast path for instrumentation sites: false unless some plan is armed.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Records one hit of `site` if it is the armed site. Returns true on
  /// the hit the plan designates — the caller must then fail the
  /// operation. In abort mode the designated hit does not return: the
  /// process exits with code 86 (a simulated crash).
  bool ShouldFail(std::string_view site);

  /// Hits recorded at the armed site since Arm (test introspection).
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// Exit code used by ":abort" plans, chosen to be distinguishable from
  /// every documented exdlc exit code and common signal encodings.
  static constexpr int kAbortExitCode = 86;

 private:
  void DisarmLocked();

  std::atomic<bool> armed_{false};
  // Arm/Disarm may race with ShouldFail from daemon connection threads
  // (tests re-arm a live server); the armed() fast path stays a single
  // relaxed load, everything else is guarded.
  mutable std::mutex mu_;
  std::string site_;
  uint64_t trigger_ = 0;
  bool abort_ = false;
  std::atomic<uint64_t> hits_{0};
};

}  // namespace exdl

#endif  // EXDL_RECOVERY_FAULT_H_
