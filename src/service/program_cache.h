// ProgramCache — a bounded, thread-safe LRU cache of CompiledProgram
// artifacts keyed by CompiledProgram::CacheKeyMaterial (the raw source
// text plus every compile option that changes the artifact; see
// compiled_program.h).
//
// The point of the cache is to skip the whole compile front half on a
// warm hit: the key is computable without parsing, and the cached value
// is immutable and shared by shared_ptr, so a hit costs one mutex-guarded
// map lookup — no re-parse, no re-optimize, no "optimize >" trace spans.
// Evaluation semantics are not part of the key: the artifact is the same
// under every EvalOptions, so naive and semi-naive runs of one source
// share an entry.
//
// The map is keyed on the *full* key bytes, not a hash of them: a 64-bit
// FNV fingerprint of source+options is cheap but not collision-resistant,
// and in a long-lived service a collision between two distinct programs
// would silently serve the wrong CompiledProgram as a warm hit. Keying on
// the material makes that impossible by construction.

#ifndef EXDL_SERVICE_PROGRAM_CACHE_H_
#define EXDL_SERVICE_PROGRAM_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/compiled_program.h"

namespace exdl {

class ProgramCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t size = 0;
    size_t capacity = 0;
  };

  /// A capacity of 0 disables caching: every Lookup misses, every Insert
  /// is dropped (and counted as an eviction of itself).
  explicit ProgramCache(size_t capacity) : capacity_(capacity) {}
  ProgramCache(const ProgramCache&) = delete;
  ProgramCache& operator=(const ProgramCache&) = delete;

  /// The cached artifact whose key bytes equal `key`, or nullptr. A hit
  /// moves the entry to the front of the LRU order. Counts one hit or one
  /// miss.
  CompiledProgram::Ptr Lookup(std::string_view key);

  /// Installs `value` under `key` (replacing any racing entry another
  /// session inserted first — last writer wins; both artifacts are
  /// equivalent by construction), evicting least-recently-used entries
  /// to stay within capacity.
  void Insert(std::string key, CompiledProgram::Ptr value);

  Stats stats() const;

  /// Drops every entry (outstanding Ptrs stay valid; counters persist).
  void Clear();

 private:
  using Entry = std::pair<std::string, CompiledProgram::Ptr>;

  mutable std::mutex mu_;
  const size_t capacity_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  // Views into the key strings owned by lru_ nodes; std::list node
  // stability keeps them valid across splices until the node is erased.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> by_key_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace exdl

#endif  // EXDL_SERVICE_PROGRAM_CACHE_H_
