// libFuzzer harness for the durable fact-log scanner.
//
// Feeds arbitrary bytes through ScanFactLog. The scanner is the trust
// boundary of --data-dir recovery (DESIGN.md §15): it must never crash,
// hang, or over-allocate on hostile input; every rejection must be
// kCorruptCheckpoint — any other error code means a validation path leaked
// an internal status. A successful scan is canonical: re-encoding the
// accepted records behind a fresh header and rescanning must accept every
// byte (no torn tail) and reproduce the same records.
//
// The default build links fuzz/replay_main.cc and replays the seed corpus
// as a ctest; -DEXDL_FUZZ=ON under Clang links libFuzzer instead.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "durability/fact_log.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);
  exdl::Result<exdl::durability::FactLogScan> scan =
      exdl::durability::ScanFactLog(bytes);
  if (!scan.ok()) {
    if (scan.status().code() != exdl::StatusCode::kCorruptCheckpoint) {
      __builtin_trap();
    }
    return 0;
  }
  if (scan->valid_bytes + scan->truncated_tail_bytes != bytes.size()) {
    __builtin_trap();  // every byte is either valid or torn tail
  }
  std::string reencoded = exdl::durability::EncodeFactLogHeader();
  for (const exdl::durability::FactRecord& record : scan->records) {
    reencoded +=
        exdl::durability::EncodeFactRecord(record.generation, record.source);
  }
  exdl::Result<exdl::durability::FactLogScan> rescan =
      exdl::durability::ScanFactLog(reencoded);
  if (!rescan.ok() || rescan->truncated_tail_bytes != 0 ||
      !(rescan->records == scan->records)) {
    __builtin_trap();  // accepted logs must round-trip canonically
  }
  return 0;
}
