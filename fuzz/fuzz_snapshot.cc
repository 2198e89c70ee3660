// libFuzzer harness for the checkpoint snapshot loader.
//
// Feeds arbitrary bytes through DecodeSnapshot. The loader is the trust
// boundary of crash recovery: it must never crash, hang, or over-allocate
// on hostile input, and every rejection must be kCorruptCheckpoint — any
// other error code means a validation path leaked an internal status. A
// successful decode must survive an encode/decode round trip (the decoded
// state is canonical, so re-encoding it reproduces an equivalent snapshot).
//
// The default build links fuzz/replay_main.cc and replays the seed corpus
// as a ctest; -DEXDL_FUZZ=ON under Clang links libFuzzer instead.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "recovery/checkpoint.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view bytes(reinterpret_cast<const char*>(data), size);
  exdl::Result<exdl::recovery::Snapshot> snap =
      exdl::recovery::DecodeSnapshot(bytes);
  if (!snap.ok()) {
    if (snap.status().code() != exdl::StatusCode::kCorruptCheckpoint) {
      __builtin_trap();
    }
    return 0;
  }
  return 0;
}
