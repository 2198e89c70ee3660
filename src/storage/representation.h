// Representation: which physical executor a run should use for eligible
// rules (DESIGN.md §14). kTuple forces the generic arena/index path,
// kBitset (the default) runs bitset-eligible rules through the
// word-packed unary kernels and falls back per rule wherever a plan is
// not eligible, so it never loses generality. Answers and pre-existing
// telemetry are byte-identical across representations by contract; only
// storage.representation.* counters differ.

#ifndef EXDL_STORAGE_REPRESENTATION_H_
#define EXDL_STORAGE_REPRESENTATION_H_

#include <cstdint>
#include <string_view>

namespace exdl {

/// The values are part of the program-cache key and (plus one) of the v2
/// SUBMIT wire byte, so they never change; 0 is retired.
enum class Representation : uint8_t {
  kTuple = 1,
  kBitset = 2,
};

/// Parses "tuple" | "bitset". Returns false (leaving `out` untouched) on
/// anything else; the CLI maps that to usage exit code 2.
inline bool ParseRepresentation(std::string_view text, Representation* out) {
  if (text == "tuple") {
    *out = Representation::kTuple;
  } else if (text == "bitset") {
    *out = Representation::kBitset;
  } else {
    return false;
  }
  return true;
}

inline const char* RepresentationName(Representation r) {
  switch (r) {
    case Representation::kTuple:
      return "tuple";
    case Representation::kBitset:
      return "bitset";
  }
  return "?";
}

/// True if this run should execute eligible rules on the bitset path.
inline bool UseBitsetKernels(Representation r) {
  return r != Representation::kTuple;
}

}  // namespace exdl

#endif  // EXDL_STORAGE_REPRESENTATION_H_
