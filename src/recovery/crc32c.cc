// CRC32C (Castagnoli), the checksum of every snapshot and fact-log record.
// x86-64 hosts with SSE4.2 run the `crc32` instruction, chosen at run
// time so the build needs no -m flag; everything else runs slicing-by-8.

#include <array>
#include <cstring>

#include "recovery/checkpoint.h"
#include "recovery/crc32c_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define EXDL_CRC32C_SSE42 1
#endif

namespace exdl::recovery {

namespace {

// Reflected Castagnoli polynomial (0x1EDC6F41 bit-reversed).
constexpr uint32_t kPoly = 0x82F63B78u;

// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the CRC over eight input bytes at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int k = 0; k < 8; ++k) crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    t[0][b] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

#ifdef EXDL_CRC32C_SSE42
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data,
                                                       size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof word);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}
#endif

using Crc32cFn = uint32_t (*)(const void*, size_t);

Crc32cFn SelectCrc32c() {
#ifdef EXDL_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return internal::Crc32cPortable;
}

}  // namespace

namespace internal {

uint32_t Crc32cPortable(const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xFF] ^ kTables[6][(lo >> 8) & 0xFF] ^
          kTables[5][(lo >> 16) & 0xFF] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFF] ^ kTables[2][(hi >> 8) & 0xFF] ^
          kTables[1][(hi >> 16) & 0xFF] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = kTables[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

}  // namespace internal

uint32_t Crc32c(const void* data, size_t n) {
  static const Crc32cFn impl = SelectCrc32c();
  return impl(data, n);
}

}  // namespace exdl::recovery
