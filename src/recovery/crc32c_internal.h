// CRC32C implementation detail (DESIGN.md §11). recovery::Crc32c picks
// one implementation per process; this header exposes the portable one
// so tests can check it on hosts where Crc32c dispatches to hardware.

#ifndef EXDL_RECOVERY_CRC32C_INTERNAL_H_
#define EXDL_RECOVERY_CRC32C_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace exdl::recovery::internal {

/// Slicing-by-8 table CRC32C, same result as Crc32c on every input. It is
/// what Crc32c runs on targets without the SSE4.2 `crc32` instruction.
uint32_t Crc32cPortable(const void* data, size_t n);

}  // namespace exdl::recovery::internal

#endif  // EXDL_RECOVERY_CRC32C_INTERNAL_H_
