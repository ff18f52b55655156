/**
 * @file
 * The two CRC32C implementations Crc32cExtend (common/crc32c.h) picks
 * between, for tests that check each one on its own.
 */
#ifndef PROTOACC_COMMON_CRC32C_INTERNAL_H
#define PROTOACC_COMMON_CRC32C_INTERNAL_H

#include <cstddef>
#include <cstdint>

namespace protoacc::crc32c_internal {

/// Slice-by-8 tables: runs on every CPU.
uint32_t ExtendTable(uint32_t crc, const uint8_t *data, size_t len);
/// True when the CPU executes SSE4.2's crc32 instruction.
bool HasSse42();
/// The crc32 instruction; call only when HasSse42() (else ExtendTable).
uint32_t ExtendSse42(uint32_t crc, const uint8_t *data, size_t len);

}  // namespace protoacc::crc32c_internal

#endif  // PROTOACC_COMMON_CRC32C_INTERNAL_H
