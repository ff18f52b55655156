/**
 * @file
 * CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the end-to-end frame
 * integrity check of the RPC substrate.
 *
 * The serving stack cannot trust the channel: a payload byte flipped in
 * flight can still parse into a well-formed message and be served as a
 * wrong answer. Production RPC framing layers around hardware
 * (de)serializers carry a checksum per frame for exactly this reason
 * (RPCAcc and HGum both note it for their host<->accelerator framing);
 * CRC32C is the conventional choice because short tables fit in L1 and
 * commodity cores carry a dedicated instruction for it.
 *
 * Implementation: where CPUID reports SSE4.2, the `crc32` instruction;
 * elsewhere slice-by-8, eight 256-entry tables consuming 8 bytes per
 * iteration with no carry chain (Intel's slicing-by-8 paper). Chosen
 * once; both give the same bits and modeled cost (CostSink::OnCrc).
 * The test checks each against a bit-at-a-time reference.
 */
#ifndef PROTOACC_COMMON_CRC32C_H
#define PROTOACC_COMMON_CRC32C_H

#include <cstddef>
#include <cstdint>

namespace protoacc {

/**
 * Extend a running CRC32C with @p len bytes at @p data.
 *
 * @p crc is a *finalized* CRC value (as returned by Crc32c or a
 * previous Extend), so checksums compose over discontiguous pieces:
 * Crc32cExtend(Crc32c(a, n), b, m) == Crc32c(concat(a, b), n + m).
 */
uint32_t Crc32cExtend(uint32_t crc, const uint8_t *data, size_t len);

/// CRC32C of one contiguous buffer.
inline uint32_t
Crc32c(const uint8_t *data, size_t len)
{
    return Crc32cExtend(0, data, len);
}

}  // namespace protoacc

#endif  // PROTOACC_COMMON_CRC32C_H
