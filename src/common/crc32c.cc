#include "common/crc32c.h"

#include <cstring>

#include "common/crc32c_internal.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace protoacc {

namespace {

/// Slicing tables: kTable[0] is the plain byte-at-a-time table for the
/// reflected Castagnoli polynomial; kTable[k][b] extends kTable[k-1][b]
/// by one zero byte, so eight table lookups advance the CRC by eight
/// input bytes with no serial dependency between the lookups.
struct SliceTables
{
    uint32_t t[8][256];

    constexpr SliceTables() : t{}
    {
        constexpr uint32_t kPolyReflected = 0x82F63B78u;
        for (uint32_t b = 0; b < 256; ++b) {
            uint32_t crc = b;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ ((crc & 1u) ? kPolyReflected : 0u);
            t[0][b] = crc;
        }
        for (int k = 1; k < 8; ++k)
            for (uint32_t b = 0; b < 256; ++b)
                t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
};

constexpr SliceTables kTables;

}  // namespace

namespace crc32c_internal {

uint32_t
ExtendTable(uint32_t crc, const uint8_t *data, size_t len)
{
    const auto &t = kTables.t;
    uint32_t state = ~crc;
    // Head: bring the pointer to 8-byte alignment so the slice loads
    // below are cheap on every target.
    while (len > 0 && (reinterpret_cast<uintptr_t>(data) & 7u) != 0) {
        state = (state >> 8) ^ t[0][(state ^ *data++) & 0xFFu];
        --len;
    }
    while (len >= 8) {
        const uint32_t lo = state ^
                            (static_cast<uint32_t>(data[0]) |
                             static_cast<uint32_t>(data[1]) << 8 |
                             static_cast<uint32_t>(data[2]) << 16 |
                             static_cast<uint32_t>(data[3]) << 24);
        state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
                t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
                t[3][data[4]] ^ t[2][data[5]] ^ t[1][data[6]] ^
                t[0][data[7]];
        data += 8;
        len -= 8;
    }
    while (len > 0) {
        state = (state >> 8) ^ t[0][(state ^ *data++) & 0xFFu];
        --len;
    }
    return ~state;
}

bool
HasSse42()
{
#if defined(__x86_64__)
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & bit_SSE4_2) != 0;
#else
    return false;
#endif
}

#if defined(__x86_64__)
__attribute__((target("sse4.2")))
#endif
uint32_t
ExtendSse42(uint32_t crc, const uint8_t *data, size_t len)
{
#if defined(__x86_64__)
    if (len < 8)
        return ExtendTable(crc, data, len);
    // The instruction's CRC is the tables', little-endian words included.
    uint64_t state = ~crc;
    for (; len >= 8; data += 8, len -= 8) {
        uint64_t word = 0;
        std::memcpy(&word, data, 8);
        state = _mm_crc32_u64(state, word);
    }
    // The last len < 8 bytes in one step: by linearity, that is the CRC
    // from a zero state of (state ^ tail) behind 8 - len zero bytes,
    // plus the state bits the tail shifts out.
    const unsigned keep = 8 * static_cast<unsigned>(len);
    uint64_t last = 0;
    std::memcpy(&last, data + len - 8, 8);
    const uint64_t tail = (last >> 1) >> (63 - keep);
    const uint64_t mixed = ((state ^ tail) << 1) << (63 - keep);
    return ~static_cast<uint32_t>(_mm_crc32_u64(0, mixed) ^ (state >> keep));
#else
    return ExtendTable(crc, data, len);
#endif
}

}  // namespace crc32c_internal

uint32_t
Crc32cExtend(uint32_t crc, const uint8_t *data, size_t len)
{
    // CPUID is asked once, on the first call.
    static const auto extend = crc32c_internal::HasSse42()
                                   ? crc32c_internal::ExtendSse42
                                   : crc32c_internal::ExtendTable;
    return extend(crc, data, len);
}

}  // namespace protoacc
