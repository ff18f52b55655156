#include "common/crc32c.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c_internal.h"
#include "common/rng.h"

namespace protoacc {
namespace {

using ExtendFn = uint32_t (*)(uint32_t, const uint8_t *, size_t);

// Bit-at-a-time reference implementation: the definition of CRC32C
// (reflected polynomial 0x82F63B78, inverted in and out), used to
// cross-check both implementations. Feed it one byte at a time from
// 0xFFFFFFFF; the CRC of the bytes so far is the complement.
uint32_t
ReferenceStep(uint32_t state, uint8_t byte)
{
    state ^= byte;
    for (int bit = 0; bit < 8; ++bit)
        state = (state >> 1) ^ ((state & 1u) ? 0x82F63B78u : 0u);
    return state;
}

std::vector<uint8_t>
RandomBytes(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<uint8_t> buf(n);
    for (auto &b : buf)
        b = static_cast<uint8_t>(rng.Next());
    return buf;
}

void
ExpectKnownVectors(ExtendFn extend)
{
    const auto crc = [extend](const void *p, size_t n) {
        return extend(0, static_cast<const uint8_t *>(p), n);
    };
    // The standard CRC32C check value.
    const std::string check = "123456789";
    EXPECT_EQ(crc(check.data(), check.size()), 0xE3069283u);

    // RFC 3720 (iSCSI) appendix B.4 test patterns.
    std::vector<uint8_t> zeros(32, 0x00);
    EXPECT_EQ(crc(zeros.data(), zeros.size()), 0x8A9136AAu);
    std::vector<uint8_t> ones(32, 0xFF);
    EXPECT_EQ(crc(ones.data(), ones.size()), 0x62A8AB43u);
    std::vector<uint8_t> ascending(32);
    for (size_t i = 0; i < ascending.size(); ++i)
        ascending[i] = static_cast<uint8_t>(i);
    EXPECT_EQ(crc(ascending.data(), ascending.size()), 0x46DD794Eu);
    std::vector<uint8_t> descending(32);
    for (size_t i = 0; i < descending.size(); ++i)
        descending[i] = static_cast<uint8_t>(31 - i);
    EXPECT_EQ(crc(descending.data(), descending.size()), 0x113FDB5Cu);

    EXPECT_EQ(crc(nullptr, 0), 0u);
}

/// Every length 0..4096 at every start alignment 0..7, through the
/// head, word and tail regimes of both implementations.
void
ExpectMatchesBitwiseReference(ExtendFn extend)
{
    constexpr size_t kMaxLen = 4096;
    const std::vector<uint8_t> buf = RandomBytes(0xC4C32C, kMaxLen + 8);
    for (size_t align = 0; align < 8; ++align) {
        const uint8_t *p = buf.data() + align;
        uint32_t reference = 0xFFFFFFFFu;
        size_t mismatches = 0;
        for (size_t len = 0; len <= kMaxLen; ++len) {
            if (extend(0, p, len) != ~reference && mismatches++ < 4)
                ADD_FAILURE() << "align=" << align << " len=" << len;
            if (len < kMaxLen)
                reference = ReferenceStep(reference, p[len]);
        }
        EXPECT_EQ(mismatches, 0u) << "align=" << align;
    }
}

void
ExpectExtendComposes(ExtendFn extend)
{
    const std::vector<uint8_t> buf = RandomBytes(0xBADC0DE, 300);
    const uint32_t whole = extend(0, buf.data(), buf.size());
    for (size_t split : {0u, 1u, 7u, 8u, 13u, 150u, 299u, 300u}) {
        const uint32_t piecewise =
            extend(extend(0, buf.data(), split), buf.data() + split,
                   buf.size() - split);
        EXPECT_EQ(piecewise, whole) << "split=" << split;
    }
}

// ---- Crc32c / Crc32cExtend: the path this CPU picked ----

TEST(Crc32c, KnownVectors)
{
    ExpectKnownVectors(Crc32cExtend);
    const std::string check = "123456789";
    EXPECT_EQ(Crc32c(reinterpret_cast<const uint8_t *>(check.data()),
                     check.size()),
              0xE3069283u);
}

TEST(Crc32c, MatchesBitwiseReferenceAcrossSizesAndAlignments)
{
    ExpectMatchesBitwiseReference(Crc32cExtend);
}

TEST(Crc32c, ExtendComposesOverSplits)
{
    ExpectExtendComposes(Crc32cExtend);
}

TEST(Crc32c, DetectsSingleBitFlips)
{
    std::vector<uint8_t> buf = RandomBytes(0x51B, 64);
    const uint32_t clean = Crc32c(buf.data(), buf.size());
    for (size_t byte = 0; byte < buf.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            buf[byte] ^= static_cast<uint8_t>(1u << bit);
            EXPECT_NE(Crc32c(buf.data(), buf.size()), clean)
                << "byte=" << byte << " bit=" << bit;
            buf[byte] ^= static_cast<uint8_t>(1u << bit);
        }
    }
}

// ---- The slice-by-8 tables, which every CPU can run ----

TEST(Crc32cTable, KnownVectors)
{
    ExpectKnownVectors(crc32c_internal::ExtendTable);
}

TEST(Crc32cTable, MatchesBitwiseReferenceAtEverySizeAndAlignment)
{
    ExpectMatchesBitwiseReference(crc32c_internal::ExtendTable);
}

TEST(Crc32cTable, ExtendComposesOverSplits)
{
    ExpectExtendComposes(crc32c_internal::ExtendTable);
}

// ---- The SSE4.2 crc32 instruction, where the CPU has it ----

class Crc32cSse42 : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!crc32c_internal::HasSse42())
            GTEST_SKIP() << "CPU without SSE4.2";
    }
};

TEST_F(Crc32cSse42, KnownVectors)
{
    ExpectKnownVectors(crc32c_internal::ExtendSse42);
}

TEST_F(Crc32cSse42, MatchesBitwiseReferenceAtEverySizeAndAlignment)
{
    ExpectMatchesBitwiseReference(crc32c_internal::ExtendSse42);
}

TEST_F(Crc32cSse42, ExtendComposesOverSplits)
{
    ExpectExtendComposes(crc32c_internal::ExtendSse42);
}

TEST_F(Crc32cSse42, AgreesWithTheTablesOnRandomBuffers)
{
    Rng rng(0x55E42);
    for (int trial = 0; trial < 2000; ++trial) {
        const size_t len = rng.Next() % 2048;
        const size_t skip = rng.Next() % 8;
        const std::vector<uint8_t> buf = RandomBytes(rng.Next(), len + 8);
        const uint32_t seed_crc = static_cast<uint32_t>(rng.Next());
        EXPECT_EQ(crc32c_internal::ExtendSse42(seed_crc, buf.data() + skip,
                                               len),
                  crc32c_internal::ExtendTable(seed_crc, buf.data() + skip,
                                               len))
            << "trial=" << trial << " len=" << len << " skip=" << skip;
    }
}

}  // namespace
}  // namespace protoacc
