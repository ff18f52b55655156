#include "proto/software_codec.h"

#include <cstring>
#include <iterator>

#include "common/check.h"
#include "proto/codec_generated.h"
#include "proto/codec_reference.h"
#include "proto/codec_table.h"
#include "proto/serializer.h"

namespace protoacc::proto {

namespace {

/// Indexed by SoftwareCodecEngine.
constexpr SoftwareCodec kCodecs[] = {
    {SoftwareCodecEngine::kReference, "reference", "+ref",
     ReferenceParseFromBuffer, ReferenceByteSize,
     ReferenceSerializeToBuffer, ReferenceSerialize},
    {SoftwareCodecEngine::kTable, "table", "", ParseFromBuffer, ByteSize,
     SerializeToBuffer, Serialize},
    {SoftwareCodecEngine::kGenerated, "generated", "+gen",
     GeneratedParseFromBuffer, GeneratedByteSize,
     GeneratedSerializeToBuffer, GeneratedSerialize},
};

}  // namespace

const SoftwareCodec &
SoftwareCodecFor(SoftwareCodecEngine engine)
{
    const size_t i = static_cast<size_t>(engine);
    PA_CHECK_LT(i, std::size(kCodecs));
    PA_CHECK(kCodecs[i].engine == engine);
    return kCodecs[i];
}

const SoftwareCodec &
ResolveSoftwareCodec(SoftwareCodecEngine engine, const DescriptorPool &pool,
                     int msg_index)
{
    if (engine == SoftwareCodecEngine::kReference)
        return SoftwareCodecFor(engine);
    if (engine == SoftwareCodecEngine::kGenerated) {
        const GeneratedPoolCodec *c = GetGeneratedCodec(pool);
        if (c != nullptr &&
            (msg_index >= 0 ? c->covers(msg_index)
                            : std::strchr(c->coverage, '0') == nullptr))
            return SoftwareCodecFor(engine);
    }
    GetCodecTables(pool);
    return SoftwareCodecFor(SoftwareCodecEngine::kTable);
}

}  // namespace protoacc::proto
