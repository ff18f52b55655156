/// @file Registry + pool resolution for generated codecs.

#include "proto/codec_generated.h"

#include <string_view>

#include "common/check.h"
#include "proto/descriptor.h"
#include "proto/message.h"

namespace protoacc::proto {

namespace {

/// Function-local static so registration from static initializers in
/// generated TUs is order-safe.
std::vector<const GeneratedPoolCodec *> &
Registry()
{
    static std::vector<const GeneratedPoolCodec *> codecs;
    return codecs;
}

/// FNV-1a accumulator with typed feeders. Length-prefixing strings
/// keeps adjacent variable-length fields from aliasing.
struct Fnv1a
{
    uint64_t h = 14695981039346656037ull;

    void
    Bytes(const void *p, size_t n)
    {
        const uint8_t *b = static_cast<const uint8_t *>(p);
        for (size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    }
    void
    U64(uint64_t v)
    {
        Bytes(&v, sizeof(v));
    }
    void
    U32(uint32_t v)
    {
        Bytes(&v, sizeof(v));
    }
    void
    Str(std::string_view s)
    {
        U64(s.size());
        Bytes(s.data(), s.size());
    }
};

}  // namespace

uint64_t
SchemaFingerprint(const DescriptorPool &pool)
{
    PA_CHECK(pool.compiled());
    Fnv1a f;
    // Version the hash: any change to what the generator specializes on
    // must bump this so stale codecs cannot silently match.
    f.Str("protoacc-gencodec-v1");
    f.U64(pool.message_count());
    for (size_t m = 0; m < pool.message_count(); ++m) {
        const MessageDescriptor &d = pool.message(static_cast<int>(m));
        const MessageLayout &l = d.layout();
        f.Str(d.name());
        f.U32(static_cast<uint32_t>(d.syntax()));
        f.U32(l.object_size);
        f.U32(l.hasbits_offset);
        f.U32(l.hasbits_words);
        f.U32(l.cached_size_offset);
        f.U32(static_cast<uint32_t>(l.hasbits_mode));
        f.U64(d.field_count());
        for (const FieldDescriptor &fd : d.fields()) {
            f.Str(fd.name);
            f.U32(fd.number);
            f.U32(static_cast<uint32_t>(fd.type));
            f.U32(static_cast<uint32_t>(fd.label));
            f.U32(fd.packed ? 1u : 0u);
            f.U32(static_cast<uint32_t>(fd.message_type));
            f.U64(fd.default_value);
            f.Str(fd.default_string);
            f.U32(fd.offset);
            f.U32(fd.hasbit_index);
        }
    }
    return f.h;
}

void
RegisterGeneratedCodec(const GeneratedPoolCodec *codec)
{
    PA_CHECK(codec != nullptr);
    // First registration wins; suites that share a pool recipe emit
    // identical code, so dropping duplicates is semantics-free.
    for (const GeneratedPoolCodec *c : Registry()) {
        if (c->fingerprint == codec->fingerprint)
            return;
    }
    Registry().push_back(codec);
}

const GeneratedPoolCodec *
FindGeneratedCodec(uint64_t fingerprint)
{
    for (const GeneratedPoolCodec *c : Registry()) {
        if (c->fingerprint == fingerprint)
            return c;
    }
    return nullptr;
}

const GeneratedPoolCodec *
GetGeneratedCodec(const DescriptorPool &pool)
{
    if (pool.generated_codec_resolved())
        return pool.generated_codec_cache();
    const GeneratedPoolCodec *codec =
        FindGeneratedCodec(SchemaFingerprint(pool));
    if (codec != nullptr)
        PA_CHECK_EQ(static_cast<size_t>(codec->message_count),
                    pool.message_count());
    pool.set_generated_codec_cache(codec);
    return codec;
}

size_t
GeneratedCodecCount()
{
    return Registry().size();
}

ParseStatus
GeneratedParseFromBuffer(const uint8_t *data, size_t len, Message *msg,
                         CostSink *sink, const ParseLimits *limits)
{
    PA_CHECK(msg != nullptr && msg->valid());
    const GeneratedPoolCodec *c = GetGeneratedCodec(msg->pool());
    PA_CHECK(c != nullptr);
    return c->parse(msg->descriptor().pool_index(), data, len, msg, sink,
                    limits);
}

size_t
GeneratedByteSize(const Message &msg, CostSink *sink)
{
    PA_CHECK(msg.valid());
    const GeneratedPoolCodec *c = GetGeneratedCodec(msg.pool());
    PA_CHECK(c != nullptr);
    return c->byte_size(msg.descriptor().pool_index(), msg, sink);
}

size_t
GeneratedSerializeToBuffer(const Message &msg, uint8_t *buf, size_t cap,
                           CostSink *sink)
{
    PA_CHECK(msg.valid());
    const GeneratedPoolCodec *c = GetGeneratedCodec(msg.pool());
    PA_CHECK(c != nullptr);
    return c->serialize_to(msg.descriptor().pool_index(), msg, buf, cap,
                           sink);
}

std::vector<uint8_t>
GeneratedSerialize(const Message &msg, CostSink *sink)
{
    PA_CHECK(msg.valid());
    const GeneratedPoolCodec *c = GetGeneratedCodec(msg.pool());
    PA_CHECK(c != nullptr);
    std::vector<uint8_t> out;
    c->serialize(msg.descriptor().pool_index(), msg, &out, sink);
    return out;
}

}  // namespace protoacc::proto
