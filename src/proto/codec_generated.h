/**
 * @file
 * Registry and entry points for the schema-specialized generated codec
 * engine — the third software engine, alongside the reference
 * tree-walker (codec_reference.h) and the table interpreter
 * (serializer.h/parser.h).
 *
 * Generated codecs are ordinary C++ translation units emitted by
 * codec_gen.{h,cc} at build time (see tools/codec_gen_main.cc). Each
 * emitted TU registers one GeneratedPoolCodec per DescriptorPool it was
 * generated from, keyed by a structural fingerprint of the compiled
 * pool. At runtime, a pool built by the *same deterministic recipe*
 * (same schema, same Compile mode) hashes to the same fingerprint and
 * picks up its specialized codec; pools with no matching codec simply
 * resolve to nullptr and callers fall back to the table engine.
 *
 * A codec covers only its generation roots and the types they reach
 * (for a HyperProtoBench pool, its workload's type). The entry points
 * check the message's type, not just its pool; a caller that may meet
 * an uncovered type asks first (covers(), or ResolveSoftwareCodec).
 *
 * The generated engine is wire- and verdict-identical to the other two
 * and emits the exact same CostSink event stream as the table engine,
 * so its modeled BOOM/Xeon cycles are unchanged — the win is host
 * wall-clock time (straight-line dispatch, constant tags, no checked
 * accessor layer).
 */
#ifndef PROTOACC_PROTO_CODEC_GENERATED_H
#define PROTOACC_PROTO_CODEC_GENERATED_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "proto/parser.h"

namespace protoacc::proto {

class Message;
class CostSink;
class DescriptorPool;

/**
 * One pool's worth of generated entry points. Instances live in
 * emitted translation units with static storage duration; the registry
 * stores pointers, never copies.
 *
 * All four entry points have table-engine-identical semantics
 * (including PA_CHECK contracts, limit handling, and the CostSink
 * event stream); `serialize` is a distinct function rather than
 * byte_size + serialize_to composed, because ByteSize runs the sizing
 * pass and Serialize must not run it twice.
 */
struct GeneratedPoolCodec
{
    /// Structural fingerprint of the compiled pool (SchemaFingerprint).
    uint64_t fingerprint;
    /// Generation-time label, e.g. "hpb:bench2" (diagnostics only).
    const char *name;
    /// Message count of the source pool (cheap sanity cross-check).
    int message_count;
    /// One character per pool type: '1' where code was emitted (the
    /// closure of the generation roots over message-typed fields), '0'
    /// where none was.
    const char *coverage;

    ParseStatus (*parse)(int msg_index, const uint8_t *data, size_t len,
                         Message *msg, CostSink *sink,
                         const ParseLimits *limits);
    size_t (*byte_size)(int msg_index, const Message &msg, CostSink *sink);
    size_t (*serialize_to)(int msg_index, const Message &msg, uint8_t *buf,
                           size_t cap, CostSink *sink);
    size_t (*serialize)(int msg_index, const Message &msg,
                        std::vector<uint8_t> *out, CostSink *sink);

    /// True when type @p msg_index has emitted code; its sub-message
    /// types then have code too, so any message of the type runs.
    bool
    covers(int msg_index) const
    {
        return msg_index >= 0 && msg_index < message_count &&
               coverage[msg_index] == '1';
    }
};

/**
 * Structural fingerprint of a compiled pool: an FNV-1a hash over every
 * descriptor property the generated code specializes on (names,
 * numbers, types, labels, packedness, defaults, byte offsets, hasbit
 * indices, layout geometry, hasbits mode). Two pools with equal
 * fingerprints produce byte-identical generated code.
 *
 * The pool must be compiled.
 */
uint64_t SchemaFingerprint(const DescriptorPool &pool);

/// Register @p codec (first registration wins for a fingerprint;
/// duplicate fingerprints across generated TUs are expected when two
/// suites share a pool recipe). Called from static initializers.
void RegisterGeneratedCodec(const GeneratedPoolCodec *codec);

/// Static-initializer shim used by emitted code.
struct GeneratedCodecRegistrar
{
    explicit GeneratedCodecRegistrar(const GeneratedPoolCodec *codec)
    {
        RegisterGeneratedCodec(codec);
    }
};

/// Look up a codec by fingerprint; nullptr when none is linked in.
const GeneratedPoolCodec *FindGeneratedCodec(uint64_t fingerprint);

/**
 * Resolve (and cache on the pool) the generated codec for @p pool.
 * Returns nullptr when no linked-in codec matches the pool's
 * fingerprint. Like GetCodecTables, the first resolution is not
 * thread-safe; resolve once before sharing a pool across threads.
 */
const GeneratedPoolCodec *GetGeneratedCodec(const DescriptorPool &pool);

/// Number of registered generated codecs (diagnostics).
size_t GeneratedCodecCount();

// ---------------------------------------------------------------------
// Engine entry points, signature-compatible with the table engine's
// ParseFromBuffer / ByteSize / SerializeToBuffer / Serialize. All four
// PA_CHECK that a generated codec exists for the message's pool and
// covers the message's type — ask GeneratedPoolCodec::covers (or
// ResolveSoftwareCodec) first when fallback is possible.
// ---------------------------------------------------------------------

ParseStatus GeneratedParseFromBuffer(const uint8_t *data, size_t len,
                                     Message *msg, CostSink *sink = nullptr,
                                     const ParseLimits *limits = nullptr);

size_t GeneratedByteSize(const Message &msg, CostSink *sink = nullptr);

size_t GeneratedSerializeToBuffer(const Message &msg, uint8_t *buf,
                                  size_t cap, CostSink *sink = nullptr);

std::vector<uint8_t> GeneratedSerialize(const Message &msg,
                                        CostSink *sink = nullptr);

}  // namespace protoacc::proto

#endif  // PROTOACC_PROTO_CODEC_GENERATED_H
