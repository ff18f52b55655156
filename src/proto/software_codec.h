/**
 * @file
 * The three peer software codec engines behind one table.
 *
 * Each engine implements the same four entry points — parse, byte
 * size, serialize-to and serialize — with identical wire bytes,
 * verdicts and CostSink event streams; they differ only in host
 * wall-clock time. Callers pick an engine once (SoftwareCodecFor, or
 * ResolveSoftwareCodec when the generated tier may not cover the types)
 * and call through the returned entry, instead of switching on the
 * engine per op.
 */
#ifndef PROTOACC_PROTO_SOFTWARE_CODEC_H
#define PROTOACC_PROTO_SOFTWARE_CODEC_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "proto/parser.h"

namespace protoacc::proto {

class DescriptorPool;

/// Selector for the three peer software codec engines.
enum class SoftwareCodecEngine : uint8_t {
    kReference = 0,  ///< seed interpreter (tree walk over descriptors)
    kTable = 1,      ///< flat-program interpreter
    kGenerated = 2,  ///< schema-specialized emitted C++
};

/// One engine's entry points, signature-compatible with the table
/// engine's ParseFromBuffer / ByteSize / SerializeToBuffer / Serialize.
struct SoftwareCodec
{
    SoftwareCodecEngine engine;
    /// Short human name: "reference", "table", "generated".
    const char *name;
    /// Tag a backend on this engine appends to its CPU model's name:
    /// "+ref", "" or "+gen".
    const char *backend_suffix;
    ParseStatus (*parse)(const uint8_t *data, size_t len, Message *msg,
                         CostSink *sink, const ParseLimits *limits);
    size_t (*byte_size)(const Message &msg, CostSink *sink);
    size_t (*serialize_to)(const Message &msg, uint8_t *buf, size_t cap,
                           CostSink *sink);
    std::vector<uint8_t> (*serialize)(const Message &msg, CostSink *sink);
};

/// The entry points of @p engine. The generated engine's PA_CHECK that
/// the message's type has emitted code; use ResolveSoftwareCodec when
/// it may not.
const SoftwareCodec &SoftwareCodecFor(SoftwareCodecEngine engine);

/**
 * Resolve @p engine against @p pool, once, before any op: warms the
 * pool state the engine reads (codec tables, generated-codec lookup)
 * and resolves the generated engine to the table engine unless an
 * emitted codec covers every type of the pool or, when @p msg_index is
 * given, that one type — the result's `engine` differs from @p engine
 * exactly in that downgrade. Like the caches it warms, not thread-safe:
 * resolve before sharing a pool across threads.
 */
const SoftwareCodec &ResolveSoftwareCodec(SoftwareCodecEngine engine,
                                          const DescriptorPool &pool,
                                          int msg_index = -1);

}  // namespace protoacc::proto

#endif  // PROTOACC_PROTO_SOFTWARE_CODEC_H
