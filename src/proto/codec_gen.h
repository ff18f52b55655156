/**
 * @file
 * Schema-specialized C++ code generator (the "protoc trick").
 *
 * Renders a compilable C++ translation unit from a compiled
 * DescriptorPool: for each root type the caller names and each type
 * those reach through message-typed fields, a straight-line parse
 * function (constant-tag dispatch with expected-next-tag chaining), a
 * sizing function and a write function, all specialized on the pool's
 * compiled layout (byte offsets, hasbit words/masks, pre-encoded tag
 * bytes, element widths). Types outside that closure get no code. The
 * emitted TU registers a GeneratedPoolCodec (codec_generated.h) keyed
 * by the pool's structural fingerprint and recording which types it
 * covers, so a runtime pool built from the same recipe resolves to it
 * automatically.
 *
 * The generator uses the codec tables (codec_table.h) as its IR — the
 * same compiled form the table interpreter executes — which is how the
 * three software engines stay wire-, verdict- and cost-event-identical
 * by construction rather than by convention.
 *
 * Driven at build time by tools/codec_gen_main.cc.
 */
#ifndef PROTOACC_PROTO_CODEC_GEN_H
#define PROTOACC_PROTO_CODEC_GEN_H

#include <string>
#include <string_view>
#include <vector>

#include "proto/descriptor.h"

namespace protoacc::proto {

/// File header for an emitted codec TU: banner comment + includes.
/// Emit once per output file, then any number of GenerateCodecSource
/// results.
std::string CodecFilePrologue(std::string_view banner);

/**
 * Emit the generated codec for @p pool (which must be Compile()d) as a
 * self-contained namespace: parse/size/write functions for the types in
 * @p roots and every type they reach through message-typed fields, the
 * four engine entry points, the coverage record, and a static
 * registrar. @p pool_name is a human-readable label stored in the
 * registered codec for diagnostics (e.g. "hpb:bench2").
 */
std::string GenerateCodecSource(const DescriptorPool &pool,
                                std::string_view pool_name,
                                const std::vector<int> &roots);

}  // namespace protoacc::proto

#endif  // PROTOACC_PROTO_CODEC_GEN_H
