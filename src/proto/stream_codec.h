/**
 * @file
 * Incremental (chunked) protobuf decode/encode — the bounded-memory
 * streaming core under the wire-v4 stream frames (rpc/stream.h).
 *
 * Everything above this layer used to be request-sized: one message,
 * one contiguous buffer. A GB-scale message was therefore either a
 * memory-exhaustion vector or an unconditional kResourceExhausted.
 * PAPERS.md's HGum shows the accelerator-messaging shape for data that
 * does not fit on-chip: process the byte stream in fixed-budget chunks
 * and never materialize the whole message. This module is the software
 * half of that shape, built over the *existing* codec engines:
 *
 *  - StreamDecoder consumes wire bytes of one logical message in
 *    arbitrary-sized Feed() chunks. Complete top-level fields are
 *    delivered to a StreamSink as they finish — scalar and string
 *    fields as decoded values, message-typed fields parsed with the
 *    configured software engine (proto/software_codec.h — the same
 *    entry points the whole-buffer path uses, so verdicts and modeled
 *    costs match) into a per-record scratch arena that is Reset()
 *    after each delivery. Only the incomplete tail of the current
 *    field is retained across Feed() calls, so peak memory is bounded
 *    by max_record_bytes + the largest chunk ever fed, never by the
 *    logical message size.
 *
 *  - StreamEncoder is the mirror: fields are appended one at a time
 *    (message-typed records serialized with the same engine) into a
 *    bounded staging buffer that Produce() drains in caller-sized
 *    chunks. Appending fields in non-decreasing field-number order
 *    (and repeated elements in sequence) yields wire bytes identical
 *    to a whole-buffer Serialize of the equivalent message — the
 *    byte-identity contract bench/stream_soak proves at GB scale.
 *
 * Both directions are resumable: decode state (partial-field tail,
 * running totals) and encode state (staging residue) persist across
 * calls, which is what lets the RPC stream layer suspend a transfer on
 * a closed credit window or a mid-stream fault and resume it later
 * without re-processing committed bytes.
 */
#ifndef PROTOACC_PROTO_STREAM_CODEC_H
#define PROTOACC_PROTO_STREAM_CODEC_H

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "proto/arena.h"
#include "proto/message.h"
#include "proto/parser.h"
#include "proto/software_codec.h"

namespace protoacc::proto {

/// Memory bounds of one streaming (de)coder instance.
struct StreamCodecLimits
{
    /// Largest single top-level field (record) the decoder will buffer
    /// while waiting for its bytes to complete, and the largest record
    /// the encoder will stage. A field whose declared length exceeds
    /// this fails with kResourceExhausted — the per-record analogue of
    /// ParseLimits::max_payload_bytes.
    size_t max_record_bytes = 1u << 20;
};

/**
 * Receiver of decoded top-level fields. One callback per *complete*
 * field occurrence, in wire order. Returning anything but kOk aborts
 * the decode with that status (surfaced by Feed/Finish).
 */
class StreamSink
{
  public:
    virtual ~StreamSink() = default;

    /// A varint/fixed-width scalar top-level field (value in the
    /// field's in-memory bit pattern, exactly as Message stores it).
    virtual ParseStatus
    OnScalar(const FieldDescriptor &field, uint64_t bits)
    {
        (void)field;
        (void)bits;
        return ParseStatus::kOk;
    }

    /// A string/bytes top-level field. @p data points into the
    /// decoder's window and is valid only for the duration of the call.
    virtual ParseStatus
    OnString(const FieldDescriptor &field, std::string_view data)
    {
        (void)field;
        (void)data;
        return ParseStatus::kOk;
    }

    /**
     * A message-typed top-level field, parsed with the decoder's
     * engine into @p record. The record lives in the decoder's scratch
     * arena and is recycled after the callback returns — consume it
     * (fold, transform, re-encode), do not retain it.
     */
    virtual ParseStatus
    OnRecord(const FieldDescriptor &field, const Message &record)
    {
        (void)field;
        (void)record;
        return ParseStatus::kOk;
    }
};

/**
 * Chunked decoder of one logical message. Not thread-safe; one decoder
 * per in-flight stream.
 */
class StreamDecoder
{
  public:
    /**
     * @param pool      compiled descriptor pool;
     * @param type      pool index of the logical message type;
     * @param codec     software engine parsing message-typed fields,
     *                  resolved for @p pool (see ResolveSoftwareCodec);
     * @param limits    per-record resource bounds (see ParseLimits);
     *                  max_depth/max_alloc_bytes apply to each record
     *                  parse; max_payload_bytes bounds the *total*
     *                  stream length when nonzero.
     * @param sink      field receiver (not owned; must outlive).
     * @param cost_sink optional cycle accounting (not owned).
     */
    StreamDecoder(const DescriptorPool &pool, int type,
                  const SoftwareCodec &codec,
                  const StreamCodecLimits &stream_limits,
                  const ParseLimits &limits, StreamSink *sink,
                  CostSink *cost_sink = nullptr);

    /**
     * Consume @p len more wire bytes. Complete top-level fields are
     * delivered to the sink; the incomplete tail is retained. Returns
     * kOk while the stream remains well-formed; any other status is
     * terminal (further Feed calls return the same status).
     */
    ParseStatus Feed(const uint8_t *data, size_t len);

    /**
     * Declare end-of-stream. Fails with kTruncated when bytes of an
     * unfinished field are still pending. Terminal either way.
     */
    ParseStatus Finish();

    /// Total wire bytes consumed so far.
    uint64_t bytes_consumed() const { return bytes_consumed_; }
    /// Complete top-level fields delivered so far.
    uint64_t fields_delivered() const { return fields_delivered_; }
    /// High-water mark of the retained partial-field tail plus scratch
    /// arena — the decoder's contribution to the stream memory budget.
    size_t peak_buffered_bytes() const { return peak_buffered_; }
    /// Currently retained tail bytes.
    size_t buffered_bytes() const { return pending_.size(); }
    /// Terminal status (kOk while the stream is still healthy).
    ParseStatus status() const { return status_; }

  private:
    /// Try to consume complete fields from [p, end); returns the number
    /// of bytes consumed (a prefix). Sets status_ on malformed input.
    size_t ConsumeFields(const uint8_t *p, const uint8_t *end);

    /// Decode one complete field at [p, end). Returns bytes consumed,
    /// 0 when the field is still incomplete (wait for more data), or
    /// SIZE_MAX after setting status_ on malformed input / sink abort.
    size_t ConsumeOneField(const uint8_t *p, const uint8_t *end);

    const DescriptorPool &pool_;
    const MessageDescriptor &type_;
    const SoftwareCodec &codec_;
    StreamCodecLimits stream_limits_;
    ParseLimits record_limits_;
    uint64_t max_total_bytes_ = 0;  ///< 0 = unbounded
    StreamSink *sink_;
    CostSink *cost_sink_;
    /// Scratch grows in small blocks (Reset keeps only the first) so
    /// peak_buffered_bytes() tracks the record actually in flight, not
    /// a fixed up-front reservation.
    static constexpr size_t kScratchBlockBytes = 1024;
    Arena scratch_{kScratchBlockBytes};
    std::vector<uint8_t> pending_;  ///< incomplete tail across Feeds
    uint64_t bytes_consumed_ = 0;
    uint64_t fields_delivered_ = 0;
    size_t peak_buffered_ = 0;
    ParseStatus status_ = ParseStatus::kOk;
    bool finished_ = false;
};

/**
 * Chunked encoder of one logical message: append fields one at a time,
 * drain the staging buffer in caller-sized chunks. Not thread-safe.
 */
class StreamEncoder
{
  public:
    StreamEncoder(const SoftwareCodec &codec,
                  const StreamCodecLimits &stream_limits,
                  CostSink *cost_sink = nullptr);

    /// Append one varint/fixed scalar field occurrence.
    ParseStatus AppendScalar(const FieldDescriptor &field, uint64_t bits);

    /// Append one string/bytes field occurrence.
    ParseStatus AppendString(const FieldDescriptor &field,
                             std::string_view data);

    /**
     * Append one message-typed field occurrence: @p record is
     * serialized with the encoder's codec (identical bytes and cost
     * events to the whole-buffer serializer's nested-message path).
     * Fails with kResourceExhausted when the encoded record exceeds
     * max_record_bytes.
     */
    ParseStatus AppendRecord(const FieldDescriptor &field,
                             const Message &record);

    /// Drain up to @p cap staged bytes into @p out; returns the count.
    size_t Produce(uint8_t *out, size_t cap);

    /// Staged bytes not yet produced.
    size_t buffered_bytes() const { return staged_.size() - drained_; }
    /// High-water mark of the staging buffer (memory-budget input).
    size_t peak_buffered_bytes() const { return peak_buffered_; }
    /// Total bytes appended (staged) so far — the encoded stream size.
    uint64_t bytes_encoded() const { return bytes_encoded_; }
    uint64_t fields_appended() const { return fields_appended_; }

  private:
    void StageTag(const FieldDescriptor &field, WireType wt);
    void NoteStaged();

    const SoftwareCodec &codec_;
    StreamCodecLimits stream_limits_;
    CostSink *cost_sink_;
    std::vector<uint8_t> staged_;
    size_t drained_ = 0;  ///< staged_ prefix already produced
    size_t peak_buffered_ = 0;
    uint64_t bytes_encoded_ = 0;
    uint64_t fields_appended_ = 0;
};

}  // namespace protoacc::proto

#endif  // PROTOACC_PROTO_STREAM_CODEC_H
