#include "proto/stream_codec.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "proto/serializer.h"
#include "proto/utf8.h"
#include "proto/wire_format.h"

namespace protoacc::proto {

namespace {

/// Wire varint -> in-memory bit pattern for @p type (the FieldType form
/// of parser.cc's VarintMemoryValue: uint32 truncation, zig-zag, bool
/// normalization — identical semantics to the whole-buffer parsers).
uint64_t
VarintBits(FieldType type, uint64_t wire)
{
    switch (type) {
      case FieldType::kInt32:
      case FieldType::kUint32:
      case FieldType::kEnum:
        return static_cast<uint32_t>(wire);
      case FieldType::kSint32:
        return static_cast<uint32_t>(
            ZigZagDecode32(static_cast<uint32_t>(wire)));
      case FieldType::kSint64:
        return static_cast<uint64_t>(ZigZagDecode64(wire));
      case FieldType::kBool:
        return wire != 0 ? 1 : 0;
      default:
        return wire;
    }
}

}  // namespace

StreamDecoder::StreamDecoder(const DescriptorPool &pool, int type,
                             const SoftwareCodec &codec,
                             const StreamCodecLimits &stream_limits,
                             const ParseLimits &limits, StreamSink *sink,
                             CostSink *cost_sink)
    : pool_(pool),
      type_(pool.message(type)),
      codec_(codec),
      stream_limits_(stream_limits),
      record_limits_(limits),
      max_total_bytes_(limits.max_payload_bytes),
      sink_(sink),
      cost_sink_(cost_sink)
{
    PA_CHECK(sink != nullptr);
    // Each record parse starts a fresh nested parse: the record sits at
    // depth 1 of the logical message, so its own budget is one level
    // shallower than the whole-buffer parse would grant, and the total
    // payload bound is enforced on the stream, not per record.
    record_limits_.max_payload_bytes = 0;
    if (record_limits_.max_depth == 0)
        record_limits_.max_depth = kMaxParseDepth;
    if (record_limits_.max_depth > 1)
        record_limits_.max_depth -= 1;
}

ParseStatus
StreamDecoder::Feed(const uint8_t *data, size_t len)
{
    if (status_ != ParseStatus::kOk)
        return status_;
    PA_CHECK(!finished_);
    if (max_total_bytes_ != 0 &&
        bytes_consumed_ + pending_.size() + len > max_total_bytes_) {
        status_ = ParseStatus::kResourceExhausted;
        return status_;
    }

    if (pending_.empty()) {
        // Fast path: consume complete fields straight out of the
        // caller's chunk; only the incomplete tail is copied in.
        const size_t used = ConsumeFields(data, data + len);
        if (status_ != ParseStatus::kOk)
            return status_;
        pending_.assign(data + used, data + len);
    } else {
        pending_.insert(pending_.end(), data, data + len);
        const size_t used =
            ConsumeFields(pending_.data(), pending_.data() + pending_.size());
        if (status_ != ParseStatus::kOk)
            return status_;
        pending_.erase(pending_.begin(),
                       pending_.begin() + static_cast<ptrdiff_t>(used));
    }
    if (pending_.size() + scratch_.bytes_reserved() > peak_buffered_)
        peak_buffered_ = pending_.size() + scratch_.bytes_reserved();
    return status_;
}

ParseStatus
StreamDecoder::Finish()
{
    if (status_ != ParseStatus::kOk)
        return status_;
    finished_ = true;
    if (!pending_.empty()) {
        status_ = ParseStatus::kTruncated;
        return status_;
    }
    return ParseStatus::kOk;
}

size_t
StreamDecoder::ConsumeFields(const uint8_t *p, const uint8_t *end)
{
    size_t used = 0;
    while (p + used < end) {
        const size_t n = ConsumeOneField(p + used, end);
        if (n == SIZE_MAX)
            return used;  // status_ set
        if (n == 0)
            break;  // incomplete: wait for more bytes
        used += n;
        bytes_consumed_ += n;
        ++fields_delivered_;
    }
    return used;
}

size_t
StreamDecoder::ConsumeOneField(const uint8_t *p, const uint8_t *end)
{
    // Tag varint. A partial varint at the chunk boundary is at most 10
    // bytes of retained state; DecodeVarint returns 0 both for
    // truncated and malformed input, so disambiguate by length.
    uint64_t tag = 0;
    const int tag_len = DecodeVarint(p, end, &tag);
    if (tag_len == 0) {
        if (end - p >= kMaxVarintBytes) {
            status_ = ParseStatus::kMalformedVarint;
            return SIZE_MAX;
        }
        return 0;
    }
    if (cost_sink_ != nullptr)
        cost_sink_->OnTagDecode(tag_len);
    const uint32_t field_number = TagFieldNumber(tag);
    if (field_number == 0 || field_number > kMaxFieldNumber) {
        status_ = ParseStatus::kInvalidFieldNumber;
        return SIZE_MAX;
    }
    const WireType wt = TagWireType(tag);
    const FieldDescriptor *field = type_.FindFieldByNumber(field_number);
    const uint8_t *q = p + tag_len;

    switch (wt) {
      case WireType::kVarint: {
        uint64_t v = 0;
        const int n = DecodeVarint(q, end, &v);
        if (n == 0) {
            if (end - q >= kMaxVarintBytes) {
                status_ = ParseStatus::kMalformedVarint;
                return SIZE_MAX;
            }
            return 0;
        }
        if (cost_sink_ != nullptr)
            cost_sink_->OnVarintDecode(n);
        if (field != nullptr && IsVarintType(field->type)) {
            if (cost_sink_ != nullptr)
                cost_sink_->OnFieldDispatch();
            const ParseStatus s =
                sink_->OnScalar(*field, VarintBits(field->type, v));
            if (s != ParseStatus::kOk) {
                status_ = s;
                return SIZE_MAX;
            }
        }
        return static_cast<size_t>(tag_len + n);
      }
      case WireType::kFixed64:
      case WireType::kFixed32: {
        const size_t width = wt == WireType::kFixed64 ? 8 : 4;
        if (static_cast<size_t>(end - q) < width)
            return 0;
        if (cost_sink_ != nullptr)
            cost_sink_->OnFixedCopy(static_cast<int>(width));
        const bool matches =
            field != nullptr && IsFixedType(field->type) &&
            InMemorySize(field->type) == width;
        if (matches) {
            if (cost_sink_ != nullptr)
                cost_sink_->OnFieldDispatch();
            const uint64_t bits = width == 8
                                      ? LoadFixed64(q)
                                      : LoadFixed32(q);
            const ParseStatus s = sink_->OnScalar(*field, bits);
            if (s != ParseStatus::kOk) {
                status_ = s;
                return SIZE_MAX;
            }
        }
        return static_cast<size_t>(tag_len) + width;
      }
      case WireType::kLengthDelimited: {
        uint64_t len = 0;
        const int n = DecodeVarint(q, end, &len);
        if (n == 0) {
            if (end - q >= kMaxVarintBytes) {
                status_ = ParseStatus::kMalformedVarint;
                return SIZE_MAX;
            }
            return 0;
        }
        if (cost_sink_ != nullptr)
            cost_sink_->OnVarintDecode(n);
        // The record bound is what keeps the retained tail finite: a
        // declared length beyond it can never complete inside the
        // budget, so it is rejected now, not after buffering it.
        if (len > stream_limits_.max_record_bytes) {
            status_ = ParseStatus::kResourceExhausted;
            return SIZE_MAX;
        }
        if (static_cast<uint64_t>(end - q - n) < len)
            return 0;
        const uint8_t *payload = q + n;
        if (field != nullptr) {
            if (cost_sink_ != nullptr)
                cost_sink_->OnFieldDispatch();
            if (field->type == FieldType::kMessage) {
                scratch_.Reset();
                Message record = Message::Create(&scratch_, pool_,
                                                 field->message_type);
                const ParseStatus s = codec_.parse(
                    payload, len, &record, cost_sink_, &record_limits_);
                if (s != ParseStatus::kOk) {
                    status_ = s;
                    return SIZE_MAX;
                }
                if (scratch_.bytes_reserved() + pending_.size() >
                    peak_buffered_)
                    peak_buffered_ =
                        scratch_.bytes_reserved() + pending_.size();
                const ParseStatus cb = sink_->OnRecord(*field, record);
                if (cb != ParseStatus::kOk) {
                    status_ = cb;
                    return SIZE_MAX;
                }
            } else if (IsBytesLike(field->type)) {
                if (field->type == FieldType::kString &&
                    type_.syntax() == Syntax::kProto3 &&
                    !IsValidUtf8(payload, len)) {
                    status_ = ParseStatus::kInvalidUtf8;
                    return SIZE_MAX;
                }
                if (cost_sink_ != nullptr)
                    cost_sink_->OnMemcpy(len);
                const ParseStatus s = sink_->OnString(
                    *field,
                    std::string_view(
                        reinterpret_cast<const char *>(payload), len));
                if (s != ParseStatus::kOk) {
                    status_ = s;
                    return SIZE_MAX;
                }
            }
            // A length-delimited value for a scalar-typed field is a
            // packed run or a schema drift; skipped like the
            // whole-buffer parsers skip unknowns.
        }
        return static_cast<size_t>(tag_len + n) + len;
      }
      case WireType::kStartGroup:
      case WireType::kEndGroup:
      default:
        status_ = ParseStatus::kInvalidWireType;
        return SIZE_MAX;
    }
}

StreamEncoder::StreamEncoder(const SoftwareCodec &codec,
                             const StreamCodecLimits &stream_limits,
                             CostSink *cost_sink)
    : codec_(codec),
      stream_limits_(stream_limits),
      cost_sink_(cost_sink)
{
}

void
StreamEncoder::StageTag(const FieldDescriptor &field, WireType wt)
{
    uint8_t buf[kMaxVarintBytes];
    const int n = EncodeVarint(MakeTag(field.number, wt), buf);
    staged_.insert(staged_.end(), buf, buf + n);
    bytes_encoded_ += static_cast<uint64_t>(n);
    if (cost_sink_ != nullptr)
        cost_sink_->OnTagEncode(n);
}

void
StreamEncoder::NoteStaged()
{
    ++fields_appended_;
    if (staged_.size() - drained_ > peak_buffered_)
        peak_buffered_ = staged_.size() - drained_;
}

ParseStatus
StreamEncoder::AppendScalar(const FieldDescriptor &field, uint64_t bits)
{
    if (IsVarintType(field.type)) {
        StageTag(field, WireType::kVarint);
        uint8_t buf[kMaxVarintBytes];
        const int n = EncodeVarintValue(field.type, bits, buf);
        staged_.insert(staged_.end(), buf, buf + n);
        bytes_encoded_ += static_cast<uint64_t>(n);
        if (cost_sink_ != nullptr)
            cost_sink_->OnVarintEncode(n);
        NoteStaged();
        return ParseStatus::kOk;
    }
    if (IsFixedType(field.type)) {
        const uint32_t width = InMemorySize(field.type);
        StageTag(field, width == 8 ? WireType::kFixed64
                                   : WireType::kFixed32);
        const size_t at = staged_.size();
        staged_.resize(at + width);
        std::memcpy(staged_.data() + at, &bits, width);
        bytes_encoded_ += width;
        if (cost_sink_ != nullptr)
            cost_sink_->OnFixedCopy(static_cast<int>(width));
        NoteStaged();
        return ParseStatus::kOk;
    }
    return ParseStatus::kInvalidWireType;
}

ParseStatus
StreamEncoder::AppendString(const FieldDescriptor &field,
                            std::string_view data)
{
    if (!IsBytesLike(field.type))
        return ParseStatus::kInvalidWireType;
    if (data.size() > stream_limits_.max_record_bytes)
        return ParseStatus::kResourceExhausted;
    StageTag(field, WireType::kLengthDelimited);
    uint8_t buf[kMaxVarintBytes];
    const int n = EncodeVarint(data.size(), buf);
    staged_.insert(staged_.end(), buf, buf + n);
    staged_.insert(staged_.end(), data.begin(), data.end());
    bytes_encoded_ += static_cast<uint64_t>(n) + data.size();
    if (cost_sink_ != nullptr) {
        cost_sink_->OnVarintEncode(n);
        cost_sink_->OnMemcpy(data.size());
    }
    NoteStaged();
    return ParseStatus::kOk;
}

ParseStatus
StreamEncoder::AppendRecord(const FieldDescriptor &field,
                            const Message &record)
{
    if (field.type != FieldType::kMessage)
        return ParseStatus::kInvalidWireType;
    const size_t size = codec_.byte_size(record, cost_sink_);
    if (size > stream_limits_.max_record_bytes)
        return ParseStatus::kResourceExhausted;
    StageTag(field, WireType::kLengthDelimited);
    uint8_t buf[kMaxVarintBytes];
    const int n = EncodeVarint(size, buf);
    staged_.insert(staged_.end(), buf, buf + n);
    bytes_encoded_ += static_cast<uint64_t>(n) + size;
    if (cost_sink_ != nullptr)
        cost_sink_->OnVarintEncode(n);
    const size_t at = staged_.size();
    staged_.resize(at + size);
    const size_t written = codec_.serialize_to(
        record, staged_.data() + at, size, cost_sink_);
    PA_CHECK_EQ(written, size);
    NoteStaged();
    return ParseStatus::kOk;
}

size_t
StreamEncoder::Produce(uint8_t *out, size_t cap)
{
    const size_t n = std::min(cap, staged_.size() - drained_);
    std::memcpy(out, staged_.data() + drained_, n);
    drained_ += n;
    // Compact once the staging buffer is fully drained — the steady
    // state of a sender alternating Append and Produce — so the buffer
    // never grows beyond one in-flight record plus residue.
    if (drained_ == staged_.size()) {
        staged_.clear();
        drained_ = 0;
    } else if (drained_ > (64u << 10)) {
        staged_.erase(staged_.begin(),
                      staged_.begin() + static_cast<ptrdiff_t>(drained_));
        drained_ = 0;
    }
    return n;
}

}  // namespace protoacc::proto
