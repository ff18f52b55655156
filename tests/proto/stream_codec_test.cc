/**
 * Incremental (chunked) codec unit tests: the StreamDecoder must
 * deliver exactly the fields a whole-buffer parse of the same bytes
 * would materialize — under any chunking of the input — and the
 * StreamEncoder must emit bytes identical to a whole-buffer serialize
 * of the equivalent message. Malformed and oversized streams must fail
 * with the same status classes the batch parser reports, and peak
 * buffering must stay bounded by the record limit, never the stream.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "proto/codec_reference.h"
#include "proto/schema_parser.h"
#include "proto/serializer.h"
#include "proto/stream_codec.h"

namespace protoacc::proto {
namespace {

/// Records every delivered field for inspection.
class CollectSink : public StreamSink
{
  public:
    struct Event
    {
        uint32_t field = 0;
        uint64_t bits = 0;
        std::string str;
        uint64_t record_id = 0;  ///< Rec.id of a delivered record
        enum { kScalar, kString, kRecord } kind = kScalar;
    };

    ParseStatus
    OnScalar(const FieldDescriptor &field, uint64_t bits) override
    {
        events.push_back({field.number, bits, {}, 0, Event::kScalar});
        return ParseStatus::kOk;
    }
    ParseStatus
    OnString(const FieldDescriptor &field,
             std::string_view data) override
    {
        events.push_back(
            {field.number, 0, std::string(data), 0, Event::kString});
        return ParseStatus::kOk;
    }
    ParseStatus
    OnRecord(const FieldDescriptor &field,
             const Message &record) override
    {
        const auto &d = record.descriptor();
        const FieldDescriptor *id = d.FindFieldByName("id");
        events.push_back({field.number, 0, {},
                          id != nullptr ? record.GetUint64(*id) : 0,
                          Event::kRecord});
        return ParseStatus::kOk;
    }

    std::vector<Event> events;
};

class StreamingCodecTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto parsed = ParseSchema(R"(
            message Rec {
                optional uint64 id = 1;
                optional string body = 2;
            }
            message Feed {
                optional uint64 seq = 1;
                optional string note = 2;
                repeated Rec recs = 3;
                optional fixed64 stamp = 4;
            }
        )",
                                        &pool_);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        pool_.Compile(HasbitsMode::kSparse);
        feed_ = pool_.FindMessage("Feed");
        rec_ = pool_.FindMessage("Rec");
    }

    /// Whole-buffer wire image of a Feed with @p nrecs records.
    std::vector<uint8_t>
    MakeWire(size_t nrecs, size_t body_len = 16)
    {
        Arena arena;
        Message msg = Message::Create(&arena, pool_, feed_);
        const auto &d = pool_.message(feed_);
        msg.SetUint64(*d.FindFieldByName("seq"), 7);
        msg.SetString(*d.FindFieldByName("note"), "hello stream");
        const FieldDescriptor &recs = *d.FindFieldByName("recs");
        const auto &rd = pool_.message(rec_);
        for (size_t i = 0; i < nrecs; ++i) {
            Message r = msg.AddRepeatedMessage(recs);
            r.SetUint64(*rd.FindFieldByName("id"), i + 1);
            r.SetString(*rd.FindFieldByName("body"),
                        std::string(body_len, 'a' + (i % 26)));
        }
        msg.SetScalarBits(*d.FindFieldByName("stamp"),
                          0x1122334455667788ull);
        msg.SetHas(*d.FindFieldByName("stamp"));
        return Serialize(msg, nullptr);
    }

    /// Feed @p wire to a fresh decoder in @p chunk-sized pieces. The
    /// decoder stays alive in decoder_ for post-run assertions.
    ParseStatus
    Decode(const std::vector<uint8_t> &wire, size_t chunk,
           CollectSink *sink, SoftwareCodecEngine engine)
    {
        StreamCodecLimits limits;
        decoder_ = std::make_unique<StreamDecoder>(
            pool_, feed_, SoftwareCodecFor(engine), limits, ParseLimits{},
            sink);
        for (size_t off = 0; off < wire.size(); off += chunk) {
            const size_t len = std::min(chunk, wire.size() - off);
            const ParseStatus st = decoder_->Feed(wire.data() + off,
                                                  len);
            if (st != ParseStatus::kOk)
                return st;
        }
        return decoder_->Finish();
    }

    const SoftwareCodec &table_ =
        SoftwareCodecFor(SoftwareCodecEngine::kTable);
    std::unique_ptr<StreamDecoder> decoder_;
    DescriptorPool pool_;
    int feed_ = -1;
    int rec_ = -1;
};

TEST_F(StreamingCodecTest, DecoderDeliversAllFieldsAnyChunking)
{
    const std::vector<uint8_t> wire = MakeWire(5);
    for (const size_t chunk : {size_t{1}, size_t{3}, size_t{17},
                               wire.size()}) {
        for (const auto engine : {SoftwareCodecEngine::kReference,
                                  SoftwareCodecEngine::kTable}) {
            CollectSink sink;
            ASSERT_EQ(Decode(wire, chunk, &sink, engine),
                      ParseStatus::kOk)
                << "chunk=" << chunk;
            // seq + note + 5 recs + stamp.
            ASSERT_EQ(sink.events.size(), 8u) << "chunk=" << chunk;
            EXPECT_EQ(sink.events[0].bits, 7u);
            EXPECT_EQ(sink.events[1].str, "hello stream");
            for (size_t i = 0; i < 5; ++i) {
                EXPECT_EQ(sink.events[2 + i].kind,
                          CollectSink::Event::kRecord);
                EXPECT_EQ(sink.events[2 + i].record_id, i + 1);
            }
            EXPECT_EQ(sink.events[7].bits, 0x1122334455667788ull);
            EXPECT_EQ(decoder_->bytes_consumed(), wire.size());
            EXPECT_EQ(decoder_->fields_delivered(), 8u);
        }
    }
}

TEST_F(StreamingCodecTest, EncoderMatchesWholeBufferSerialize)
{
    const std::vector<uint8_t> want = MakeWire(3);

    // Rebuild the same logical content through the incremental
    // encoder, appending fields in schema order.
    Arena arena;
    const auto &d = pool_.message(feed_);
    const auto &rd = pool_.message(rec_);
    StreamCodecLimits limits;
    StreamEncoder enc(SoftwareCodecFor(SoftwareCodecEngine::kReference),
                      limits);
    ASSERT_EQ(enc.AppendScalar(*d.FindFieldByName("seq"), 7),
              ParseStatus::kOk);
    ASSERT_EQ(enc.AppendString(*d.FindFieldByName("note"),
                               "hello stream"),
              ParseStatus::kOk);
    for (size_t i = 0; i < 3; ++i) {
        Message r = Message::Create(&arena, pool_, rec_);
        r.SetUint64(*rd.FindFieldByName("id"), i + 1);
        r.SetString(*rd.FindFieldByName("body"),
                    std::string(16, 'a' + (i % 26)));
        ASSERT_EQ(enc.AppendRecord(*d.FindFieldByName("recs"), r),
                  ParseStatus::kOk);
    }
    ASSERT_EQ(enc.AppendScalar(*d.FindFieldByName("stamp"),
                               0x1122334455667788ull),
              ParseStatus::kOk);

    // Drain in deliberately awkward chunk sizes.
    std::vector<uint8_t> got;
    uint8_t buf[13];
    size_t n;
    while ((n = enc.Produce(buf, sizeof buf)) > 0)
        got.insert(got.end(), buf, buf + n);

    EXPECT_EQ(enc.bytes_encoded(), want.size());
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0);
}

TEST_F(StreamingCodecTest, TruncatedStreamFailsFinish)
{
    const std::vector<uint8_t> wire = MakeWire(2);
    CollectSink sink;
    StreamCodecLimits limits;
    StreamDecoder dec(pool_, feed_, table_, limits,
                      ParseLimits{}, &sink);
    // Everything but the last byte: the final field stays incomplete.
    ASSERT_EQ(dec.Feed(wire.data(), wire.size() - 1), ParseStatus::kOk);
    EXPECT_EQ(dec.Finish(), ParseStatus::kTruncated);
    // Terminal: subsequent feeds keep reporting the failure.
    EXPECT_EQ(dec.Feed(wire.data() + wire.size() - 1, 1),
              ParseStatus::kTruncated);
}

TEST_F(StreamingCodecTest, OversizedRecordRejectedBeforeBuffering)
{
    const std::vector<uint8_t> wire = MakeWire(1, /*body_len=*/4096);
    CollectSink sink;
    StreamCodecLimits limits;
    limits.max_record_bytes = 256;  // record is ~4 KiB
    StreamDecoder dec(pool_, feed_, table_, limits,
                      ParseLimits{}, &sink);
    EXPECT_EQ(dec.Feed(wire.data(), wire.size()),
              ParseStatus::kResourceExhausted);
    // The oversized record was rejected on its length prefix, not
    // buffered: the retained tail stays under the record bound.
    EXPECT_LE(dec.buffered_bytes(), limits.max_record_bytes);
}

TEST_F(StreamingCodecTest, TotalStreamLengthBound)
{
    const std::vector<uint8_t> wire = MakeWire(4);
    CollectSink sink;
    StreamCodecLimits limits;
    ParseLimits parse_limits;
    parse_limits.max_payload_bytes = wire.size() - 1;
    StreamDecoder dec(pool_, feed_, table_, limits,
                      parse_limits, &sink);
    EXPECT_EQ(dec.Feed(wire.data(), wire.size()),
              ParseStatus::kResourceExhausted);
}

TEST_F(StreamingCodecTest, MalformedTagRejected)
{
    // Ten continuation bytes: an over-long varint tag.
    const std::vector<uint8_t> bad(kMaxVarintBytes, 0x80);
    CollectSink sink;
    StreamCodecLimits limits;
    StreamDecoder dec(pool_, feed_, table_, limits,
                      ParseLimits{}, &sink);
    EXPECT_EQ(dec.Feed(bad.data(), bad.size()),
              ParseStatus::kMalformedVarint);
}

TEST_F(StreamingCodecTest, GroupWireTypeRejected)
{
    // field 1, wire type 3 (start-group): unsupported on this path.
    const uint8_t bad[] = {(1u << 3) | 3};
    CollectSink sink;
    StreamCodecLimits limits;
    StreamDecoder dec(pool_, feed_, table_, limits,
                      ParseLimits{}, &sink);
    EXPECT_EQ(dec.Feed(bad, sizeof bad),
              ParseStatus::kInvalidWireType);
}

TEST_F(StreamingCodecTest, PeakBufferingBoundedByRecordNotStream)
{
    // A long stream of small records fed in small chunks: the decoder
    // must never hold more than one record (plus scratch) regardless of
    // how many flow through it.
    const std::vector<uint8_t> wire = MakeWire(200, /*body_len=*/64);
    CollectSink sink;
    StreamCodecLimits limits;
    StreamDecoder dec(pool_, feed_, table_, limits,
                      ParseLimits{}, &sink);
    for (size_t off = 0; off < wire.size(); off += 32) {
        const size_t len = std::min<size_t>(32, wire.size() - off);
        ASSERT_EQ(dec.Feed(wire.data() + off, len), ParseStatus::kOk);
    }
    ASSERT_EQ(dec.Finish(), ParseStatus::kOk);
    EXPECT_EQ(sink.events.size(), 203u);
    // Wire is ~15 KiB; the decoder's high-water mark must be a small
    // multiple of the record size, nowhere near the stream size.
    EXPECT_LT(dec.peak_buffered_bytes(), size_t{4096});
    EXPECT_GT(wire.size(), size_t{10000});
}

TEST_F(StreamingCodecTest, SinkAbortSurfacesAsFailure)
{
    class AbortSink : public StreamSink
    {
      public:
        ParseStatus
        OnScalar(const FieldDescriptor &, uint64_t) override
        {
            return ParseStatus::kResourceExhausted;
        }
    };
    const std::vector<uint8_t> wire = MakeWire(1);
    AbortSink sink;
    StreamCodecLimits limits;
    StreamDecoder dec(pool_, feed_, table_, limits,
                      ParseLimits{}, &sink);
    EXPECT_EQ(dec.Feed(wire.data(), wire.size()),
              ParseStatus::kResourceExhausted);
}

}  // namespace
}  // namespace protoacc::proto
