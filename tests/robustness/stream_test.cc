/**
 * Streaming datapath robustness tests: the v4 chunked-transfer protocol
 * (rpc/stream.h) must map every malformed stream to its specific
 * status class, enforce memory budgets at admission and mid-stream,
 * stall senders through credit backpressure (including injected
 * receiver-window wedges), recover every chunk-granularity fault class
 * with exactly-once delivery, and surface its memory high-water mark
 * through the serving runtime's snapshot.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "cpu/cpu_model.h"
#include "proto/schema_parser.h"
#include "rpc/server_runtime.h"
#include "rpc/stream.h"

namespace protoacc::rpc {
namespace {

using proto::DescriptorPool;
using proto::Message;

/// Deterministic stream bytes: a pure function of offset, so rewinds
/// and retransmissions reproduce identical content.
class PatternSource
{
  public:
    explicit PatternSource(uint64_t total) : total_(total) {}

    size_t
    operator()(uint64_t offset, uint8_t *buf, size_t cap) const
    {
        const uint64_t n =
            std::min<uint64_t>(cap, total_ - std::min(offset, total_));
        for (uint64_t i = 0; i < n; ++i)
            buf[i] = static_cast<uint8_t>((offset + i) * 131 + 17);
        return static_cast<size_t>(n);
    }

    uint32_t
    Crc() const
    {
        std::vector<uint8_t> all(total_);
        (*this)(0, all.data(), all.size());
        return Crc32c(all.data(), all.size());
    }

  private:
    uint64_t total_;
};

/// Sink counting the raw stream bytes delivered (the wire is the
/// pattern, not a protobuf message — these tests exercise the frame
/// protocol; codec-level identity lives in stream_codec_test and the
/// stream_soak bench).
class ByteCountSink : public proto::StreamSink
{
  public:
    proto::ParseStatus
    OnScalar(const proto::FieldDescriptor &, uint64_t) override
    {
        ++fields;
        return proto::ParseStatus::kOk;
    }
    proto::ParseStatus
    OnString(const proto::FieldDescriptor &,
             std::string_view data) override
    {
        ++fields;
        bytes += data.size();
        return proto::ParseStatus::kOk;
    }
    uint64_t fields = 0;
    uint64_t bytes = 0;
};

class StreamingProtocolTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto parsed = proto::ParseSchema(R"(
            message Blob {
                optional bytes data = 1;
            }
        )",
                                               &pool_);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        pool_.Compile(proto::HasbitsMode::kSparse);
        blob_ = pool_.FindMessage("Blob");
        backend_ = std::make_unique<SoftwareBackend>(cpu::BoomParams(),
                                                     pool_);
    }

    /// Receiver with the given config, methods registered, counting
    /// sink per stream.
    std::unique_ptr<StreamReceiver>
    MakeReceiver(const StreamConfig &config)
    {
        auto rx = std::make_unique<StreamReceiver>(
            &pool_, backend_.get(), config,
            [](uint16_t, uint16_t) -> std::unique_ptr<proto::StreamSink> {
                return std::make_unique<ByteCountSink>();
            });
        rx->RegisterMethod(kMethod, blob_);
        return rx;
    }

    /// Protobuf-framed pattern stream: `data` fields of @p field_bytes
    /// each, totalling a wire stream the Blob decoder accepts. Returns
    /// the full wire image (tests slice it into chunks).
    std::vector<uint8_t>
    MakeWireStream(size_t nfields, size_t field_bytes)
    {
        std::vector<uint8_t> wire;
        proto::Arena arena;
        const auto &d = pool_.message(blob_);
        const proto::FieldDescriptor &data_f =
            *d.FindFieldByName("data");
        proto::StreamCodecLimits limits;
        proto::StreamEncoder enc(
            proto::SoftwareCodecFor(proto::SoftwareCodecEngine::kTable),
            limits);
        std::string payload(field_bytes, 'x');
        for (size_t i = 0; i < nfields; ++i) {
            payload[0] = static_cast<char>('a' + (i % 26));
            EXPECT_EQ(enc.AppendString(data_f, payload),
                      proto::ParseStatus::kOk);
            uint8_t buf[512];
            size_t n;
            while ((n = enc.Produce(buf, sizeof buf)) > 0)
                wire.insert(wire.end(), buf, buf + n);
        }
        return wire;
    }

    /// Drive one full transfer of @p wire through sender → channel →
    /// receiver with the receiver's reply frames looped back cleanly.
    /// Returns the sender's final status.
    StatusCode
    RunTransfer(StreamReceiver *rx, const std::vector<uint8_t> &wire,
                sim::FaultInjector *injector, StreamConfig config,
                StreamSender **out_sender = nullptr,
                StreamChannel **out_channel = nullptr)
    {
        std::vector<uint8_t> bytes = wire;
        sender_ = std::make_unique<StreamSender>(
            config, /*tenant=*/0, kMethod, /*call_id=*/100,
            /*stream_key=*/kKey, bytes.size(),
            [bytes](uint64_t off, uint8_t *buf, size_t cap) -> size_t {
                const size_t n = std::min<uint64_t>(
                    cap, bytes.size() - std::min<uint64_t>(
                                            off, bytes.size()));
                std::memcpy(buf, bytes.data() + off, n);
                return n;
            });
        channel_ = std::make_unique<StreamChannel>(injector);
        if (out_sender != nullptr)
            *out_sender = sender_.get();
        if (out_channel != nullptr)
            *out_channel = channel_.get();

        FrameBuffer to_rx, from_rx;
        double now = 0;
        // Modeled tick: generous bound so wedges/timeouts resolve.
        for (int tick = 0; tick < 4000 && !sender_->done(); ++tick) {
            sender_->Pump(&to_rx, now);
            channel_->Pump(to_rx, [&](const Frame &f) {
                rx->HandleFrame(f, &from_rx, now);
            });
            to_rx.clear();
            rx->AdvanceTime(now, &from_rx);
            // Reply path is clean (control loss is modeled by sender
            // timeouts, not the channel).
            size_t off = 0;
            for (;;) {
                StatusCode err;
                auto f = from_rx.Next(&off, &err);
                if (!f.has_value())
                    break;
                sender_->HandleFrame(*f, now);
            }
            from_rx.clear();
            now += 50000;  // 50 us per tick
        }
        return sender_->done() ? sender_->final_status()
                               : StatusCode::kDeadlineExceeded;
    }

    static constexpr uint16_t kMethod = 9;
    static constexpr uint64_t kKey = 0xabcdef12345ull;

    DescriptorPool pool_;
    int blob_ = -1;
    std::unique_ptr<SoftwareBackend> backend_;
    std::unique_ptr<StreamSender> sender_;
    std::unique_ptr<StreamChannel> channel_;
};

// ---------------------------------------------------------------------
// Clean-path transfer and backpressure
// ---------------------------------------------------------------------

TEST_F(StreamingProtocolTest, CleanTransferCompletesExactlyOnce)
{
    StreamConfig config;
    config.chunk_bytes = 256;
    config.credit_window_bytes = 1024;
    auto rx = MakeReceiver(config);
    const std::vector<uint8_t> wire = MakeWireStream(40, 100);
    ASSERT_EQ(RunTransfer(rx.get(), wire, nullptr, config),
              StatusCode::kOk);

    const StreamReceiverStats &st = rx->stats();
    EXPECT_EQ(st.streams_opened, 1u);
    EXPECT_EQ(st.streams_completed, 1u);
    EXPECT_EQ(st.bytes_committed, wire.size());
    EXPECT_EQ(st.duplicate_chunks, 0u);
    EXPECT_EQ(st.gap_nacks, 0u);
    EXPECT_EQ(rx->open_streams(), 0u);
    // The response echoes the close record: length + composed CRC.
    StreamEndInfo close;
    ASSERT_TRUE(UnpackStreamEnd(sender_->response().data(),
                                sender_->response().size(), &close));
    EXPECT_EQ(close.total_bytes, wire.size());
    EXPECT_EQ(close.stream_crc, Crc32c(wire.data(), wire.size()));
    // Budget released at completion.
    EXPECT_EQ(rx->gauge().current_bytes(), 0u);
    EXPECT_GT(rx->gauge().peak_bytes(), 0u);
}

TEST_F(StreamingProtocolTest, CreditWindowThrottlesSender)
{
    StreamConfig config;
    config.chunk_bytes = 256;
    config.credit_window_bytes = 256;  // one chunk in flight, ever
    auto rx = MakeReceiver(config);
    const std::vector<uint8_t> wire = MakeWireStream(40, 100);
    ASSERT_EQ(RunTransfer(rx.get(), wire, nullptr, config),
              StatusCode::kOk);
    // With a one-chunk window the sender can never run ahead: every
    // tick sends at most one chunk, so stalls are the steady state.
    EXPECT_EQ(rx->stats().bytes_committed, wire.size());
    EXPECT_EQ(sender_->stats().chunks_sent,
              (wire.size() + 255) / 256);
}

TEST_F(StreamingProtocolTest, WindowWedgeStallsThenRecovers)
{
    StreamConfig config;
    config.chunk_bytes = 128;
    config.credit_window_bytes = 256;
    config.wedge_hold_ns = 200000;
    sim::FaultConfig fc;
    fc.window_wedge_rate = 1.0;  // every stream wedges
    // Seed pins the hash-chosen wedge mid-stream (chunk 9 of 24) so the
    // frozen window catches the sender with data still unsent.
    sim::FaultInjector injector(/*seed=*/3, fc);

    auto rx = MakeReceiver(config);
    rx->SetFaultInjector(&injector);
    const std::vector<uint8_t> wire = MakeWireStream(30, 100);
    ASSERT_EQ(RunTransfer(rx.get(), wire, &injector, config),
              StatusCode::kOk);
    EXPECT_EQ(rx->stats().wedges_started, 1u);
    EXPECT_EQ(rx->stats().bytes_committed, wire.size());
    // The wedge held the window shut long enough to stall the sender
    // in modeled time.
    EXPECT_GE(sender_->stats().window_stalls, 1u);
    EXPECT_GT(sender_->stats().stalled_ns, 0.0);
}

// ---------------------------------------------------------------------
// Chunk-granularity faults: every class recovered, exactly once
// ---------------------------------------------------------------------

TEST_F(StreamingProtocolTest, RecoversFromEveryChunkFaultClass)
{
    struct Case
    {
        const char *name;
        void (*set)(sim::FaultConfig *);
    };
    const Case cases[] = {
        {"drop", [](sim::FaultConfig *f) { f->chunk_drop_rate = 0.2; }},
        {"truncate",
         [](sim::FaultConfig *f) { f->chunk_truncate_rate = 0.2; }},
        {"corrupt",
         [](sim::FaultConfig *f) { f->chunk_corrupt_rate = 0.2; }},
        {"duplicate",
         [](sim::FaultConfig *f) { f->chunk_duplicate_rate = 0.2; }},
        {"reorder",
         [](sim::FaultConfig *f) { f->chunk_reorder_rate = 0.2; }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        StreamConfig config;
        config.chunk_bytes = 128;
        config.credit_window_bytes = 4096;
        config.retransmit_timeout_ns = 200000;
        sim::FaultConfig fc;
        c.set(&fc);
        sim::FaultInjector injector(/*seed=*/11, fc);

        auto rx = MakeReceiver(config);
        const std::vector<uint8_t> wire = MakeWireStream(30, 100);
        ASSERT_EQ(RunTransfer(rx.get(), wire, &injector, config),
                  StatusCode::kOk);
        // Delivered exactly the logical stream: the committed bytes and
        // the composed CRC match the source despite the faults.
        EXPECT_EQ(rx->stats().bytes_committed, wire.size());
        StreamEndInfo close;
        ASSERT_TRUE(UnpackStreamEnd(sender_->response().data(),
                                    sender_->response().size(),
                                    &close));
        EXPECT_EQ(close.stream_crc, Crc32c(wire.data(), wire.size()));
        // Corrupt/truncate must be caught by the real CRC scan.
        const StreamChannelStats &ch = channel_->stats();
        EXPECT_EQ(ch.detected_by_crc, ch.truncated + ch.corrupted);
    }
}

TEST_F(StreamingProtocolTest, AllFaultsTogetherStillExactlyOnce)
{
    StreamConfig config;
    config.chunk_bytes = 128;
    config.credit_window_bytes = 2048;
    config.retransmit_timeout_ns = 200000;
    sim::FaultConfig fc;
    fc.chunk_drop_rate = 0.08;
    fc.chunk_truncate_rate = 0.08;
    fc.chunk_corrupt_rate = 0.08;
    fc.chunk_duplicate_rate = 0.08;
    fc.chunk_reorder_rate = 0.08;
    fc.window_wedge_rate = 1.0;
    sim::FaultInjector injector(/*seed=*/23, fc);

    auto rx = MakeReceiver(config);
    rx->SetFaultInjector(&injector);
    const std::vector<uint8_t> wire = MakeWireStream(50, 90);
    ASSERT_EQ(RunTransfer(rx.get(), wire, &injector, config),
              StatusCode::kOk);
    EXPECT_EQ(rx->stats().bytes_committed, wire.size());
    EXPECT_EQ(rx->stats().streams_completed, 1u);
    StreamEndInfo close;
    ASSERT_TRUE(UnpackStreamEnd(sender_->response().data(),
                                sender_->response().size(), &close));
    EXPECT_EQ(close.stream_crc, Crc32c(wire.data(), wire.size()));
}

TEST_F(StreamingProtocolTest, SameSeedReplaysBitIdenticalCounters)
{
    const auto run = [this](uint64_t seed) {
        StreamConfig config;
        config.chunk_bytes = 128;
        config.credit_window_bytes = 2048;
        config.retransmit_timeout_ns = 200000;
        sim::FaultConfig fc;
        fc.chunk_drop_rate = 0.1;
        fc.chunk_corrupt_rate = 0.1;
        sim::FaultInjector injector(seed, fc);
        auto rx = MakeReceiver(config);
        const std::vector<uint8_t> wire = MakeWireStream(40, 80);
        EXPECT_EQ(RunTransfer(rx.get(), wire, &injector, config),
                  StatusCode::kOk);
        return std::make_tuple(rx->stats().chunks_committed,
                               rx->stats().duplicate_chunks,
                               rx->stats().gap_nacks,
                               channel_->stats().dropped,
                               channel_->stats().corrupted,
                               sender_->stats().retransmits,
                               sender_->stats().bytes_sent);
    };
    const auto a = run(99);
    const auto b = run(99);
    EXPECT_EQ(a, b);
    // And a different seed takes a different fault path (sanity that
    // the determinism above is not vacuous).
    const auto c = run(100);
    EXPECT_NE(std::get<6>(a), 0u);
    (void)c;
}

// ---------------------------------------------------------------------
// Malformed streams: each violation maps to its status class
// ---------------------------------------------------------------------

class StreamingMalformedTest : public StreamingProtocolTest
{
  protected:
    void
    SetUp() override
    {
        StreamingProtocolTest::SetUp();
        config_.chunk_bytes = 128;
        rx_ = MakeReceiver(config_);
    }

    /// Open a healthy stream announcing @p total bytes; returns the
    /// credit status (kOk on admission).
    StatusCode
    Begin(uint64_t total, uint64_t key = kKey)
    {
        FrameBuffer wire;
        FrameHeader h;
        h.kind = FrameKind::kStreamBegin;
        h.idempotency_key = key;
        h.method_id = kMethod;
        uint8_t payload[StreamBeginInfo::kWireBytes];
        PackStreamBegin({total, config_.chunk_bytes}, payload);
        h.payload_bytes = StreamBeginInfo::kWireBytes;
        wire.Append(h, payload);
        return Deliver(wire);
    }

    StatusCode
    SendChunk(uint64_t offset, const std::vector<uint8_t> &data,
              uint64_t key = kKey)
    {
        FrameBuffer wire;
        FrameHeader h;
        h.kind = FrameKind::kStreamChunk;
        h.idempotency_key = key;
        h.method_id = kMethod;
        std::vector<uint8_t> payload(StreamChunkInfo::kWireBytes +
                                     data.size());
        PackStreamChunk({offset}, payload.data());
        std::memcpy(payload.data() + StreamChunkInfo::kWireBytes,
                    data.data(), data.size());
        h.payload_bytes = static_cast<uint32_t>(payload.size());
        wire.Append(h, payload.data());
        return Deliver(wire);
    }

    StatusCode
    SendEnd(uint64_t total, uint32_t crc, uint64_t key = kKey)
    {
        FrameBuffer wire;
        FrameHeader h;
        h.kind = FrameKind::kStreamEnd;
        h.idempotency_key = key;
        h.method_id = kMethod;
        uint8_t payload[StreamEndInfo::kWireBytes];
        PackStreamEnd({total, crc}, payload);
        h.payload_bytes = StreamEndInfo::kWireBytes;
        wire.Append(h, payload);
        return Deliver(wire);
    }

    StatusCode
    Deliver(const FrameBuffer &wire)
    {
        size_t off = 0;
        StatusCode last = StatusCode::kOk;
        for (;;) {
            auto f = wire.Next(&off);
            if (!f.has_value())
                break;
            last = rx_->HandleFrame(*f, &replies_, now_);
            now_ += 1000;
        }
        return last;
    }

    StreamConfig config_;
    std::unique_ptr<StreamReceiver> rx_;
    FrameBuffer replies_;
    double now_ = 0;
};

TEST_F(StreamingMalformedTest, ChunkBeforeBeginIsMalformed)
{
    EXPECT_EQ(SendChunk(0, std::vector<uint8_t>(64, 1)),
              StatusCode::kMalformedInput);
    EXPECT_EQ(rx_->stats().malformed_frames, 1u);
}

TEST_F(StreamingMalformedTest, TruncatedSubheaderIsMalformed)
{
    // A chunk frame whose payload is shorter than the subheader.
    FrameBuffer wire;
    FrameHeader h;
    h.kind = FrameKind::kStreamChunk;
    h.idempotency_key = kKey;
    const uint8_t tiny[4] = {1, 2, 3, 4};
    h.payload_bytes = sizeof tiny;
    wire.Append(h, tiny);
    EXPECT_EQ(Deliver(wire), StatusCode::kMalformedInput);
}

TEST_F(StreamingMalformedTest, DuplicateOffsetAckedNotReexecuted)
{
    const std::vector<uint8_t> wire_stream = MakeWireStream(4, 100);
    ASSERT_EQ(Begin(wire_stream.size()), StatusCode::kOk);
    std::vector<uint8_t> first(wire_stream.begin(),
                               wire_stream.begin() + 128);
    ASSERT_EQ(SendChunk(0, first), StatusCode::kOk);
    // Same chunk again: acked idempotently, decoded once.
    EXPECT_EQ(SendChunk(0, first), StatusCode::kOk);
    EXPECT_EQ(rx_->stats().duplicate_chunks, 1u);
    EXPECT_EQ(rx_->stats().chunks_committed, 1u);
    EXPECT_EQ(rx_->stats().bytes_committed, 128u);
}

TEST_F(StreamingMalformedTest, ReorderedOffsetNacksRewind)
{
    const std::vector<uint8_t> wire_stream = MakeWireStream(4, 100);
    ASSERT_EQ(Begin(wire_stream.size()), StatusCode::kOk);
    // Second chunk arrives first: a gap.
    std::vector<uint8_t> second(wire_stream.begin() + 128,
                                wire_stream.begin() + 256);
    EXPECT_EQ(SendChunk(128, second), StatusCode::kUnavailable);
    EXPECT_EQ(rx_->stats().gap_nacks, 1u);
    // The NACK credit frame carries the rewind watermark (0).
    size_t off = 0;
    bool saw_nack = false;
    for (;;) {
        auto f = replies_.Next(&off);
        if (!f.has_value())
            break;
        if (f->header.kind == FrameKind::kStreamCredit &&
            f->header.status != StatusCode::kOk) {
            StreamCreditInfo info;
            ASSERT_TRUE(UnpackStreamCredit(f->payload,
                                           f->header.payload_bytes,
                                           &info));
            EXPECT_EQ(info.acked_bytes, 0u);
            saw_nack = true;
        }
    }
    EXPECT_TRUE(saw_nack);
}

TEST_F(StreamingMalformedTest, EndWithWrongTotalIsMalformed)
{
    const std::vector<uint8_t> wire_stream = MakeWireStream(2, 60);
    ASSERT_EQ(Begin(wire_stream.size()), StatusCode::kOk);
    ASSERT_EQ(SendChunk(0, wire_stream), StatusCode::kOk);
    EXPECT_EQ(SendEnd(wire_stream.size() + 5,
                      Crc32c(wire_stream.data(), wire_stream.size())),
              StatusCode::kMalformedInput);
    EXPECT_EQ(rx_->open_streams(), 0u);  // incoherent stream reclaimed
}

TEST_F(StreamingMalformedTest, EndWithWrongCrcIsDataLoss)
{
    const std::vector<uint8_t> wire_stream = MakeWireStream(2, 60);
    ASSERT_EQ(Begin(wire_stream.size()), StatusCode::kOk);
    ASSERT_EQ(SendChunk(0, wire_stream), StatusCode::kOk);
    EXPECT_EQ(SendEnd(wire_stream.size(), 0xdeadbeef),
              StatusCode::kDataLoss);
    EXPECT_EQ(rx_->stats().stream_crc_mismatches, 1u);
}

TEST_F(StreamingMalformedTest, AnnounceOverPayloadLimitSheds)
{
    ParseLimits limits;
    limits.max_payload_bytes = 1024;
    backend_->SetParseLimits(limits);
    EXPECT_EQ(Begin(4096), StatusCode::kResourceExhausted);
    EXPECT_EQ(rx_->stats().shed_announce, 1u);
    EXPECT_EQ(rx_->open_streams(), 0u);
    EXPECT_EQ(rx_->gauge().current_bytes(), 0u);  // nothing reserved
}

TEST_F(StreamingMalformedTest, UnknownMethodIsUnimplemented)
{
    FrameBuffer wire;
    FrameHeader h;
    h.kind = FrameKind::kStreamBegin;
    h.idempotency_key = kKey;
    h.method_id = 77;  // unregistered
    uint8_t payload[StreamBeginInfo::kWireBytes];
    PackStreamBegin({1024, 128}, payload);
    h.payload_bytes = StreamBeginInfo::kWireBytes;
    wire.Append(h, payload);
    EXPECT_EQ(Deliver(wire), StatusCode::kUnimplemented);
}

TEST_F(StreamingMalformedTest, ForeignVersionOnStreamFrameIsUnimplemented)
{
    // A peer speaking a future wire version opens a stream: the version
    // byte is foreign but the frame is intact (CRC valid as sent). The
    // framing layer must reject it as kUnimplemented — exactly the
    // unary path's verdict — never hand the receiver a frame whose
    // layout it guessed at.
    FrameBuffer wire;
    FrameHeader h;
    h.kind = FrameKind::kStreamBegin;
    h.idempotency_key = kKey;
    h.method_id = kMethod;
    uint8_t payload[StreamBeginInfo::kWireBytes];
    PackStreamBegin({1024, 128}, payload);
    h.payload_bytes = StreamBeginInfo::kWireBytes;
    wire.Append(h, payload);

    uint8_t *raw = wire.mutable_data();
    raw[12] = FrameHeader::kFrameVersion + 1;
    const uint32_t crc = Crc32cExtend(
        Crc32c(raw, FrameHeader::kCrcOffset),
        raw + FrameHeader::kWireBytes, h.payload_bytes);
    std::memcpy(raw + FrameHeader::kCrcOffset, &crc, 4);

    size_t off = 0;
    StatusCode err = StatusCode::kOk;
    EXPECT_FALSE(wire.Next(&off, &err).has_value());
    EXPECT_EQ(err, StatusCode::kUnimplemented);
    EXPECT_EQ(off, 0u);  // permanent rejection: the scan does not skip
    EXPECT_EQ(rx_->open_streams(), 0u);  // never reached the receiver
}

TEST_F(StreamingMalformedTest, CorruptedVersionByteOnStreamFrameIsDataLoss)
{
    // Same foreign version byte, but the CRC still covers the original
    // bytes: this is in-flight corruption, not a newer peer, and the
    // CRC disambiguates — retryable kDataLoss, scan advances past it.
    FrameBuffer wire;
    FrameHeader h;
    h.kind = FrameKind::kStreamChunk;
    h.idempotency_key = kKey;
    h.method_id = kMethod;
    std::vector<uint8_t> payload(StreamChunkInfo::kWireBytes + 32);
    PackStreamChunk({0}, payload.data());
    h.payload_bytes = static_cast<uint32_t>(payload.size());
    wire.Append(h, payload.data());

    wire.mutable_data()[12] = FrameHeader::kFrameVersion + 1;

    size_t off = 0;
    StatusCode err = StatusCode::kOk;
    EXPECT_FALSE(wire.Next(&off, &err).has_value());
    EXPECT_EQ(err, StatusCode::kDataLoss);
    EXPECT_EQ(off, wire.bytes());  // skipped: the stream can continue
}

TEST_F(StreamingMalformedTest, ClearedCrcFlagOnStreamFrameIsDataLoss)
{
    // A cleared has-CRC flag bit on an enforcing reader is itself
    // corruption (every writer stamps a CRC): it must surface as
    // kDataLoss, not silently bypass verification into the receiver.
    FrameBuffer wire;
    FrameHeader h;
    h.kind = FrameKind::kStreamChunk;
    h.idempotency_key = kKey;
    h.method_id = kMethod;
    std::vector<uint8_t> payload(StreamChunkInfo::kWireBytes + 32);
    PackStreamChunk({0}, payload.data());
    h.payload_bytes = static_cast<uint32_t>(payload.size());
    wire.Append(h, payload.data());

    wire.mutable_data()[13] &=
        static_cast<uint8_t>(~FrameHeader::kFlagHasCrc);

    size_t off = 0;
    StatusCode err = StatusCode::kOk;
    EXPECT_FALSE(wire.Next(&off, &err).has_value());
    EXPECT_EQ(err, StatusCode::kDataLoss);
    EXPECT_EQ(rx_->stats().malformed_frames, 0u);  // shielded upstream
}

// ---------------------------------------------------------------------
// Budgets, brownout, deadline, resume
// ---------------------------------------------------------------------

TEST_F(StreamingProtocolTest, GlobalBudgetShedsAtAdmission)
{
    StreamConfig config;
    config.chunk_bytes = 1024;
    config.codec.max_record_bytes = 64 << 10;
    // Budget fits exactly one stream's reservation.
    config.global_budget_bytes = (64 << 10) + 2048;
    auto rx = MakeReceiver(config);

    FrameBuffer wire, replies;
    for (int i = 0; i < 2; ++i) {
        FrameHeader h;
        h.kind = FrameKind::kStreamBegin;
        h.idempotency_key = 1000 + i;
        h.method_id = kMethod;
        uint8_t payload[StreamBeginInfo::kWireBytes];
        PackStreamBegin({1 << 20, 1024}, payload);
        h.payload_bytes = StreamBeginInfo::kWireBytes;
        wire.Append(h, payload);
    }
    size_t off = 0;
    std::vector<StatusCode> results;
    for (;;) {
        auto f = wire.Next(&off);
        if (!f.has_value())
            break;
        results.push_back(rx->HandleFrame(*f, &replies, 0));
    }
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0], StatusCode::kOk);
    EXPECT_EQ(results[1], StatusCode::kOverloaded);
    EXPECT_EQ(rx->stats().shed_budget, 1u);
    EXPECT_EQ(rx->open_streams(), 1u);
}

TEST_F(StreamingProtocolTest, DeadlineCancelsStalledStream)
{
    StreamConfig config;
    config.chunk_bytes = 128;
    config.deadline_ns = 1e6;
    auto rx = MakeReceiver(config);

    FrameBuffer wire, replies;
    FrameHeader h;
    h.kind = FrameKind::kStreamBegin;
    h.idempotency_key = kKey;
    h.method_id = kMethod;
    uint8_t payload[StreamBeginInfo::kWireBytes];
    PackStreamBegin({1 << 16, 128}, payload);
    h.payload_bytes = StreamBeginInfo::kWireBytes;
    wire.Append(h, payload);
    size_t off = 0;
    auto f = wire.Next(&off);
    ASSERT_TRUE(f.has_value());
    ASSERT_EQ(rx->HandleFrame(*f, &replies, 0), StatusCode::kOk);
    ASSERT_EQ(rx->open_streams(), 1u);

    // No progress for 2 ms: the sweep cancels with kDeadlineExceeded
    // and cleanup is deterministic (state gone, budget released).
    rx->AdvanceTime(2e6, &replies);
    EXPECT_EQ(rx->open_streams(), 0u);
    EXPECT_EQ(rx->stats().deadline_cancels, 1u);
    EXPECT_EQ(rx->gauge().current_bytes(), 0u);
    // The cancel frame carries the cause in its status byte.
    bool saw_cancel = false;
    size_t roff = 0;
    for (;;) {
        auto r = replies.Next(&roff);
        if (!r.has_value())
            break;
        if (r->header.kind == FrameKind::kStreamCancel) {
            EXPECT_EQ(r->header.status, StatusCode::kDeadlineExceeded);
            saw_cancel = true;
        }
    }
    EXPECT_TRUE(saw_cancel);
}

TEST_F(StreamingProtocolTest, LostResponseReplaysFromDedupCache)
{
    StreamConfig config;
    config.chunk_bytes = 256;
    DedupCache dedup(16);
    auto rx = MakeReceiver(config);
    rx->SetDedupCache(&dedup);
    const std::vector<uint8_t> wire = MakeWireStream(10, 100);
    ASSERT_EQ(RunTransfer(rx.get(), wire, nullptr, config),
              StatusCode::kOk);
    ASSERT_EQ(rx->stats().streams_completed, 1u);

    // The response was lost; the sender reopens the stream. The
    // receiver must replay the committed response from the cache, not
    // re-execute the transfer.
    FrameBuffer begin, replies;
    FrameHeader h;
    h.kind = FrameKind::kStreamBegin;
    h.idempotency_key = kKey;
    h.method_id = kMethod;
    h.call_id = 555;
    uint8_t payload[StreamBeginInfo::kWireBytes];
    PackStreamBegin({wire.size(), config.chunk_bytes}, payload);
    h.payload_bytes = StreamBeginInfo::kWireBytes;
    begin.Append(h, payload);
    size_t off = 0;
    auto f = begin.Next(&off);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(rx->HandleFrame(*f, &replies, 0), StatusCode::kOk);
    EXPECT_EQ(rx->stats().replayed_responses, 1u);
    EXPECT_EQ(rx->stats().streams_completed, 1u);  // no re-execution

    size_t roff = 0;
    auto resp = replies.Next(&roff);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->header.kind, FrameKind::kResponse);
    EXPECT_EQ(resp->header.call_id, 555u);  // re-stamped for the retry
    StreamEndInfo close;
    ASSERT_TRUE(UnpackStreamEnd(resp->payload,
                                resp->header.payload_bytes, &close));
    EXPECT_EQ(close.stream_crc, Crc32c(wire.data(), wire.size()));
}

// ---------------------------------------------------------------------
// Memory gauge unit tests
// ---------------------------------------------------------------------

TEST(StreamingGauge, TracksCurrentAndPeak)
{
    StreamMemoryGauge g;
    EXPECT_TRUE(g.TryAcquire(100, 0));
    EXPECT_TRUE(g.TryAcquire(50, 0));
    EXPECT_EQ(g.current_bytes(), 150u);
    EXPECT_EQ(g.peak_bytes(), 150u);
    g.Release(100);
    EXPECT_EQ(g.current_bytes(), 50u);
    EXPECT_EQ(g.peak_bytes(), 150u);  // high-water mark sticks
    EXPECT_TRUE(g.TryAcquire(25, 0));
    EXPECT_EQ(g.peak_bytes(), 150u);
}

TEST(StreamingGauge, BudgetRefusalLeavesStateUnchanged)
{
    StreamMemoryGauge g;
    EXPECT_TRUE(g.TryAcquire(900, 1000));
    EXPECT_FALSE(g.TryAcquire(200, 1000));
    EXPECT_EQ(g.current_bytes(), 900u);
    EXPECT_EQ(g.peak_bytes(), 900u);
    EXPECT_TRUE(g.TryAcquire(100, 1000));  // exactly at budget fits
    EXPECT_EQ(g.current_bytes(), 1000u);
}

TEST(StreamingGauge, ReleaseClampsAtZero)
{
    StreamMemoryGauge g;
    EXPECT_TRUE(g.TryAcquire(10, 0));
    g.Release(50);  // over-release must not underflow
    EXPECT_EQ(g.current_bytes(), 0u);
}

}  // namespace
}  // namespace protoacc::rpc
