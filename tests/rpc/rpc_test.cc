#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "proto/schema_parser.h"
#include "rpc/rpc.h"

namespace protoacc::rpc {
namespace {

using proto::DescriptorPool;
using proto::Message;

TEST(FrameBuffer, AppendAndScan)
{
    FrameBuffer buf;
    const uint8_t payload[] = {1, 2, 3, 4, 5};
    FrameHeader h;
    h.payload_bytes = 5;
    h.call_id = 42;
    h.method_id = 7;
    h.kind = FrameKind::kRequest;
    const size_t added = buf.Append(h, payload);
    EXPECT_EQ(added, FrameHeader::kWireBytes + 5);

    h.call_id = 43;
    h.kind = FrameKind::kResponse;
    h.payload_bytes = 0;
    buf.Append(h, nullptr);

    size_t offset = 0;
    const auto f1 = buf.Next(&offset);
    ASSERT_TRUE(f1.has_value());
    EXPECT_EQ(f1->header.call_id, 42u);
    EXPECT_EQ(f1->header.method_id, 7u);
    EXPECT_EQ(f1->header.kind, FrameKind::kRequest);
    EXPECT_EQ(f1->payload[4], 5);

    const auto f2 = buf.Next(&offset);
    ASSERT_TRUE(f2.has_value());
    EXPECT_EQ(f2->header.call_id, 43u);
    EXPECT_EQ(f2->header.kind, FrameKind::kResponse);

    EXPECT_FALSE(buf.Next(&offset).has_value());  // exhausted
}

TEST(FrameBuffer, TruncatedFrameRejected)
{
    // Scan a buffer whose header claims more payload than exists.
    const uint8_t payload[] = {9, 9, 9};
    FrameBuffer lying;
    FrameHeader small;
    small.payload_bytes = 3;
    lying.Append(small, payload);
    // Corrupt the length field upward.
    const_cast<uint8_t *>(lying.data())[0] = 0xff;
    size_t offset = 0;
    EXPECT_FALSE(lying.Next(&offset).has_value());
}

TEST(FrameBuffer, TruncatedHeaderRejected)
{
    // A scan offset with fewer than kWireBytes remaining models a
    // partially delivered header: Next must refuse, not read past the
    // end.
    FrameBuffer buf;
    const uint8_t payload[] = {1, 2, 3, 4, 5};
    FrameHeader h;
    h.payload_bytes = 5;
    buf.Append(h, payload);
    ASSERT_EQ(buf.bytes(), FrameHeader::kWireBytes + 5);
    size_t offset = buf.bytes() - FrameHeader::kWireBytes + 1;
    EXPECT_FALSE(buf.Next(&offset).has_value());
    // The refusal must not advance the cursor.
    EXPECT_EQ(offset, buf.bytes() - FrameHeader::kWireBytes + 1);

    size_t at_end = buf.bytes();
    EXPECT_FALSE(buf.Next(&at_end).has_value());
}

TEST(FrameBuffer, PayloadBytesOverflowRejected)
{
    // A length field of 0xffffffff must be treated as truncation, not
    // wrap the offset arithmetic into a bogus in-bounds frame.
    FrameBuffer buf;
    const uint8_t payload[] = {7, 7, 7, 7};
    FrameHeader h;
    h.payload_bytes = 4;
    buf.Append(h, payload);
    uint8_t *raw = const_cast<uint8_t *>(buf.data());
    raw[0] = raw[1] = raw[2] = raw[3] = 0xff;
    size_t offset = 0;
    EXPECT_FALSE(buf.Next(&offset).has_value());
    EXPECT_EQ(offset, 0u);
}

TEST(FrameBuffer, ErrorFrameRoundTrip)
{
    FrameBuffer buf;
    const uint8_t detail[] = {'b', 'a', 'd'};
    FrameHeader h;
    h.payload_bytes = 3;
    h.call_id = 9;
    h.method_id = 99;
    h.kind = FrameKind::kError;
    buf.Append(h, detail);

    size_t offset = 0;
    const auto f = buf.Next(&offset);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->header.kind, FrameKind::kError);
    EXPECT_EQ(f->header.call_id, 9u);
    EXPECT_EQ(f->header.method_id, 99u);
    ASSERT_EQ(f->header.payload_bytes, 3u);
    EXPECT_EQ(0, std::memcmp(f->payload, detail, 3));
    EXPECT_FALSE(buf.Next(&offset).has_value());
}

TEST(FrameBuffer, ReserveCommitRoundTrip)
{
    FrameBuffer buf;
    FrameHeader h;
    h.payload_bytes = 0xdead;  // ignored: CommitFrame backpatches
    h.call_id = 5;
    h.kind = FrameKind::kResponse;
    uint8_t *slot = buf.ReserveFrame(h, 64);
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(buf.bytes(), FrameHeader::kWireBytes + 64);
    for (int i = 0; i < 10; ++i)
        slot[i] = static_cast<uint8_t>(i);
    buf.CommitFrame(10);
    // Committed size trims the stream and lands in the length field.
    EXPECT_EQ(buf.bytes(), FrameHeader::kWireBytes + 10);

    size_t offset = 0;
    const auto f = buf.Next(&offset);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->header.payload_bytes, 10u);
    EXPECT_EQ(f->header.call_id, 5u);
    EXPECT_EQ(f->header.kind, FrameKind::kResponse);
    EXPECT_EQ(f->payload[9], 9);

    // The in-place path performs no payload copies; Append does.
    EXPECT_EQ(buf.payload_copies(), 0u);
    const uint8_t tail[] = {1};
    FrameHeader t;
    t.payload_bytes = 1;
    buf.Append(t, tail);
    EXPECT_EQ(buf.payload_copies(), 1u);
    EXPECT_EQ(buf.payload_copy_bytes(), 1u);
}

TEST(FrameBuffer, ReserveCommitEmptyAndFull)
{
    FrameBuffer buf;
    FrameHeader h;
    uint8_t *slot = buf.ReserveFrame(h, 8);
    std::memset(slot, 0xab, 8);
    buf.CommitFrame(8);  // full capacity is legal
    buf.ReserveFrame(h, 32);
    buf.CommitFrame(0);  // empty frame is legal
    EXPECT_EQ(buf.bytes(), 2 * FrameHeader::kWireBytes + 8);

    size_t offset = 0;
    const auto f1 = buf.Next(&offset);
    ASSERT_TRUE(f1.has_value());
    EXPECT_EQ(f1->header.payload_bytes, 8u);
    const auto f2 = buf.Next(&offset);
    ASSERT_TRUE(f2.has_value());
    EXPECT_EQ(f2->header.payload_bytes, 0u);
    EXPECT_FALSE(buf.Next(&offset).has_value());
}

TEST(FrameBuffer, UnknownVersionRejectedAsUnimplemented)
{
    FrameBuffer buf;
    const uint8_t payload[] = {1, 2, 3};
    FrameHeader h;
    h.payload_bytes = 3;
    h.call_id = 4;
    h.version = FrameHeader::kFrameVersion + 1;
    buf.Append(h, payload);

    size_t offset = 0;
    StatusCode error = StatusCode::kOk;
    EXPECT_FALSE(buf.Next(&offset, &error).has_value());
    EXPECT_EQ(error, StatusCode::kUnimplemented);
    // A foreign version is a protocol mismatch, not corruption: the
    // scan refuses without advancing (the layout past the version byte
    // cannot be trusted).
    EXPECT_EQ(offset, 0u);
}

TEST(FrameBuffer, CorruptedFrameRejectedAsDataLossAndScanResyncs)
{
    FrameBuffer buf;
    const uint8_t first[] = {0xaa, 0xbb, 0xcc};
    const uint8_t second[] = {0x11};
    FrameHeader h;
    h.payload_bytes = 3;
    h.call_id = 1;
    buf.Append(h, first);
    h.payload_bytes = 1;
    h.call_id = 2;
    buf.Append(h, second);

    // Flip one payload byte of the first frame in flight.
    buf.mutable_data()[FrameHeader::kWireBytes + 1] ^= 0x40;

    size_t offset = 0;
    StatusCode error = StatusCode::kOk;
    EXPECT_FALSE(buf.Next(&offset, &error).has_value());
    EXPECT_EQ(error, StatusCode::kDataLoss);
    // The CRC reject advances past the bad frame so the scan resyncs on
    // the intact one behind it.
    const auto f = buf.Next(&offset, &error);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(error, StatusCode::kOk);
    EXPECT_EQ(f->header.call_id, 2u);
}

TEST(FrameBuffer, StrippedCrcFlagIsNotAVerificationBypass)
{
    // Corruption (or an attacker) clearing the has-CRC flag bit must
    // not cause the enforcing reader to skip verification and accept
    // the rest of the header on faith.
    FrameBuffer buf;
    const uint8_t payload[] = {1, 2, 3};
    FrameHeader h;
    h.payload_bytes = 3;
    h.call_id = 1;
    buf.Append(h, payload);
    buf.mutable_data()[13] &= ~FrameHeader::kFlagHasCrc;  // flags byte

    size_t offset = 0;
    StatusCode error = StatusCode::kOk;
    EXPECT_FALSE(buf.Next(&offset, &error).has_value());
    EXPECT_EQ(error, StatusCode::kDataLoss);
    EXPECT_EQ(offset, FrameHeader::kWireBytes + 3);
}

TEST(FrameBuffer, CrcDisabledServesCorruptionSilently)
{
    // The pre-integrity stack: corruption sails through the scan. This
    // is the baseline chaos_soak quantifies (BENCH_chaos.json crc_off).
    FrameBuffer buf;
    buf.set_crc_enabled(false);
    const uint8_t payload[] = {0xaa, 0xbb, 0xcc};
    FrameHeader h;
    h.payload_bytes = 3;
    h.call_id = 1;
    buf.Append(h, payload);
    buf.mutable_data()[FrameHeader::kWireBytes + 1] ^= 0x40;

    size_t offset = 0;
    StatusCode error = StatusCode::kOk;
    const auto f = buf.Next(&offset, &error);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(error, StatusCode::kOk);
    EXPECT_EQ(f->header.flags & FrameHeader::kFlagHasCrc, 0);
    EXPECT_EQ(f->payload[1], 0xbb ^ 0x40);  // corruption undetected
}

TEST(FrameBuffer, IdempotencyKeyAndFlagsRoundTrip)
{
    FrameBuffer buf;
    const uint8_t payload[] = {7};
    FrameHeader h;
    h.payload_bytes = 1;
    h.call_id = 3;
    h.idempotency_key = 0xDEADBEEF12345678ull;
    buf.Append(h, payload);

    size_t offset = 0;
    const auto f = buf.Next(&offset);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->header.idempotency_key, 0xDEADBEEF12345678ull);
    EXPECT_EQ(f->header.version, FrameHeader::kFrameVersion);
    EXPECT_NE(f->header.flags & FrameHeader::kFlagHasCrc, 0);
}

/// Counts OnCrc events (the integrity check's cost hook).
class CrcCountingSink : public proto::CostSink
{
  public:
    void
    OnCrc(size_t bytes) override
    {
        ++crcs;
        crc_bytes += bytes;
    }
    uint64_t crcs = 0;
    uint64_t crc_bytes = 0;
};

TEST(FrameBuffer, CrcChargesTheCostSink)
{
    CrcCountingSink sink;
    FrameBuffer buf;
    buf.SetCostSink(&sink);
    const uint8_t payload[] = {1, 2, 3, 4};
    FrameHeader h;
    h.payload_bytes = 4;
    buf.Append(h, payload);  // one CRC stamped
    EXPECT_EQ(sink.crcs, 1u);
    // Covers the CRC-protected header prefix plus the payload.
    EXPECT_EQ(sink.crc_bytes, FrameHeader::kCrcOffset + 4);

    size_t offset = 0;
    ASSERT_TRUE(buf.Next(&offset).has_value());  // one CRC verified
    EXPECT_EQ(sink.crcs, 2u);

    // Disabled => no stamp, no verify, no charge.
    buf.set_crc_enabled(false);
    buf.Append(h, payload);
    ASSERT_TRUE(buf.Next(&offset).has_value());
    EXPECT_EQ(sink.crcs, 2u);
}

TEST(SimulatedChannel, LatencyPlusBandwidth)
{
    SimulatedChannel ch{.latency_ns = 1000, .bytes_per_ns = 10};
    EXPECT_DOUBLE_EQ(ch.TransferNs(0), 1000.0);
    EXPECT_DOUBLE_EQ(ch.TransferNs(10000), 2000.0);
}

class RpcEndToEndTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto parsed = ParseSchema(R"(
            message EchoRequest {
                optional string text = 1;
                optional int32 repeat = 2 [default = 1];
            }
            message EchoResponse {
                optional string text = 1;
                optional uint32 length = 2;
            }
        )",
                                        &pool_);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        pool_.Compile(proto::HasbitsMode::kSparse);
        req_ = pool_.FindMessage("EchoRequest");
        rsp_ = pool_.FindMessage("EchoResponse");
    }

    /// Echo handler: repeat the text N times.
    Handler
    EchoHandler()
    {
        return [this](const Message &request, Message response) {
            const auto &rd = pool_.message(req_);
            const auto &sd = pool_.message(rsp_);
            std::string out;
            const int n =
                request.GetInt32(*rd.FindFieldByName("repeat"));
            for (int i = 0; i < n; ++i)
                out += request.GetString(*rd.FindFieldByName("text"));
            response.SetString(*sd.FindFieldByName("text"), out);
            response.SetUint32(*sd.FindFieldByName("length"),
                               static_cast<uint32_t>(out.size()));
        };
    }

    /// Run a session with the given backends; returns the breakdown.
    RpcTimeBreakdown
    RunSession(std::unique_ptr<CodecBackend> client_backend,
               std::unique_ptr<CodecBackend> server_backend,
               int calls)
    {
        RpcServer server(&pool_, std::move(server_backend));
        server.RegisterMethod(1, req_, rsp_, EchoHandler());
        RpcSession session(&pool_, std::move(client_backend), &server,
                           SimulatedChannel{});

        proto::Arena arena;
        for (int i = 0; i < calls; ++i) {
            Message request = Message::Create(&arena, pool_, req_);
            const auto &rd = pool_.message(req_);
            request.SetString(*rd.FindFieldByName("text"),
                              "ping-" + std::to_string(i));
            request.SetInt32(*rd.FindFieldByName("repeat"), 3);
            Message response = Message::Create(&arena, pool_, rsp_);
            EXPECT_EQ(session.Call(1, request, &response),
                      StatusCode::kOk);
            const auto &sd = pool_.message(rsp_);
            EXPECT_EQ(response.GetUint32(*sd.FindFieldByName("length")),
                      3 * (std::string("ping-") + std::to_string(i))
                              .size());
        }
        return session.breakdown();
    }

    DescriptorPool pool_;
    int req_ = -1;
    int rsp_ = -1;
};

TEST_F(RpcEndToEndTest, SoftwareBackendsRoundTrip)
{
    const RpcTimeBreakdown b = RunSession(
        std::make_unique<SoftwareBackend>(cpu::BoomParams(), pool_),
        std::make_unique<SoftwareBackend>(cpu::BoomParams(), pool_), 20);
    EXPECT_EQ(b.calls, 20u);
    EXPECT_EQ(b.failures, 0u);
    EXPECT_GT(b.client_codec_ns, 0);
    EXPECT_GT(b.server_codec_ns, 0);
    EXPECT_GT(b.network_ns, 0);
}

TEST_F(RpcEndToEndTest, AcceleratedBackendsRoundTrip)
{
    const RpcTimeBreakdown b = RunSession(
        std::make_unique<AcceleratedBackend>(pool_),
        std::make_unique<AcceleratedBackend>(pool_), 20);
    EXPECT_EQ(b.calls, 20u);
    EXPECT_EQ(b.failures, 0u);
}

TEST_F(RpcEndToEndTest, AcceleratorShrinksCodecShare)
{
    const RpcTimeBreakdown sw = RunSession(
        std::make_unique<SoftwareBackend>(cpu::BoomParams(), pool_),
        std::make_unique<SoftwareBackend>(cpu::BoomParams(), pool_), 30);
    const RpcTimeBreakdown hw = RunSession(
        std::make_unique<AcceleratedBackend>(pool_),
        std::make_unique<AcceleratedBackend>(pool_), 30);
    // Same application + network; the accelerator only removes codec
    // time, so its codec share and total must both be lower.
    EXPECT_LT(hw.codec_share(), sw.codec_share());
    EXPECT_LT(hw.total_ns(), sw.total_ns());
    EXPECT_NEAR(hw.network_ns, sw.network_ns, 1e-6);
}

TEST_F(RpcEndToEndTest, MixedBackendsInteroperate)
{
    // Software client, accelerated server: the wire format is the
    // contract (§4: "wire-compatible with standard protobufs").
    const RpcTimeBreakdown b = RunSession(
        std::make_unique<SoftwareBackend>(cpu::XeonParams(), pool_),
        std::make_unique<AcceleratedBackend>(pool_), 15);
    EXPECT_EQ(b.failures, 0u);
}

TEST_F(RpcEndToEndTest, UnknownMethodYieldsErrorFrame)
{
    RpcServer server(&pool_,
                     std::make_unique<SoftwareBackend>(
                         cpu::BoomParams(), pool_));
    server.RegisterMethod(1, req_, rsp_, EchoHandler());
    RpcSession session(&pool_,
                       std::make_unique<SoftwareBackend>(
                           cpu::BoomParams(), pool_),
                       &server, SimulatedChannel{});
    proto::Arena arena;
    Message request = Message::Create(&arena, pool_, req_);
    Message response = Message::Create(&arena, pool_, rsp_);
    EXPECT_EQ(session.Call(99, request, &response),
              StatusCode::kUnknownMethod);
    EXPECT_EQ(session.last_error(), StatusCode::kUnknownMethod);
    EXPECT_EQ(session.breakdown().failures, 1u);
}

TEST_F(RpcEndToEndTest, LossyChannelRetriesExecuteExactlyOnce)
{
    RpcServer server(&pool_,
                     std::make_unique<SoftwareBackend>(
                         cpu::BoomParams(), pool_));
    std::atomic<uint64_t> executions{0};
    const Handler echo = EchoHandler();
    server.RegisterMethod(
        1, req_, rsp_,
        [echo, &executions](const Message &request, Message response) {
            executions.fetch_add(1, std::memory_order_relaxed);
            echo(request, response);
        });
    DedupCache dedup(256);
    server.SetDedupCache(&dedup);

    sim::FaultConfig fault_config;
    fault_config.frame_drop_rate = 0.25;
    sim::FaultInjector injector(0x10552, fault_config);

    RpcSession session(&pool_,
                       std::make_unique<SoftwareBackend>(
                           cpu::BoomParams(), pool_),
                       &server, SimulatedChannel{});
    session.SetFaultInjector(&injector);
    RetryPolicy policy;
    policy.max_attempts = 16;
    session.set_retry_policy(policy);

    constexpr int kCalls = 30;
    proto::Arena arena;
    const auto &rd = pool_.message(req_);
    const auto &sd = pool_.message(rsp_);
    for (int i = 0; i < kCalls; ++i) {
        Message request = Message::Create(&arena, pool_, req_);
        request.SetString(*rd.FindFieldByName("text"),
                          "ping-" + std::to_string(i));
        request.SetInt32(*rd.FindFieldByName("repeat"), 2);
        Message response = Message::Create(&arena, pool_, rsp_);
        ASSERT_EQ(session.Call(1, request, &response), StatusCode::kOk);
        EXPECT_EQ(response.GetString(*sd.FindFieldByName("text")),
                  "ping-" + std::to_string(i) + "ping-" +
                      std::to_string(i));
    }

    const RpcTimeBreakdown &b = session.breakdown();
    EXPECT_EQ(b.calls, static_cast<uint64_t>(kCalls));
    EXPECT_GT(b.attempts, b.calls);  // the channel really was lossy
    EXPECT_GT(b.retries, 0u);
    EXPECT_GT(b.backoff_ns, 0.0);
    // Exactly once: a request lost before the server never executes; a
    // response lost after execution re-sends, and the retry hits the
    // dedup cache instead of running the handler again.
    EXPECT_EQ(executions.load(), static_cast<uint64_t>(kCalls));
    EXPECT_GT(dedup.stats().hits, 0u);
}

TEST_F(RpcEndToEndTest, InFlightCorruptionIsDetectedAndRetried)
{
    RpcServer server(&pool_,
                     std::make_unique<SoftwareBackend>(
                         cpu::BoomParams(), pool_));
    server.RegisterMethod(1, req_, rsp_, EchoHandler());

    sim::FaultConfig fault_config;
    fault_config.frame_corrupt_rate = 0.5;
    sim::FaultInjector injector(0xC0DE, fault_config);

    RpcSession session(&pool_,
                       std::make_unique<SoftwareBackend>(
                           cpu::BoomParams(), pool_),
                       &server, SimulatedChannel{});
    session.SetFaultInjector(&injector);
    RetryPolicy policy;
    policy.max_attempts = 16;
    session.set_retry_policy(policy);

    constexpr int kCalls = 20;
    proto::Arena arena;
    const auto &rd = pool_.message(req_);
    const auto &sd = pool_.message(rsp_);
    for (int i = 0; i < kCalls; ++i) {
        Message request = Message::Create(&arena, pool_, req_);
        request.SetString(*rd.FindFieldByName("text"),
                          "x-" + std::to_string(i));
        request.SetInt32(*rd.FindFieldByName("repeat"), 1);
        Message response = Message::Create(&arena, pool_, rsp_);
        ASSERT_EQ(session.Call(1, request, &response), StatusCode::kOk);
        // Every served answer is intact: corruption is detected by the
        // frame CRC (kDataLoss => retry), never parsed and served.
        EXPECT_EQ(response.GetString(*sd.FindFieldByName("text")),
                  "x-" + std::to_string(i));
    }

    const RpcTimeBreakdown &b = session.breakdown();
    EXPECT_EQ(b.calls, static_cast<uint64_t>(kCalls));
    EXPECT_GT(b.integrity_rejects, 0u);
    EXPECT_EQ(b.failures, 0u);
}

TEST_F(RpcEndToEndTest, ResponseCrcRejectFiresIncidentReporter)
{
    // A response frame failing its CRC implicates the server-side
    // device that serialized it; the session's reject hook is how that
    // observation feeds ReportDeviceIncident without per-call wiring.
    RpcServer server(&pool_,
                     std::make_unique<SoftwareBackend>(
                         cpu::BoomParams(), pool_));
    server.RegisterMethod(1, req_, rsp_, EchoHandler());

    sim::FaultConfig fault_config;
    fault_config.frame_corrupt_rate = 0.5;
    sim::FaultInjector injector(0xC0DE, fault_config);

    RpcSession session(&pool_,
                       std::make_unique<SoftwareBackend>(
                           cpu::BoomParams(), pool_),
                       &server, SimulatedChannel{});
    session.SetFaultInjector(&injector);
    RetryPolicy policy;
    policy.max_attempts = 16;
    session.set_retry_policy(policy);
    uint64_t reported = 0;
    session.SetCrcRejectReporter([&reported] { ++reported; });

    constexpr int kCalls = 20;
    proto::Arena arena;
    const auto &rd = pool_.message(req_);
    for (int i = 0; i < kCalls; ++i) {
        Message request = Message::Create(&arena, pool_, req_);
        request.SetString(*rd.FindFieldByName("text"),
                          "x-" + std::to_string(i));
        request.SetInt32(*rd.FindFieldByName("repeat"), 1);
        Message response = Message::Create(&arena, pool_, rsp_);
        ASSERT_EQ(session.Call(1, request, &response), StatusCode::kOk);
    }

    const RpcTimeBreakdown &b = session.breakdown();
    // Reply-side rejects fired the reporter; request-side rejects (the
    // client's own frame mangled en route) must not — they say nothing
    // about the server's device — so the report count sits strictly
    // inside the total integrity-reject count for this seed.
    EXPECT_GT(reported, 0u);
    EXPECT_LT(reported, b.integrity_rejects);
}

}  // namespace
}  // namespace protoacc::rpc
