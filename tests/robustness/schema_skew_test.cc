/**
 * @file
 * Schema-evolution skew suite: mixed-version codecs must never
 * misparse. Every ordered pair of the three skew-pool versions
 * (tools/gen_pools.h BuildSkewPool: added, removed and widened fields)
 * runs a quad-engine differential — reference, table, generated and
 * accelerator model parse the foreign-version wire, agree on the
 * verdict, produce equal in-memory messages (software engines), and
 * re-serialize byte-identically to each other; for pure unknown-field
 * skews the round trip is byte-identical to the original wire.
 *
 * Also covers the negotiation layer: the runtime SchemaRegistry,
 * kFailedPrecondition rejection of unknown fingerprints, fingerprint
 * stamping on reply frames, and the generated-codec fallback counter
 * (observable tier downgrade).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "cpu/cpu_model.h"
#include "gen_pools.h"
#include "proto/codec_generated.h"
#include "proto/codec_reference.h"
#include "proto/parser.h"
#include "proto/schema_parser.h"
#include "proto/schema_random.h"
#include "proto/serializer.h"
#include "rpc/rpc.h"
#include "rpc/schema_registry.h"

namespace protoacc {
namespace {

using proto::DescriptorPool;
using proto::Message;

/// One skew-pool version wired to all four engines as the decoder.
struct VersionRig
{
    explicit VersionRig(int version)
        : np(genpools::BuildSkewPool(version)),
          memory(sim::MemorySystemConfig{}),
          accel(&memory, accel::AccelConfig{}),
          adts(std::make_unique<accel::AdtBuilder>(*np.pool, &adt_arena))
    {
        accel.DeserAssignArena(&deser_arena);
        accel.SerAssignArena(&ser_arena);
    }

    genpools::NamedPool np;
    proto::Arena adt_arena;
    proto::Arena deser_arena;
    accel::SerArena ser_arena;
    sim::MemorySystem memory;
    accel::ProtoAccelerator accel;
    std::unique_ptr<accel::AdtBuilder> adts;
    uint32_t ser_jobs = 0;
};

/// Parse @p wire with all four engines of @p rig; EXPECT agreement and
/// byte-identical re-serialization across engines. Returns the table
/// engine's output (empty when the wire was rejected).
std::vector<uint8_t>
QuadRoundTrip(VersionRig *rig, const std::vector<uint8_t> &wire,
              const std::string &ctx)
{
    const DescriptorPool &pool = *rig->np.pool;
    const int root = rig->np.root;
    proto::Arena arena;

    Message ref_dest = Message::Create(&arena, pool, root);
    Message tab_dest = Message::Create(&arena, pool, root);
    Message gen_dest = Message::Create(&arena, pool, root);
    Message acc_dest = Message::Create(&arena, pool, root);

    const StatusCode ref_st = proto::ToStatusCode(
        proto::ReferenceParseFromBuffer(wire.data(), wire.size(),
                                        &ref_dest, nullptr, nullptr));
    const StatusCode tab_st = proto::ToStatusCode(proto::ParseFromBuffer(
        wire.data(), wire.size(), &tab_dest, nullptr, nullptr));
    const StatusCode gen_st = proto::ToStatusCode(
        proto::GeneratedParseFromBuffer(wire.data(), wire.size(),
                                        &gen_dest, nullptr, nullptr));
    rig->accel.EnqueueDeser(accel::MakeDeserJob(*rig->adts, root, pool,
                                                acc_dest.raw(),
                                                wire.data(),
                                                wire.size()));
    uint64_t cycles = 0;
    const StatusCode acc_st =
        accel::ToStatusCode(rig->accel.BlockForDeserCompletion(&cycles));

    EXPECT_EQ(StatusOk(ref_st), StatusOk(tab_st)) << ctx;
    EXPECT_EQ(StatusOk(tab_st), StatusOk(gen_st)) << ctx;
    EXPECT_EQ(StatusOk(tab_st), StatusOk(acc_st)) << ctx;
    if (!StatusOk(tab_st))
        return {};

    EXPECT_TRUE(MessagesEqual(ref_dest, tab_dest)) << ctx;
    EXPECT_TRUE(MessagesEqual(tab_dest, gen_dest)) << ctx;
    EXPECT_TRUE(MessagesEqual(tab_dest, acc_dest)) << ctx;

    const std::vector<uint8_t> ref_out =
        proto::ReferenceSerialize(ref_dest, nullptr);
    const std::vector<uint8_t> tab_out =
        proto::Serialize(tab_dest, nullptr);
    const std::vector<uint8_t> gen_out =
        proto::GeneratedSerialize(gen_dest, nullptr);
    rig->accel.EnqueueSer(
        accel::MakeSerJob(*rig->adts, root, pool, acc_dest.raw()));
    EXPECT_EQ(rig->accel.BlockForSerCompletion(&cycles),
              accel::AccelStatus::kOk)
        << ctx;
    const auto &acc_raw = rig->ser_arena.output(rig->ser_jobs++);
    const std::vector<uint8_t> acc_out(acc_raw.data,
                                       acc_raw.data + acc_raw.size);

    EXPECT_EQ(ref_out, tab_out) << ctx;
    EXPECT_EQ(gen_out, tab_out) << ctx;
    EXPECT_EQ(acc_out, tab_out) << ctx;
    return tab_out;
}

TEST(SchemaSkew, CrossVersionQuadEngineDifferential)
{
    // Every ordered (encode, decode) version pair, ~2k wires total.
    // Round-trip byte identity versus the original wire holds for
    // every pair except v1 -> v2, where the widened count field
    // (int64 read as int32) may truncate the value: there the
    // contract is cross-engine agreement, not wire identity.
    constexpr int kSeedsPerPair = 220;
    for (int decode = 0; decode <= 2; ++decode) {
        VersionRig rig(decode);
        for (int encode = 0; encode <= 2; ++encode) {
            genpools::NamedPool enc = genpools::BuildSkewPool(encode);
            for (int seed = 0; seed < kSeedsPerPair; ++seed) {
                Rng rng(0x5EED0000u + 1000u * encode + 100000u * decode +
                        seed);
                proto::Arena arena;
                Message src =
                    Message::Create(&arena, *enc.pool, enc.root);
                proto::PopulateRandomMessage(src, &rng,
                                             proto::MessageGenOptions{});
                const std::vector<uint8_t> wire =
                    proto::Serialize(src, nullptr);

                const std::string ctx =
                    "encode v" + std::to_string(encode) + " decode v" +
                    std::to_string(decode) + " seed " +
                    std::to_string(seed);
                const std::vector<uint8_t> out =
                    QuadRoundTrip(&rig, wire, ctx);
                if (!(encode == 1 && decode == 2)) {
                    EXPECT_EQ(out, wire) << ctx;
                }
                rig.deser_arena.Reset();
            }
        }
    }
}

TEST(SchemaSkew, UnknownFieldsPreservedOnOlderDecoder)
{
    // A v_N payload through a v_{N-1} decoder: the added fields (6-9)
    // land in the unknown store and survive the round trip.
    VersionRig rig(0);
    genpools::NamedPool enc = genpools::BuildSkewPool(1);
    Rng rng(42);
    proto::Arena arena;
    Message src = Message::Create(&arena, *enc.pool, enc.root);
    proto::PopulateRandomMessage(src, &rng, proto::MessageGenOptions{});
    // Force the added fields present so the unknown path is exercised
    // regardless of the random draw.
    const auto &d = enc.pool->message(enc.root);
    src.SetUint32(*d.FindFieldByName("flags"), 0xabcd);
    src.SetString(*d.FindFieldByName("blob"), "opaque-bytes");
    const std::vector<uint8_t> wire = proto::Serialize(src, nullptr);

    Message dest = Message::Create(&arena, *rig.np.pool, rig.np.root);
    ASSERT_EQ(proto::ParseFromBuffer(wire.data(), wire.size(), &dest,
                                     nullptr, nullptr),
              proto::ParseStatus::kOk);
    const proto::UnknownFieldStore *u = dest.unknown_fields();
    ASSERT_NE(u, nullptr);
    EXPECT_GE(u->count(), 2u);  // at least flags + blob
    EXPECT_GT(u->total_bytes(), 0u);

    const std::vector<uint8_t> out = QuadRoundTrip(
        &rig, wire, "v1 wire through v0 decoders");
    EXPECT_EQ(out, wire);
}

TEST(SchemaSkew, WidenedFieldTruncationAgreesAcrossEngines)
{
    // v_N writes count as int64; v_{N+1} reads it as int32. The
    // truncation must be identical in all four engines (agreement, not
    // wire identity — the narrowing is lossy by design).
    VersionRig rig(2);
    genpools::NamedPool enc = genpools::BuildSkewPool(1);
    proto::Arena arena;
    Message src = Message::Create(&arena, *enc.pool, enc.root);
    const auto &d = enc.pool->message(enc.root);
    src.SetUint64(*d.FindFieldByName("id"), 7);
    src.SetInt64(*d.FindFieldByName("count"),
                 static_cast<int64_t>(0x1234567890abcdefLL));
    const std::vector<uint8_t> wire = proto::Serialize(src, nullptr);

    const std::vector<uint8_t> out =
        QuadRoundTrip(&rig, wire, "int64 count into int32 decoder");
    ASSERT_FALSE(out.empty());
}

/// Sink tallying the allocation/copy event stream (the cost contract
/// the three software engines must share for unknown preservation).
class TallySink : public proto::CostSink
{
  public:
    void OnAlloc(size_t bytes) override
    {
        ++allocs;
        alloc_bytes += bytes;
    }
    void OnMemcpy(size_t bytes) override
    {
        ++memcpys;
        memcpy_bytes += bytes;
    }
    uint64_t allocs = 0, alloc_bytes = 0;
    uint64_t memcpys = 0, memcpy_bytes = 0;

    bool
    operator==(const TallySink &o) const
    {
        return allocs == o.allocs && alloc_bytes == o.alloc_bytes &&
               memcpys == o.memcpys && memcpy_bytes == o.memcpy_bytes;
    }
};

TEST(SchemaSkew, UnknownPreservationCostParityAcrossSoftwareEngines)
{
    genpools::NamedPool dec = genpools::BuildSkewPool(0);
    genpools::NamedPool enc = genpools::BuildSkewPool(1);
    Rng rng(7);
    proto::Arena arena;
    Message src = Message::Create(&arena, *enc.pool, enc.root);
    proto::PopulateRandomMessage(src, &rng, proto::MessageGenOptions{});
    const auto &d = enc.pool->message(enc.root);
    src.SetString(*d.FindFieldByName("blob"), "0123456789abcdef");
    const std::vector<uint8_t> wire = proto::Serialize(src, nullptr);

    TallySink ref_sink, tab_sink, gen_sink;
    Message a = Message::Create(&arena, *dec.pool, dec.root);
    Message b = Message::Create(&arena, *dec.pool, dec.root);
    Message c = Message::Create(&arena, *dec.pool, dec.root);
    ASSERT_EQ(proto::ToStatusCode(proto::ReferenceParseFromBuffer(
                  wire.data(), wire.size(), &a, &ref_sink, nullptr)),
              StatusCode::kOk);
    ASSERT_EQ(proto::ParseFromBuffer(wire.data(), wire.size(), &b,
                                     &tab_sink, nullptr),
              proto::ParseStatus::kOk);
    ASSERT_EQ(proto::ToStatusCode(proto::GeneratedParseFromBuffer(
                  wire.data(), wire.size(), &c, &gen_sink, nullptr)),
              StatusCode::kOk);
    EXPECT_TRUE(ref_sink == tab_sink);
    EXPECT_TRUE(tab_sink == gen_sink);
    EXPECT_GT(tab_sink.allocs, 0u);
}

TEST(SchemaSkew, UnknownFieldBudgetExhaustionAgreesAcrossEngines)
{
    // Preserved unknown bytes charge the alloc budget in every engine:
    // a v1 wire with a large unknown blob into a v0 decoder under a
    // tiny budget must exhaust identically in all four.
    VersionRig rig(0);
    genpools::NamedPool enc = genpools::BuildSkewPool(1);
    proto::Arena arena;
    Message src = Message::Create(&arena, *enc.pool, enc.root);
    const auto &d = enc.pool->message(enc.root);
    src.SetString(*d.FindFieldByName("blob"), std::string(256, 'x'));
    const std::vector<uint8_t> wire = proto::Serialize(src, nullptr);

    ParseLimits limits;
    limits.max_alloc_bytes = 64;
    rig.accel.deserializer().SetLimits(limits);

    const DescriptorPool &pool = *rig.np.pool;
    Message m1 = Message::Create(&arena, pool, rig.np.root);
    Message m2 = Message::Create(&arena, pool, rig.np.root);
    Message m3 = Message::Create(&arena, pool, rig.np.root);
    Message m4 = Message::Create(&arena, pool, rig.np.root);
    EXPECT_EQ(proto::ToStatusCode(proto::ReferenceParseFromBuffer(
                  wire.data(), wire.size(), &m1, nullptr, &limits)),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(proto::ToStatusCode(proto::ParseFromBuffer(
                  wire.data(), wire.size(), &m2, nullptr, &limits)),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(proto::ToStatusCode(proto::GeneratedParseFromBuffer(
                  wire.data(), wire.size(), &m3, nullptr, &limits)),
              StatusCode::kResourceExhausted);
    rig.accel.EnqueueDeser(accel::MakeDeserJob(*rig.adts, rig.np.root,
                                               pool, m4.raw(),
                                               wire.data(),
                                               wire.size()));
    uint64_t cycles = 0;
    EXPECT_EQ(accel::ToStatusCode(
                  rig.accel.BlockForDeserCompletion(&cycles)),
              StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------
// Negotiation layer: registry, rejection, stamping, fallback counter
// ---------------------------------------------------------------------

TEST(SchemaSkew, SchemaRegistryTracksVersions)
{
    genpools::NamedPool v0 = genpools::BuildSkewPool(0);
    genpools::NamedPool v1 = genpools::BuildSkewPool(1);
    rpc::SchemaRegistry reg;
    const uint64_t fp0 = reg.Register(*v0.pool, "skew-v0");
    const uint64_t fp1 = reg.Register(*v1.pool, "skew-v1");
    EXPECT_NE(fp0, 0u);
    EXPECT_NE(fp1, 0u);
    EXPECT_NE(fp0, fp1);  // structural change => new fingerprint
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.Knows(fp0));
    EXPECT_TRUE(reg.Knows(fp1));
    EXPECT_FALSE(reg.Knows(fp0 ^ fp1));
    // Re-registering an identical structure is a no-op.
    EXPECT_EQ(reg.Register(*v0.pool, "skew-v0-again"), fp0);
    EXPECT_EQ(reg.size(), 2u);
    const auto *e = reg.Find(fp1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->label, "skew-v1");
    // Renderer: 0x + 16 hex digits.
    const std::string name = rpc::SchemaFingerprintName(fp0);
    EXPECT_EQ(name.size(), 18u);
    EXPECT_EQ(name.substr(0, 2), "0x");
}

class SchemaSkewNegotiationTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto parsed = proto::ParseSchema(R"(
            message Ping { optional uint32 x = 1; }
        )",
                                               &pool_);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        pool_.Compile(proto::HasbitsMode::kSparse);
        msg_ = pool_.FindMessage("Ping");
    }

    DescriptorPool pool_;
    int msg_ = -1;
};

TEST_F(SchemaSkewNegotiationTest, UnknownFingerprintIsFailedPrecondition)
{
    rpc::RpcServer server(&pool_,
                          std::make_unique<rpc::SoftwareBackend>(
                              cpu::BoomParams(), pool_));
    server.RegisterMethod(1, msg_, msg_,
                          [](const Message &, Message) {});
    rpc::SchemaRegistry reg;
    const uint64_t fp = reg.Register(pool_, "ping-v1");
    server.SetSchemaRegistry(&reg);
    server.set_schema_fingerprint(fp);

    rpc::RpcSession session(&pool_,
                            std::make_unique<rpc::SoftwareBackend>(
                                cpu::BoomParams(), pool_),
                            &server, rpc::SimulatedChannel{});
    proto::Arena arena;
    Message request = Message::Create(&arena, pool_, msg_);
    Message response = Message::Create(&arena, pool_, msg_);

    // A matching fingerprint negotiates cleanly.
    session.set_schema_fingerprint(fp);
    EXPECT_EQ(session.Call(1, request, &response), StatusCode::kOk);
    EXPECT_EQ(server.schema_rejects(), 0u);

    // A fingerprint the registry has never seen: structured rejection,
    // never a misparse. kFailedPrecondition is non-retryable.
    session.set_schema_fingerprint(fp ^ 0xdeadbeefULL);
    EXPECT_EQ(session.Call(1, request, &response),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(server.schema_rejects(), 1u);
    EXPECT_FALSE(StatusIsRetryable(StatusCode::kFailedPrecondition));

    // Fingerprint 0 is the legacy non-negotiating sender: accepted.
    session.set_schema_fingerprint(0);
    EXPECT_EQ(session.Call(1, request, &response), StatusCode::kOk);
    EXPECT_EQ(server.schema_rejects(), 1u);
}

TEST_F(SchemaSkewNegotiationTest, RepliesCarryServerFingerprint)
{
    rpc::RpcServer server(&pool_,
                          std::make_unique<rpc::SoftwareBackend>(
                              cpu::BoomParams(), pool_));
    server.RegisterMethod(1, msg_, msg_,
                          [](const Message &, Message) {});
    rpc::SchemaRegistry reg;
    const uint64_t fp = reg.Register(pool_, "ping-v1");
    server.SetSchemaRegistry(&reg);
    server.set_schema_fingerprint(fp);

    // Hand-built request frame so the raw reply header is observable.
    proto::Arena arena;
    Message request = Message::Create(&arena, pool_, msg_);
    const std::vector<uint8_t> body = proto::Serialize(request, nullptr);
    rpc::FrameBuffer wire, reply;
    rpc::FrameHeader h;
    h.kind = rpc::FrameKind::kRequest;
    h.method_id = 1;
    h.call_id = 9;
    h.payload_bytes = static_cast<uint32_t>(body.size());
    h.schema_fp = fp;
    wire.Append(h, body.data());
    size_t off = 0;
    const auto f = wire.Next(&off);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(server.HandleFrame(*f, &reply), StatusCode::kOk);
    size_t roff = 0;
    const auto r = reply.Next(&roff);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->header.schema_fp, fp);

    // The rejection error frame is stamped too, and its detail names
    // the offending fingerprint so operators can key dashboards on it.
    rpc::FrameBuffer wire2, reply2;
    h.schema_fp = 0x1111222233334444ULL;
    h.call_id = 10;
    wire2.Append(h, body.data());
    off = 0;
    const auto f2 = wire2.Next(&off);
    ASSERT_TRUE(f2.has_value());
    EXPECT_EQ(server.HandleFrame(*f2, &reply2),
              StatusCode::kFailedPrecondition);
    roff = 0;
    const auto r2 = reply2.Next(&roff);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->header.kind, rpc::FrameKind::kError);
    EXPECT_EQ(r2->header.status, StatusCode::kFailedPrecondition);
    EXPECT_EQ(r2->header.schema_fp, fp);
    const std::string detail(
        reinterpret_cast<const char *>(r2->payload),
        r2->header.payload_bytes);
    EXPECT_NE(detail.find("unknown schema fingerprint"),
              std::string::npos);
    EXPECT_NE(detail.find("0x1111222233334444"), std::string::npos);
}

TEST(SchemaSkew, GeneratedFallbackCounterObservesTierDowngrade)
{
    // A pool with no emitted codec behind a kGenerated backend: ops
    // serve on the table engine and every miss is counted.
    DescriptorPool pool;
    const auto parsed = proto::ParseSchema(R"(
        message NotEmitted { optional string s = 1; }
    )",
                                           &pool);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    pool.Compile(proto::HasbitsMode::kSparse);
    ASSERT_EQ(proto::GetGeneratedCodec(pool), nullptr);

    rpc::SoftwareBackend backend(
        cpu::BoomParams(), pool, proto::SoftwareCodecEngine::kGenerated);
    EXPECT_EQ(backend.fallback_counters().generated, 0u);

    proto::Arena arena;
    const int root = pool.FindMessage("NotEmitted");
    Message msg = Message::Create(&arena, pool, root);
    const auto &d = pool.message(root);
    msg.SetString(*d.FindFieldByName("s"), "hello");
    const std::vector<uint8_t> wire = backend.Serialize(msg);
    EXPECT_FALSE(wire.empty());
    EXPECT_EQ(backend.fallback_counters().generated, 1u);

    Message dest = Message::Create(&arena, pool, root);
    EXPECT_EQ(backend.Deserialize(wire.data(), wire.size(), &dest),
              StatusCode::kOk);
    EXPECT_EQ(backend.fallback_counters().generated, 2u);
    EXPECT_TRUE(MessagesEqual(msg, dest));

    // A pool WITH an emitted codec never increments the counter.
    genpools::NamedPool v1 = genpools::BuildSkewPool(1);
    ASSERT_NE(proto::GetGeneratedCodec(*v1.pool), nullptr);
    rpc::SoftwareBackend gen_backend(
        cpu::BoomParams(), *v1.pool,
        proto::SoftwareCodecEngine::kGenerated);
    Message m2 = Message::Create(&arena, *v1.pool, v1.root);
    (void)gen_backend.Serialize(m2);
    EXPECT_EQ(gen_backend.fallback_counters().generated, 0u);
}

}  // namespace
}  // namespace protoacc
