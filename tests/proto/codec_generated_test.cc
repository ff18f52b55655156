/**
 * Generated-codec tier tests: registry/fingerprint behavior, byte-level
 * wire parity with the reference engine, cost-event parity with the
 * table engine, and the generator's edge cases — recursion at the depth
 * limit, proto3 UTF-8 validation, empty messages (pure unknown-field
 * skipping), and the 10-byte varint overflow path. The HyperProtoBench
 * codecs, which cover only their workload's type and what it reaches,
 * are checked for that coverage, for parity on every workload message,
 * and for the contract on the types they leave out.
 *
 * The build links codecs for every pool recipe in tools/gen_pools and
 * every HyperProtoBench workload (pa_gen_codecs), so coverage is
 * asserted, never skipped.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gen_pools.h"
#include "hpb/generator.h"
#include "proto/codec_generated.h"
#include "proto/codec_reference.h"
#include "proto/parser.h"
#include "proto/schema_random.h"
#include "proto/serializer.h"
#include "proto/software_codec.h"
#include "proto/wire_format.h"
#include "rpc/codec_backend.h"

namespace protoacc::proto {
namespace {

using genpools::BuildAuxSuite;
using genpools::BuildEmptyPool;
using genpools::BuildKitchenSinkPool;
using genpools::BuildMicroVarintPool;
using genpools::BuildRecursivePool;
using genpools::BuildUtf8Pool;
using genpools::NamedPool;

// -------------------------------------------------------------------
// Registry and fingerprints.
// -------------------------------------------------------------------

TEST(GeneratedCodecRegistry, EveryAuxPoolHasALinkedCodec)
{
    ASSERT_GT(GeneratedCodecCount(), 0u);
    for (const NamedPool &np : BuildAuxSuite()) {
        const GeneratedPoolCodec *codec = GetGeneratedCodec(*np.pool);
        ASSERT_NE(codec, nullptr) << "no codec for pool " << np.name;
        EXPECT_EQ(codec->fingerprint, SchemaFingerprint(*np.pool))
            << np.name;
        EXPECT_EQ(codec->message_count, np.pool->message_count())
            << np.name;
        EXPECT_EQ(std::string(codec->coverage),
                  std::string(np.pool->message_count(), '1'))
            << np.name;
    }
}

TEST(GeneratedCodecRegistry, FingerprintDiscriminatesSchemas)
{
    const NamedPool a = BuildRecursivePool();
    const NamedPool b = BuildUtf8Pool();
    EXPECT_NE(SchemaFingerprint(*a.pool), SchemaFingerprint(*b.pool));

    // A structurally identical rebuild fingerprints identically.
    const NamedPool a2 = BuildRecursivePool();
    EXPECT_EQ(SchemaFingerprint(*a.pool), SchemaFingerprint(*a2.pool));
}

TEST(GeneratedCodecRegistry, UncoveredPoolResolvesToNull)
{
    // A schema no suite generates (seed far outside every recipe).
    DescriptorPool pool;
    protoacc::Rng rng(0xABCDEF987654ull);
    SchemaGenOptions opts;
    GenerateRandomSchema(&pool, &rng, opts);
    pool.Compile(HasbitsMode::kSparse);
    EXPECT_EQ(GetGeneratedCodec(pool), nullptr);
    // The resolution is cached either way.
    EXPECT_EQ(GetGeneratedCodec(pool), nullptr);
}

// -------------------------------------------------------------------
// Byte-level parity with the reference engine across the whole suite.
// -------------------------------------------------------------------

TEST(GeneratedCodecParity, WireBytesIdenticalToReference)
{
    for (const NamedPool &np : BuildAuxSuite()) {
        protoacc::Rng rng(0xC0DEC + np.root);
        for (int trial = 0; trial < 3; ++trial) {
            Arena arena;
            Message msg = Message::Create(&arena, *np.pool, np.root);
            PopulateRandomMessage(msg, &rng, MessageGenOptions{});

            const std::vector<uint8_t> ref = ReferenceSerialize(msg);
            const std::vector<uint8_t> gen = GeneratedSerialize(msg);
            ASSERT_EQ(ref, gen) << np.name << " trial " << trial;
            EXPECT_EQ(GeneratedByteSize(msg), ref.size())
                << np.name << " trial " << trial;

            // Parse the wire back with the generated engine and
            // re-serialize: still byte-identical (field values, hasbits
            // and repeated contents all survived).
            Arena arena2;
            Message back = Message::Create(&arena2, *np.pool, np.root);
            ASSERT_EQ(GeneratedParseFromBuffer(ref.data(), ref.size(),
                                               &back),
                      ParseStatus::kOk)
                << np.name << " trial " << trial;
            EXPECT_EQ(GeneratedSerialize(back), ref)
                << np.name << " trial " << trial;
        }
    }
}

// -------------------------------------------------------------------
// Cost-event parity with the table engine: the generated tier must
// price identically under the CPU cost model, so every sink event
// (count and byte argument) must match the interpreter's stream.
// -------------------------------------------------------------------

class TallySink : public CostSink
{
  public:
    void OnTagDecode(int b) override { Add("tag_decode", b); }
    void OnTagEncode(int b) override { Add("tag_encode", b); }
    void OnVarintDecode(int b) override { Add("varint_decode", b); }
    void OnVarintEncode(int b) override { Add("varint_encode", b); }
    void OnFixedCopy(int b) override { Add("fixed_copy", b); }
    void OnMemcpy(size_t b) override
    {
        Add("memcpy", static_cast<int64_t>(b));
    }
    void OnAlloc(size_t b) override
    {
        Add("alloc", static_cast<int64_t>(b));
    }
    void OnFieldDispatch() override { Add("field_dispatch", 0); }
    void OnMessageBegin() override { Add("message_begin", 0); }
    void OnMessageEnd() override { Add("message_end", 0); }
    void OnByteSizeField() override { Add("bytesize_field", 0); }
    void OnByteSizeMessage() override { Add("bytesize_message", 0); }
    void OnHasbitsAccess(int w) override { Add("hasbits", w); }

    bool
    operator==(const TallySink &other) const
    {
        return tallies_ == other.tallies_;
    }

    std::string
    ToString() const
    {
        std::string out;
        for (const auto &[key, val] : tallies_)
            out += key + "=" + std::to_string(val.first) + "/" +
                   std::to_string(val.second) + " ";
        return out;
    }

  private:
    void
    Add(const char *key, int64_t arg)
    {
        auto &slot = tallies_[key];
        slot.first += 1;
        slot.second += arg;
    }

    // hook -> (event count, summed byte argument)
    std::map<std::string, std::pair<uint64_t, int64_t>> tallies_;
};

TEST(GeneratedCodecParity, CostEventStreamMatchesTableEngine)
{
    for (const NamedPool &np : BuildAuxSuite()) {
        protoacc::Rng rng(0x5EED + np.root);
        Arena arena;
        Message msg = Message::Create(&arena, *np.pool, np.root);
        PopulateRandomMessage(msg, &rng, MessageGenOptions{});
        const std::vector<uint8_t> wire = Serialize(msg);

        // Parse pass.
        {
            TallySink table_sink, gen_sink;
            Arena a1, a2;
            Message m1 = Message::Create(&a1, *np.pool, np.root);
            Message m2 = Message::Create(&a2, *np.pool, np.root);
            ASSERT_EQ(ParseFromBuffer(wire.data(), wire.size(), &m1,
                                      &table_sink),
                      ParseStatus::kOk)
                << np.name;
            ASSERT_EQ(GeneratedParseFromBuffer(wire.data(), wire.size(),
                                               &m2, &gen_sink),
                      ParseStatus::kOk)
                << np.name;
            EXPECT_TRUE(table_sink == gen_sink)
                << np.name << "\n  table: " << table_sink.ToString()
                << "\n  gen:   " << gen_sink.ToString();
        }

        // Serialize pass (sizing + write, same call shape both sides).
        {
            TallySink table_sink, gen_sink;
            const std::vector<uint8_t> a = Serialize(msg, &table_sink);
            const std::vector<uint8_t> b =
                GeneratedSerialize(msg, &gen_sink);
            ASSERT_EQ(a, b) << np.name;
            EXPECT_TRUE(table_sink == gen_sink)
                << np.name << "\n  table: " << table_sink.ToString()
                << "\n  gen:   " << gen_sink.ToString();
        }
    }
}

// -------------------------------------------------------------------
// Recursive schemas at the depth limit.
// -------------------------------------------------------------------

// A wire encoding `depth` nested `child` sub-messages of Node.
std::vector<uint8_t>
NestedNodeWire(int depth)
{
    std::vector<uint8_t> wire;
    for (int i = 0; i < depth; ++i) {
        std::vector<uint8_t> wrapped;
        wrapped.push_back(0x12);  // field 2 (child), wire type 2
        uint8_t len[kMaxVarintBytes];
        const int n = EncodeVarint(wire.size(), len);
        wrapped.insert(wrapped.end(), len, len + n);
        wrapped.insert(wrapped.end(), wire.begin(), wire.end());
        wire = std::move(wrapped);
    }
    return wire;
}

TEST(GeneratedCodecEdge, RecursionDepthLimitMatchesTableEngine)
{
    const NamedPool np = BuildRecursivePool();
    ASSERT_NE(GetGeneratedCodec(*np.pool), nullptr);

    struct Case
    {
        int depth;
        const ParseLimits *limits;
    };
    ParseLimits six;
    six.max_depth = 6;
    const Case cases[] = {
        {kMaxParseDepth, nullptr},      // deepest accepted nest
        {kMaxParseDepth + 1, nullptr},  // first rejected nest
        {kMaxParseDepth + 37, nullptr},
        {6, &six},
        {7, &six},
    };
    for (const Case &c : cases) {
        const std::vector<uint8_t> wire = NestedNodeWire(c.depth);
        Arena a1, a2;
        Message m1 = Message::Create(&a1, *np.pool, np.root);
        Message m2 = Message::Create(&a2, *np.pool, np.root);
        const ParseStatus table = ParseFromBuffer(
            wire.data(), wire.size(), &m1, nullptr, c.limits);
        const ParseStatus gen = GeneratedParseFromBuffer(
            wire.data(), wire.size(), &m2, nullptr, c.limits);
        EXPECT_EQ(table, gen) << "depth " << c.depth;
        const int bound = c.limits != nullptr
                              ? static_cast<int>(c.limits->max_depth)
                              : kMaxParseDepth;
        EXPECT_EQ(table == ParseStatus::kOk, c.depth <= bound)
            << "depth " << c.depth;
        if (table != ParseStatus::kOk) {
            EXPECT_EQ(gen, ParseStatus::kDepthExceeded)
                << "depth " << c.depth;
        }
    }
}

// -------------------------------------------------------------------
// proto3 UTF-8 validation.
// -------------------------------------------------------------------

TEST(GeneratedCodecEdge, Proto3Utf8ValidationMatchesTableEngine)
{
    const NamedPool np = BuildUtf8Pool();
    ASSERT_NE(GetGeneratedCodec(*np.pool), nullptr);

    struct Case
    {
        const char *label;
        std::vector<uint8_t> wire;
        ParseStatus want;
    };
    const Case cases[] = {
        // s = "é" (valid two-byte sequence) on string field 1.
        {"valid-2byte", {0x0A, 0x02, 0xC3, 0xA9}, ParseStatus::kOk},
        // s = lone continuation byte: malformed.
        {"bare-continuation",
         {0x0A, 0x01, 0xBF},
         ParseStatus::kInvalidUtf8},
        // s = overlong encoding of '/': malformed.
        {"overlong",
         {0x0A, 0x02, 0xC0, 0xAF},
         ParseStatus::kInvalidUtf8},
        // s = truncated 3-byte sequence: malformed.
        {"truncated-seq",
         {0x0A, 0x02, 0xE2, 0x82},
         ParseStatus::kInvalidUtf8},
        // b = same bad bytes on the bytes field 2: no validation.
        {"bytes-not-validated",
         {0x12, 0x02, 0xC0, 0xAF},
         ParseStatus::kOk},
        // r (repeated string, field 3): second element malformed.
        {"repeated-second-element",
         {0x1A, 0x02, 0xC3, 0xA9, 0x1A, 0x01, 0xFF},
         ParseStatus::kInvalidUtf8},
    };
    for (const Case &c : cases) {
        Arena a1, a2;
        Message m1 = Message::Create(&a1, *np.pool, np.root);
        Message m2 = Message::Create(&a2, *np.pool, np.root);
        const ParseStatus table =
            ParseFromBuffer(c.wire.data(), c.wire.size(), &m1);
        const ParseStatus gen = GeneratedParseFromBuffer(
            c.wire.data(), c.wire.size(), &m2);
        EXPECT_EQ(table, c.want) << c.label;
        EXPECT_EQ(gen, c.want) << c.label;
    }
}

// -------------------------------------------------------------------
// Empty messages: everything is an unknown field.
// -------------------------------------------------------------------

TEST(GeneratedCodecEdge, EmptyMessageSkipsUnknownFieldsLikeTable)
{
    const NamedPool np = BuildEmptyPool();
    ASSERT_NE(GetGeneratedCodec(*np.pool), nullptr);

    struct Case
    {
        const char *label;
        std::vector<uint8_t> wire;
        bool ok;
    };
    const Case cases[] = {
        {"empty-buffer", {}, true},
        {"unknown-varint", {0x08, 0x05}, true},
        {"unknown-lendelim", {0x12, 0x03, 'a', 'b', 'c'}, true},
        {"unknown-fixed32", {0x1D, 1, 2, 3, 4}, true},
        {"unknown-fixed64", {0x11, 1, 2, 3, 4, 5, 6, 7, 8}, true},
        {"unknown-truncated-payload", {0x12, 0x05, 'a'}, false},
        {"group-wire-type", {0x0B}, false},
        {"field-number-zero", {0x00}, false},
    };
    for (const Case &c : cases) {
        Arena a1, a2;
        Message m1 = Message::Create(&a1, *np.pool, np.root);
        Message m2 = Message::Create(&a2, *np.pool, np.root);
        const ParseStatus table =
            ParseFromBuffer(c.wire.data(), c.wire.size(), &m1);
        const ParseStatus gen = GeneratedParseFromBuffer(
            c.wire.data(), c.wire.size(), &m2);
        EXPECT_EQ(table, gen) << c.label;
        EXPECT_EQ(table == ParseStatus::kOk, c.ok) << c.label;
    }

    // An empty message serializes to zero bytes in both engines.
    Arena arena;
    Message msg = Message::Create(&arena, *np.pool, np.root);
    EXPECT_EQ(GeneratedByteSize(msg), 0u);
    EXPECT_TRUE(GeneratedSerialize(msg).empty());
}

// -------------------------------------------------------------------
// The 10-byte varint overflow path.
// -------------------------------------------------------------------

TEST(GeneratedCodecEdge, VarintOverflowAndMaxValueMatchTableEngine)
{
    const NamedPool np = BuildMicroVarintPool(false);
    ASSERT_NE(GetGeneratedCodec(*np.pool), nullptr);

    // UINT64_MAX is exactly the largest legal 10-byte varint; both
    // engines must accept it and round-trip the value.
    {
        Arena arena;
        Message msg = Message::Create(&arena, *np.pool, np.root);
        const auto *f =
            np.pool->message(np.root).FindFieldByName("v1");
        ASSERT_NE(f, nullptr);
        msg.SetUint64(*f, UINT64_MAX);
        const std::vector<uint8_t> ref = ReferenceSerialize(msg);
        EXPECT_EQ(GeneratedSerialize(msg), ref);
        ASSERT_EQ(ref.size(), 11u);  // 1 tag byte + 10 varint bytes

        Arena a2;
        Message back = Message::Create(&a2, *np.pool, np.root);
        ASSERT_EQ(GeneratedParseFromBuffer(ref.data(), ref.size(),
                                           &back),
                  ParseStatus::kOk);
        EXPECT_EQ(back.GetUint64(*f), UINT64_MAX);
    }

    struct Case
    {
        const char *label;
        std::vector<uint8_t> wire;
    };
    const Case cases[] = {
        // 10th byte carries bits above bit 63: overflow.
        {"overflow-bit64",
         {0x08, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
          0x02}},
        // 10 continuation bytes: varint never terminates in bounds.
        {"eleven-bytes",
         {0x08, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
          0xFF, 0x01}},
        // Truncated mid-varint.
        {"truncated", {0x08, 0xFF, 0xFF}},
    };
    for (const Case &c : cases) {
        Arena a1, a2;
        Message m1 = Message::Create(&a1, *np.pool, np.root);
        Message m2 = Message::Create(&a2, *np.pool, np.root);
        const ParseStatus table =
            ParseFromBuffer(c.wire.data(), c.wire.size(), &m1);
        const ParseStatus gen = GeneratedParseFromBuffer(
            c.wire.data(), c.wire.size(), &m2);
        EXPECT_NE(table, ParseStatus::kOk) << c.label;
        EXPECT_EQ(table, gen) << c.label;
    }
}

// -------------------------------------------------------------------
// Resource limits bind identically.
// -------------------------------------------------------------------

TEST(GeneratedCodecEdge, AllocBudgetVerdictsMatchTableEngine)
{
    const NamedPool np = BuildKitchenSinkPool();
    ASSERT_NE(GetGeneratedCodec(*np.pool), nullptr);

    protoacc::Rng rng(1234);
    Arena arena;
    Message msg = Message::Create(&arena, *np.pool, np.root);
    PopulateRandomMessage(msg, &rng, MessageGenOptions{});
    const std::vector<uint8_t> wire = Serialize(msg);
    ASSERT_FALSE(wire.empty());

    bool exhausted_seen = false;
    for (const size_t budget : {16u, 64u, 256u, 1024u, 65536u}) {
        ParseLimits limits;
        limits.max_alloc_bytes = budget;
        Arena a1, a2;
        Message m1 = Message::Create(&a1, *np.pool, np.root);
        Message m2 = Message::Create(&a2, *np.pool, np.root);
        const ParseStatus table = ParseFromBuffer(
            wire.data(), wire.size(), &m1, nullptr, &limits);
        const ParseStatus gen = GeneratedParseFromBuffer(
            wire.data(), wire.size(), &m2, nullptr, &limits);
        EXPECT_EQ(table, gen) << "budget " << budget;
        exhausted_seen |= table == ParseStatus::kResourceExhausted;
    }
    EXPECT_TRUE(exhausted_seen);
}

// -------------------------------------------------------------------
// HyperProtoBench codecs: emitted for each workload's message type and
// the types it reaches, and for nothing else in the pool.
// -------------------------------------------------------------------

const std::vector<hpb::HpbBenchmark> &
HpbSuite()
{
    static const auto *suite = [] {
        profile::Fleet fleet{profile::FleetParams{}};
        return new std::vector<hpb::HpbBenchmark>(
            hpb::BuildHyperProtoBench(fleet));
    }();
    return *suite;
}

/// '1' per type reachable from @p root through message-typed fields,
/// walked over the descriptors (the generator walks its codec tables).
std::string
ReachableFrom(const DescriptorPool &pool, int root)
{
    std::string reach(pool.message_count(), '0');
    std::vector<int> todo{root};
    while (!todo.empty()) {
        const int k = todo.back();
        todo.pop_back();
        if (reach[static_cast<size_t>(k)] == '1')
            continue;
        reach[static_cast<size_t>(k)] = '1';
        for (const FieldDescriptor &fd : pool.message(k).fields()) {
            if (fd.type == FieldType::kMessage)
                todo.push_back(fd.message_type);
        }
    }
    return reach;
}

/// A type of @p w's pool that its codec has no code for.
int
UncoveredType(const harness::Workload &w)
{
    const GeneratedPoolCodec *codec = GetGeneratedCodec(*w.pool);
    for (int k = 0; k < codec->message_count; ++k) {
        if (!codec->covers(k))
            return k;
    }
    return -1;
}

TEST(GeneratedCodecHpb, CoversExactlyTheWorkloadClosure)
{
    const size_t want[] = {45, 29, 1, 94, 196, 40};
    ASSERT_EQ(HpbSuite().size(), std::size(want));
    for (size_t b = 0; b < HpbSuite().size(); ++b) {
        const hpb::HpbBenchmark &bench = HpbSuite()[b];
        const harness::Workload &w = bench.workload;
        const GeneratedPoolCodec *codec = GetGeneratedCodec(*w.pool);
        ASSERT_NE(codec, nullptr) << bench.name;
        EXPECT_EQ(codec->message_count, w.pool->message_count())
            << bench.name;
        const std::string reach = ReachableFrom(*w.pool, w.msg_index);
        EXPECT_EQ(std::string(codec->coverage), reach) << bench.name;
        EXPECT_EQ(std::count(reach.begin(), reach.end(), '1'),
                  static_cast<std::ptrdiff_t>(want[b]))
            << bench.name;
        EXPECT_TRUE(codec->covers(w.msg_index)) << bench.name;
        EXPECT_FALSE(codec->covers(-1)) << bench.name;
        EXPECT_FALSE(codec->covers(codec->message_count)) << bench.name;
    }
}

TEST(GeneratedCodecHpb, EveryWorkloadMessageMatchesTableEngine)
{
    for (const hpb::HpbBenchmark &bench : HpbSuite()) {
        const harness::Workload &w = bench.workload;
        ASSERT_FALSE(w.messages.empty()) << bench.name;
        ASSERT_EQ(w.messages.size(), w.wires.size()) << bench.name;
        // With a sink and without one: the two instantiations of every
        // emitted template.
        for (const bool with_sink : {false, true}) {
            for (size_t i = 0; i < w.messages.size(); ++i) {
                const std::string ctx = bench.name + " message " +
                                        std::to_string(i) +
                                        (with_sink ? " sink" : "");
                TallySink table_sink, gen_sink;
                CostSink *ts = with_sink ? &table_sink : nullptr;
                CostSink *gs = with_sink ? &gen_sink : nullptr;

                const Message &m = w.messages[i];
                EXPECT_EQ(GeneratedByteSize(m, gs), ByteSize(m, ts)) << ctx;
                const std::vector<uint8_t> ser = Serialize(m, ts);
                EXPECT_EQ(GeneratedSerialize(m, gs), ser) << ctx;
                std::vector<uint8_t> tbuf(ser.size()), gbuf(ser.size());
                EXPECT_EQ(SerializeToBuffer(m, tbuf.data(), tbuf.size(), ts),
                          ser.size())
                    << ctx;
                EXPECT_EQ(GeneratedSerializeToBuffer(m, gbuf.data(),
                                                     gbuf.size(), gs),
                          ser.size())
                    << ctx;
                EXPECT_EQ(gbuf, tbuf) << ctx;

                const std::vector<uint8_t> &wire = w.wires[i];
                Arena a1, a2;
                Message m1 = Message::Create(&a1, *w.pool, w.msg_index);
                Message m2 = Message::Create(&a2, *w.pool, w.msg_index);
                const ParseStatus table =
                    ParseFromBuffer(wire.data(), wire.size(), &m1, ts);
                ASSERT_EQ(GeneratedParseFromBuffer(wire.data(), wire.size(),
                                                   &m2, gs),
                          table)
                    << ctx;
                ASSERT_EQ(table, ParseStatus::kOk) << ctx;
                EXPECT_EQ(Serialize(m2), Serialize(m1)) << ctx;
                EXPECT_TRUE(table_sink == gen_sink)
                    << ctx << "\n  table: " << table_sink.ToString()
                    << "\n  gen:   " << gen_sink.ToString();

                // A truncated wire: the same reject, after the same
                // events.
                TallySink table_cut, gen_cut;
                Arena a3, a4;
                Message m3 = Message::Create(&a3, *w.pool, w.msg_index);
                Message m4 = Message::Create(&a4, *w.pool, w.msg_index);
                const size_t cut = wire.size() / 2;
                EXPECT_EQ(GeneratedParseFromBuffer(
                              wire.data(), cut, &m4,
                              with_sink ? &gen_cut : nullptr),
                          ParseFromBuffer(wire.data(), cut, &m3,
                                          with_sink ? &table_cut : nullptr))
                    << ctx;
                EXPECT_TRUE(table_cut == gen_cut) << ctx;
            }
        }
    }
}

TEST(GeneratedCodecHpb, PoolResolvesToTableEngineAndCountsFallbacks)
{
    const harness::Workload &w = HpbSuite().front().workload;
    EXPECT_EQ(ResolveSoftwareCodec(SoftwareCodecEngine::kGenerated, *w.pool)
                  .engine,
              SoftwareCodecEngine::kTable);
    EXPECT_EQ(ResolveSoftwareCodec(SoftwareCodecEngine::kGenerated, *w.pool,
                                   w.msg_index)
                  .engine,
              SoftwareCodecEngine::kGenerated);
    EXPECT_EQ(ResolveSoftwareCodec(SoftwareCodecEngine::kGenerated, *w.pool,
                                   UncoveredType(w))
                  .engine,
              SoftwareCodecEngine::kTable);

    // A backend serving the whole pool runs the table engine and counts
    // one generated fallback per op that runs an engine.
    rpc::SoftwareBackend backend(cpu::BoomParams(), *w.pool,
                                 SoftwareCodecEngine::kGenerated);
    const auto generated = [&backend] {
        return backend.fallback_counters().generated;
    };
    const Message &msg = w.messages.front();
    const size_t size = backend.SerializedSize(msg);
    EXPECT_EQ(generated(), 0u);
    std::vector<uint8_t> buf(size);
    EXPECT_EQ(backend.SerializeTo(msg, buf.data(), size), size);
    EXPECT_EQ(generated(), 1u);
    EXPECT_EQ(backend.Serialize(msg), buf);
    EXPECT_EQ(generated(), 2u);
    Arena arena;
    Message dest = Message::Create(&arena, *w.pool, w.msg_index);
    EXPECT_EQ(backend.Deserialize(buf.data(), buf.size(), &dest),
              StatusCode::kOk);
    EXPECT_EQ(generated(), 3u);
}

TEST(GeneratedCodecDeathTest, UncoveredTypeFailsTheDispatchCheck)
{
    const harness::Workload &w = HpbSuite().front().workload;
    const int k = UncoveredType(w);
    ASSERT_GE(k, 0);
    Arena arena;
    Message msg = Message::Create(&arena, *w.pool, k);
    const uint8_t wire[1] = {};
    EXPECT_DEATH(GeneratedParseFromBuffer(wire, 0, &msg),
                 "PA_CHECK failed");
    EXPECT_DEATH(GeneratedByteSize(msg), "PA_CHECK failed");
    EXPECT_DEATH(GeneratedSerialize(msg), "PA_CHECK failed");
}

}  // namespace
}  // namespace protoacc::proto
