/**
 * The codec seam's cost contract, checked on every stock backend.
 *
 * The serving runtime sizes a response with SerializedSize and writes
 * it with SerializeTo; clients and self-tests call Serialize. The seam
 * promises that these agree: Serialize yields the bytes and charges the
 * cycles of SerializedSize + SerializeTo, and SerializedSize itself
 * charges nothing (SerializeTo prices its own sizing pass). It also
 * promises that a generated engine serving a pool without an emitted
 * codec counts every op it downgrades, and only real ops.
 */
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen_pools.h"
#include "proto/codec_generated.h"
#include "proto/schema_parser.h"
#include "proto/schema_random.h"
#include "rpc/codec_backend.h"

namespace protoacc::rpc {
namespace {

using proto::Arena;
using proto::DescriptorPool;
using proto::Message;
using proto::SoftwareCodecEngine;

using Factory =
    std::function<std::unique_ptr<CodecBackend>(const DescriptorPool &)>;

struct Config
{
    std::string name;
    Factory make;
};

std::unique_ptr<CodecBackend>
Hybrid(const DescriptorPool &pool, bool force_software)
{
    auto hybrid = std::make_unique<HybridCodecBackend>(
        std::make_unique<AcceleratedBackend>(pool),
        std::make_unique<SoftwareBackend>(cpu::BoomParams(), pool,
                                          SoftwareCodecEngine::kGenerated));
    hybrid->SetForceSoftware(force_software);
    return hybrid;
}

std::vector<Config>
Configs()
{
    return {
        {"software_table",
         [](const DescriptorPool &pool) -> std::unique_ptr<CodecBackend> {
             return std::make_unique<SoftwareBackend>(cpu::BoomParams(),
                                                      pool);
         }},
        {"software_generated",
         [](const DescriptorPool &pool) -> std::unique_ptr<CodecBackend> {
             return std::make_unique<SoftwareBackend>(
                 cpu::BoomParams(), pool, SoftwareCodecEngine::kGenerated);
         }},
        {"accelerated",
         [](const DescriptorPool &pool) -> std::unique_ptr<CodecBackend> {
             return std::make_unique<AcceleratedBackend>(pool);
         }},
        {"hybrid_device",
         [](const DescriptorPool &pool) { return Hybrid(pool, false); }},
        {"hybrid_forced_software",
         [](const DescriptorPool &pool) { return Hybrid(pool, true); }},
    };
}

/// Return the device behind @p backend (if any) to its just-built state,
/// so two serializations of one message start from the same device
/// state: the device model prices cache and buffer warmth.
void
ScrubDevice(CodecBackend *backend)
{
    if (AcceleratedBackend *device = backend->accel_engine())
        device->ScrubDeviceState();
}

class CodecBackendContractTest : public ::testing::TestWithParam<Config>
{
  protected:
    void
    SetUp() override
    {
        np_ = genpools::BuildSkewPool(1);
        ASSERT_NE(proto::GetGeneratedCodec(*np_.pool), nullptr);
    }

    /// An empty message plus randomly populated ones.
    std::vector<Message>
    Messages(Arena *arena) const
    {
        std::vector<Message> out;
        out.push_back(Message::Create(arena, *np_.pool, np_.root));
        for (uint64_t seed = 1; seed <= 4; ++seed) {
            Rng rng(seed);
            Message msg = Message::Create(arena, *np_.pool, np_.root);
            proto::PopulateRandomMessage(msg, &rng,
                                         proto::MessageGenOptions{});
            out.push_back(msg);
        }
        return out;
    }

    genpools::NamedPool np_;
};

TEST_P(CodecBackendContractTest, SerializeCostsSizePlusSerializeTo)
{
    const std::unique_ptr<CodecBackend> backend =
        GetParam().make(*np_.pool);
    Arena arena;
    for (const Message &msg : Messages(&arena)) {
        ScrubDevice(backend.get());
        double before = backend->codec_cycles();
        const std::vector<uint8_t> whole = backend->Serialize(msg);
        const double serialize_cycles = backend->codec_cycles() - before;
        ASSERT_TRUE(StatusOk(backend->last_status()));

        ScrubDevice(backend.get());
        before = backend->codec_cycles();
        const size_t size = backend->SerializedSize(msg);
        EXPECT_EQ(backend->codec_cycles(), before)
            << "SerializedSize must charge no cycles";
        std::vector<uint8_t> buf(size);
        const size_t written = backend->SerializeTo(msg, buf.data(), size);
        const double split_cycles = backend->codec_cycles() - before;

        EXPECT_EQ(written, size);
        EXPECT_EQ(whole, buf);
        // Equal up to the rounding of the running cycle total the two
        // deltas are taken from; the cheapest cost event is ~0.3 cycles.
        EXPECT_NEAR(serialize_cycles, split_cycles, 1e-6);
        EXPECT_GT(split_cycles, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, CodecBackendContractTest, ::testing::ValuesIn(Configs()),
    [](const ::testing::TestParamInfo<Config> &info) {
        return info.param.name;
    });

class GeneratedFallbackTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto parsed = proto::ParseSchema(R"(
            message NotEmitted { optional string s = 1; }
        )",
                                               &pool_);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        pool_.Compile(proto::HasbitsMode::kSparse);
        ASSERT_EQ(proto::GetGeneratedCodec(pool_), nullptr);
        root_ = pool_.FindMessage("NotEmitted");
    }

    /// Run each op once on @p backend, checking after each that the
    /// generated-fallback count moved by exactly what the op costs: one
    /// per codec op that runs an engine, none for SerializedSize.
    void
    ExpectOneFallbackPerOp(CodecBackend *backend)
    {
        const auto generated = [backend] {
            return backend->fallback_counters().generated;
        };
        Arena arena;
        Message msg = Message::Create(&arena, pool_, root_);
        msg.SetString(*pool_.message(root_).FindFieldByName("s"), "hi");

        EXPECT_EQ(generated(), 0u);
        const size_t size = backend->SerializedSize(msg);
        EXPECT_EQ(generated(), 0u);
        std::vector<uint8_t> buf(size);
        EXPECT_EQ(backend->SerializeTo(msg, buf.data(), size), size);
        EXPECT_EQ(generated(), 1u);
        EXPECT_EQ(backend->Serialize(msg), buf);
        EXPECT_EQ(generated(), 2u);
        Message dest = Message::Create(&arena, pool_, root_);
        EXPECT_EQ(backend->Deserialize(buf.data(), buf.size(), &dest),
                  StatusCode::kOk);
        EXPECT_EQ(generated(), 3u);
    }

    DescriptorPool pool_;
    int root_ = -1;
};

TEST_F(GeneratedFallbackTest, SoftwareBackendCountsEachDowngradedOp)
{
    SoftwareBackend backend(cpu::BoomParams(), pool_,
                            SoftwareCodecEngine::kGenerated);
    ExpectOneFallbackPerOp(&backend);
}

TEST_F(GeneratedFallbackTest, HybridSurfacesItsSoftwareHalfsDowngrades)
{
    const std::unique_ptr<CodecBackend> hybrid = Hybrid(pool_, true);
    ExpectOneFallbackPerOp(hybrid.get());
    // Every op that reached the software half was a forced fallback;
    // SerializedSize reaches no engine.
    EXPECT_EQ(hybrid->fallback_counters().forced, 3u);
}

}  // namespace
}  // namespace protoacc::rpc
