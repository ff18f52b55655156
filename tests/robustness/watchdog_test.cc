/**
 * Accelerator watchdog: a permanently wedged FSM (injected kWedge) or a
 * stall beyond the cycle budget is detected at the budget, the unit is
 * reset (modeled reset cost), and the victim job replays clean — versus
 * the no-watchdog baseline where a wedge hangs the job until the
 * command router's last-resort timeout abandons it. Covers the device
 * fence loops, the shared-queue arbiter, and the hybrid backend's
 * fallback interaction.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "accel/shared_queue.h"
#include "proto/schema_parser.h"
#include "rpc/codec_backend.h"
#include "sim/fault.h"

namespace protoacc::rpc {
namespace {

using proto::DescriptorPool;
using proto::Message;

class WatchdogTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto parsed = proto::ParseSchema(R"(
            message Payload {
                optional string text = 1;
                optional uint64 num = 2;
            }
        )",
                                               &pool_);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        pool_.Compile(proto::HasbitsMode::kSparse);
        type_ = pool_.FindMessage("Payload");
        arena_ = std::make_unique<proto::Arena>();
        Message msg = Message::Create(arena_.get(), pool_, type_);
        const auto &desc = pool_.message(type_);
        msg.SetString(*desc.FindFieldByName("text"),
                      "watchdog victim payload");
        msg.SetUint64(*desc.FindFieldByName("num"), 0xFEEDFACE);
        wire_ = proto::Serialize(msg, nullptr);
    }

    StatusCode
    DeserializeOnce(AcceleratedBackend *backend)
    {
        proto::Arena arena;
        Message msg = Message::Create(&arena, pool_, type_);
        return backend->Deserialize(wire_.data(), wire_.size(), &msg);
    }

    DescriptorPool pool_;
    int type_ = -1;
    std::unique_ptr<proto::Arena> arena_;
    std::vector<uint8_t> wire_;
};

TEST_F(WatchdogTest, WedgeWithoutWatchdogHangsToLastResortTimeout)
{
    sim::FaultConfig config;
    config.unit_wedge_rate = 1.0;
    sim::FaultInjector injector(0xBAD, config);

    AcceleratedBackend backend(pool_);  // watchdog off by default
    backend.SetFaultInjector(&injector);
    const StatusCode st = DeserializeOnce(&backend);
    EXPECT_FALSE(StatusOk(st));
    // The wedged job burned the command router's coarse timeout — an
    // availability event, not a bounded hiccup.
    EXPECT_GE(backend.codec_cycles(), 1'000'000.0);
    EXPECT_EQ(backend.watchdog_stats().resets, 0u);
}

TEST_F(WatchdogTest, WatchdogResetsWedgedUnitAndReplaysTheJob)
{
    sim::FaultConfig config;
    config.unit_wedge_rate = 1.0;
    sim::FaultInjector injector(0xBAD, config);

    // Clean baseline for the cycle comparison.
    AcceleratedBackend clean(pool_);
    ASSERT_TRUE(StatusOk(DeserializeOnce(&clean)));
    const double clean_cycles = clean.codec_cycles();

    accel::AccelConfig accel_config;
    accel_config.watchdog.budget_cycles = 10'000;
    accel_config.watchdog.reset_cycles = 512;
    AcceleratedBackend backend(pool_, accel_config);
    backend.SetFaultInjector(&injector);

    // The wedge is detected at the budget, the unit resets, the job
    // replays clean — the call *succeeds*.
    EXPECT_TRUE(StatusOk(DeserializeOnce(&backend)));
    const accel::WatchdogStats stats = backend.watchdog_stats();
    EXPECT_EQ(stats.resets, 1u);
    EXPECT_EQ(stats.replayed_jobs, 1u);
    EXPECT_EQ(stats.wasted_cycles, 10'000u + 512u);
    // Costed: clean run + budget + reset, nowhere near the hang.
    EXPECT_GE(backend.codec_cycles(), clean_cycles + 10'000 + 512);
    EXPECT_LT(backend.codec_cycles(), 1'000'000.0);
}

TEST_F(WatchdogTest, StallBeyondBudgetCountsAsWedgeAndResets)
{
    sim::FaultConfig config;
    config.unit_stall_rate = 1.0;
    config.stall_cycles_min = 50'000;
    config.stall_cycles_max = 50'000;
    sim::FaultInjector injector(0xBAD, config);

    accel::AccelConfig accel_config;
    accel_config.watchdog.budget_cycles = 10'000;
    AcceleratedBackend backend(pool_, accel_config);
    backend.SetFaultInjector(&injector);

    EXPECT_TRUE(StatusOk(DeserializeOnce(&backend)));
    EXPECT_EQ(backend.watchdog_stats().resets, 1u);
}

TEST_F(WatchdogTest, StallWithinBudgetJustBurnsTheStallCycles)
{
    sim::FaultConfig config;
    config.unit_stall_rate = 1.0;
    config.stall_cycles_min = 500;
    config.stall_cycles_max = 500;
    sim::FaultInjector injector(0xBAD, config);

    accel::AccelConfig accel_config;
    accel_config.watchdog.budget_cycles = 1'000'000;
    AcceleratedBackend backend(pool_, accel_config);
    backend.SetFaultInjector(&injector);

    AcceleratedBackend clean(pool_);
    ASSERT_TRUE(StatusOk(DeserializeOnce(&clean)));
    EXPECT_TRUE(StatusOk(DeserializeOnce(&backend)));
    EXPECT_EQ(backend.watchdog_stats().resets, 0u);
    EXPECT_GE(backend.codec_cycles(), clean.codec_cycles() + 500);
}

TEST_F(WatchdogTest, SharedQueueWatchdogPenalizesBlownBudget)
{
    accel::SharedQueueConfig with_watchdog;
    with_watchdog.watchdog_budget_cycles = 1'000;
    with_watchdog.watchdog_reset_cycles = 512;
    accel::SharedAccelQueue guarded(with_watchdog);
    accel::SharedAccelQueue plain;

    // Within budget: identical completion with and without watchdog.
    const auto ok_guarded = guarded.Submit(0, 800);
    const auto ok_plain = plain.Submit(0, 800);
    EXPECT_EQ(ok_guarded.done_cycle, ok_plain.done_cycle);
    EXPECT_EQ(guarded.stats().watchdog_resets, 0u);

    guarded.Reset();
    plain.Reset();

    // Blown budget: the unit wedged, the watchdog fires at the budget,
    // resets it, and the batch replays — budget + reset cycles later.
    const auto bad_guarded = guarded.Submit(0, 5'000);
    const auto bad_plain = plain.Submit(0, 5'000);
    EXPECT_EQ(bad_guarded.done_cycle,
              bad_plain.done_cycle + 1'000 + 512);
    const accel::SharedAccelQueue::Stats stats = guarded.stats();
    EXPECT_EQ(stats.watchdog_resets, 1u);
    EXPECT_EQ(stats.watchdog_wasted_cycles, 1'000u + 512u);
}

TEST_F(WatchdogTest, HybridWithWatchdogRecoversWithoutFallback)
{
    // With the watchdog armed, a wedge is recovered on-device: the
    // hybrid never needs its software fallback for it.
    sim::FaultConfig config;
    config.unit_wedge_rate = 1.0;
    sim::FaultInjector injector(0xBAD, config);

    accel::AccelConfig accel_config;
    accel_config.watchdog.budget_cycles = 10'000;
    auto accel =
        std::make_unique<AcceleratedBackend>(pool_, accel_config);
    accel->SetFaultInjector(&injector);
    HybridCodecBackend hybrid(
        std::move(accel),
        std::make_unique<SoftwareBackend>(cpu::BoomParams(), pool_));

    proto::Arena arena;
    Message msg = Message::Create(&arena, pool_, type_);
    const auto &desc = pool_.message(type_);
    msg.SetString(*desc.FindFieldByName("text"), "hello");
    const std::vector<uint8_t> out = hybrid.Serialize(msg);
    EXPECT_FALSE(out.empty());
    EXPECT_EQ(hybrid.fallback_counters().accel_fault, 0u);
    EXPECT_GE(hybrid.accel_engine()->watchdog_stats().resets, 1u);
}

}  // namespace
}  // namespace protoacc::rpc
