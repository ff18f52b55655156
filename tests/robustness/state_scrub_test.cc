/**
 * Cross-request state scrubbing: after a quarantine scrub, no trace of
 * request A — bytes or timing — is observable from request B.
 *
 * The device keeps real cross-request state: the ADT loaders' response
 * buffers stay warm between jobs (a later request of the same type
 * parses *faster* because an earlier one loaded its ADT lines — a
 * timing side channel), and a deep message dirties the context stacks
 * through the DRAM spill region. The dirty-then-replay contract: probe a
 * new device with request B, scrub, run a deep SECRET-laden request A,
 * scrub, then probe with B again and require the second probe to be
 * cycle-identical and byte-identical to the first. A control run
 * without the scrubs shows the timing channel is real (B runs
 * measurably different on a dirty device), so the equality assertions
 * actually prove the scrub works.
 *
 * Every comparison is one device against itself, with B pinned to the
 * same host addresses each time: the device model prices real
 * addresses, so B on two different devices (or B's objects at two
 * different heap positions) would compare two memory layouts, not two
 * device states.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "proto/descriptor.h"
#include "proto/message.h"
#include "proto/parser.h"
#include "proto/serializer.h"
#include "rpc/codec_backend.h"
#include "rpc/health.h"
#include "rpc/server_runtime.h"
#include "sim/fault.h"

namespace protoacc::rpc {
namespace {

using proto::Arena;
using proto::DescriptorPool;
using proto::FieldType;
using proto::Message;

constexpr const char *kSecret = "SECRET-red-handle";

class StateScrubTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Self-recursive node: both the deep dirtying request and the
        // shallow probe use the *same* type, so they share ADT lines —
        // exactly the situation where one request's warm-up leaks into
        // the next request's timing.
        node_ = pool_.AddMessage("Node");
        pool_.AddMessageField(node_, "child", 1, node_);
        pool_.AddField(node_, "text", 2, FieldType::kString);
        pool_.AddField(node_, "v", 3, FieldType::kInt32);
        pool_.Compile(proto::HasbitsMode::kSparse);
        text_ = pool_.message(node_).FindFieldByName("text");
        child_ = pool_.message(node_).FindFieldByName("child");
        v_ = pool_.message(node_).FindFieldByName("v");
    }

    /// Request A: deeper than the on-chip stacks (25), every level
    /// carrying secret bytes — dirties the ADT response buffers, both
    /// context stacks, and the DRAM spill region.
    std::vector<uint8_t>
    DeepSecretWire(int depth = 40)
    {
        Arena arena;
        Message root = Message::Create(&arena, pool_, node_);
        Message cur = root;
        for (int i = 0; i < depth; ++i) {
            cur.SetString(*text_,
                          std::string(kSecret) + std::to_string(i));
            cur.SetInt32(*v_, i);
            cur = cur.MutableMessage(*child_);
        }
        return proto::Serialize(root, nullptr);
    }

    /// Request B: a shallow probe of the same type.
    std::vector<uint8_t>
    ProbeWire()
    {
        Arena arena;
        Message probe = Message::Create(&arena, pool_, node_);
        probe.SetString(*text_, "request-B probe");
        probe.SetInt32(*v_, 7);
        return proto::Serialize(probe, nullptr);
    }

    /// Deserialize + re-serialize @p wire on @p backend, returning the
    /// canonical output bytes and the deserialize/serialize cycle
    /// costs — the externally observable behavior of one request.
    struct RequestTrace
    {
        std::vector<uint8_t> bytes;
        double deser_cycles = 0;
        double ser_cycles = 0;
    };

    RequestTrace
    RunRequest(AcceleratedBackend *backend,
               const std::vector<uint8_t> &wire)
    {
        Arena arena;
        return RunRequest(backend, wire, &arena);
    }

    RequestTrace
    RunRequest(AcceleratedBackend *backend,
               const std::vector<uint8_t> &wire, Arena *dest_arena)
    {
        RequestTrace trace;
        Message msg = Message::Create(dest_arena, pool_, node_);
        double before = backend->codec_cycles();
        EXPECT_EQ(backend->Deserialize(wire.data(), wire.size(), &msg),
                  StatusCode::kOk);
        trace.deser_cycles = backend->codec_cycles() - before;
        before = backend->codec_cycles();
        trace.bytes = backend->Serialize(msg);
        trace.ser_cycles = backend->codec_cycles() - before;
        return trace;
    }

    /**
     * Request B at pinned host addresses: B's destination object and
     * everything the device allocates while parsing it come from
     * probe_arena_, which is reset first, so every probe's
     * deserialize writes and serialize reads touch the same lines.
     */
    RequestTrace
    ProbeRequest(AcceleratedBackend *backend,
                 const std::vector<uint8_t> &wire)
    {
        probe_arena_.Reset();
        backend->device().DeserAssignArena(&probe_arena_);
        return RunRequest(backend, wire, &probe_arena_);
    }

    static bool
    ContainsSecret(const std::vector<uint8_t> &bytes)
    {
        const std::string haystack(bytes.begin(), bytes.end());
        return haystack.find(kSecret) != std::string::npos;
    }

    DescriptorPool pool_;
    int node_ = -1;
    const proto::FieldDescriptor *text_ = nullptr;
    const proto::FieldDescriptor *child_ = nullptr;
    const proto::FieldDescriptor *v_ = nullptr;
    Arena probe_arena_;
};

TEST_F(StateScrubTest, DirtyDeviceIsObservablyDifferentWithoutScrub)
{
    // Control: the cross-request channel exists. The scrub test's
    // sequence without its scrubs: request B on a device that just
    // served deep request A costs *different* cycles than B did on the
    // same device when it was new (warm ADT response buffers hit
    // instead of miss). Without this the equality test below would
    // prove nothing.
    const std::vector<uint8_t> deep = DeepSecretWire();
    const std::vector<uint8_t> probe = ProbeWire();

    AcceleratedBackend dirty(pool_);
    const RequestTrace b_fresh = ProbeRequest(&dirty, probe);
    RunRequest(&dirty, deep);  // request A dirties the device
    // The deep request went through the DRAM spill region: the dirty
    // state is not just the on-chip registers.
    EXPECT_GT(dirty.device().deserializer().stats().stack_spills, 0u);
    EXPECT_GE(dirty.device().deserializer().stats().max_depth, 26u);

    const RequestTrace b_dirty = ProbeRequest(&dirty, probe);
    EXPECT_EQ(b_dirty.bytes, b_fresh.bytes);  // data is correct...
    // ...but the timing leaks request A's warm-up.
    EXPECT_NE(b_dirty.deser_cycles, b_fresh.deser_cycles);
    EXPECT_FALSE(ContainsSecret(b_dirty.bytes));
}

TEST_F(StateScrubTest, ScrubbedDeviceIsIndistinguishableFromFresh)
{
    // The scrub contract: after request A (deep, SECRET-laden, spilled
    // to DRAM) and a full state scrub, request B's bytes AND cycles
    // are identical to B on the same device when it was new. No
    // residue, no timing channel. The first scrub clears B's own
    // warm-up, so only request A can make the probes differ.
    const std::vector<uint8_t> deep = DeepSecretWire();
    const std::vector<uint8_t> probe = ProbeWire();

    AcceleratedBackend scrubbed(pool_);
    const RequestTrace b_fresh = ProbeRequest(&scrubbed, probe);
    scrubbed.ScrubDeviceState();
    RunRequest(&scrubbed, deep);
    ASSERT_GT(scrubbed.device().deserializer().stats().stack_spills,
              0u);
    scrubbed.ScrubDeviceState();

    const RequestTrace b_scrubbed = ProbeRequest(&scrubbed, probe);
    EXPECT_EQ(b_scrubbed.bytes, b_fresh.bytes);
    EXPECT_EQ(b_scrubbed.deser_cycles, b_fresh.deser_cycles);
    EXPECT_EQ(b_scrubbed.ser_cycles, b_fresh.ser_cycles);
    EXPECT_FALSE(ContainsSecret(b_scrubbed.bytes));
}

TEST_F(StateScrubTest, ScrubAfterWatchdogResetRestoresFreshTiming)
{
    // Dirty-then-replay through the failure path the health policy
    // actually takes: request A wedges the unit, the watchdog resets
    // it and replays (request A still answers), then the health layer
    // scrubs. Request B must behave exactly as it did on the device
    // when it was new.
    const std::vector<uint8_t> deep = DeepSecretWire();
    const std::vector<uint8_t> probe = ProbeWire();

    sim::FaultConfig fault_config;
    fault_config.unit_wedge_rate = 1.0;
    fault_config.unit_fault_burst_len = 1;
    sim::FaultInjector injector(0x5C4B, fault_config);
    accel::AccelConfig accel_config;
    accel_config.watchdog.budget_cycles = 10'000;
    AcceleratedBackend victim(pool_, accel_config);
    const RequestTrace b_fresh = ProbeRequest(&victim, probe);
    victim.ScrubDeviceState();
    victim.SetFaultInjector(&injector);

    const RequestTrace a = RunRequest(&victim, deep);
    EXPECT_FALSE(a.bytes.empty());  // watchdog recovered the wedge
    EXPECT_GT(victim.watchdog_stats().resets, 0u);

    victim.SetFaultInjector(nullptr);  // quarantine fenced the unit
    victim.ScrubDeviceState();

    const RequestTrace b = ProbeRequest(&victim, probe);
    EXPECT_EQ(b.bytes, b_fresh.bytes);
    EXPECT_EQ(b.deser_cycles, b_fresh.deser_cycles);
    EXPECT_EQ(b.ser_cycles, b_fresh.ser_cycles);
    EXPECT_FALSE(ContainsSecret(b.bytes));
}

TEST_F(StateScrubTest, RuntimeQuarantineScrubsBetweenRequests)
{
    // End-to-end through the serving runtime: SECRET-laden deep
    // requests drive the worker device into quarantine (every op
    // wedges), the quarantine scrub runs, and the probe request served
    // afterwards carries no secret bytes and parses correctly.
    sim::FaultConfig fault_config;
    fault_config.unit_wedge_rate = 1.0;
    auto injector =
        std::make_unique<sim::FaultInjector>(0xD117, fault_config);

    accel::AccelConfig accel_config;
    accel_config.watchdog.budget_cycles = 2'000;
    AcceleratedBackend *engine = nullptr;
    auto factory = [this, &engine, &injector,
                    accel_config](uint32_t) {
        auto accel =
            std::make_unique<AcceleratedBackend>(pool_, accel_config);
        accel->SetFaultInjector(injector.get());
        engine = accel.get();
        return std::make_unique<HybridCodecBackend>(
            std::move(accel),
            std::make_unique<SoftwareBackend>(cpu::BoomParams(),
                                              pool_));
    };

    RuntimeConfig config;
    config.num_workers = 1;
    config.health.enabled = true;
    RpcServerRuntime runtime(&pool_, factory, config);
    runtime.RegisterMethod(
        1, node_, node_, [this](const Message &request, Message response) {
            // Echo the root: text and v copied, children dropped.
            response.SetString(*text_, request.GetString(*text_));
            response.SetInt32(*v_, request.GetInt32(*v_));
        });

    const std::vector<uint8_t> deep = DeepSecretWire();
    for (uint32_t i = 1; i <= 8; ++i) {
        FrameHeader h;
        h.call_id = i;
        h.method_id = 1;
        h.kind = FrameKind::kRequest;
        h.payload_bytes = static_cast<uint32_t>(deep.size());
        ASSERT_EQ(runtime.Submit(h, deep.data()), StatusCode::kOk);
    }
    runtime.Start();
    runtime.Drain();

    RuntimeSnapshot snap = runtime.Snapshot();
    ASSERT_EQ(snap.health_quarantines, 1u);  // repeat offender fenced
    engine->SetFaultInjector(nullptr);

    // Probe request after the quarantine scrub.
    const std::vector<uint8_t> probe = ProbeWire();
    FrameHeader h;
    h.call_id = 100;
    h.method_id = 1;
    h.kind = FrameKind::kRequest;
    h.payload_bytes = static_cast<uint32_t>(probe.size());
    ASSERT_EQ(runtime.Submit(h, probe.data()), StatusCode::kOk);
    runtime.Drain();

    snap = runtime.Snapshot();
    EXPECT_EQ(snap.failures, 0u);

    // The probe's reply: correct, and free of request A's bytes.
    bool saw_probe = false;
    size_t offset = 0;
    while (const auto frame = runtime.replies(0).Next(&offset)) {
        if (frame->header.call_id != 100)
            continue;
        saw_probe = true;
        const std::vector<uint8_t> payload(
            frame->payload, frame->payload + frame->header.payload_bytes);
        EXPECT_FALSE(ContainsSecret(payload));
        Arena arena;
        Message response = Message::Create(&arena, pool_, node_);
        ASSERT_EQ(proto::ParseFromBuffer(payload.data(), payload.size(),
                                         &response, nullptr),
                  proto::ParseStatus::kOk);
        EXPECT_EQ(response.GetString(*text_), "request-B probe");
        EXPECT_EQ(response.GetInt32(*v_), 7);
    }
    EXPECT_TRUE(saw_probe);
}

}  // namespace
}  // namespace protoacc::rpc
