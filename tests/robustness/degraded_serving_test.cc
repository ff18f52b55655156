/**
 * Degraded-mode serving (tentpole of the robustness PR): admission
 * control sheds under modeled overload, per-call deadlines are counted,
 * saturation forces the hybrid backend onto the software codec, unit
 * faults transparently fall back — and the shared-queue replay stays
 * deterministic with correct accounting through all of it.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "proto/schema_parser.h"
#include "rpc/server_runtime.h"
#include "sim/fault.h"

namespace protoacc::rpc {
namespace {

using proto::DescriptorPool;
using proto::Message;

class DegradedServingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto parsed = proto::ParseSchema(R"(
            message EchoRequest {
                optional string text = 1;
                optional uint32 tag = 2;
            }
            message EchoResponse {
                optional string text = 1;
                optional uint32 tag = 2;
            }
        )",
                                               &pool_);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        pool_.Compile(proto::HasbitsMode::kSparse);
        req_ = pool_.FindMessage("EchoRequest");
        rsp_ = pool_.FindMessage("EchoResponse");
    }

    Handler
    EchoHandler()
    {
        return [this](const Message &request, Message response) {
            const auto &rd = pool_.message(req_);
            const auto &sd = pool_.message(rsp_);
            response.SetString(
                *sd.FindFieldByName("text"),
                request.GetString(*rd.FindFieldByName("text")));
            response.SetUint32(
                *sd.FindFieldByName("tag"),
                request.GetUint32(*rd.FindFieldByName("tag")));
        };
    }

    RpcServerRuntime::BackendFactory
    SoftwareFactory()
    {
        return [this](uint32_t) {
            return std::make_unique<SoftwareBackend>(cpu::BoomParams(),
                                                     pool_);
        };
    }

    /// Hybrid backends; when @p injectors is non-null, one injector per
    /// worker (seeded seed + worker index) is created and attached to
    /// the accelerator half, so injected decisions replay per worker.
    RpcServerRuntime::BackendFactory
    HybridFactory(
        std::vector<std::unique_ptr<sim::FaultInjector>> *injectors,
        uint64_t seed, const sim::FaultConfig &fault_config)
    {
        return [this, injectors, seed,
                fault_config](uint32_t worker) {
            auto accel = std::make_unique<AcceleratedBackend>(pool_);
            if (injectors != nullptr) {
                injectors->push_back(
                    std::make_unique<sim::FaultInjector>(
                        seed + worker, fault_config));
                accel->SetFaultInjector(injectors->back().get());
            }
            return std::make_unique<HybridCodecBackend>(
                std::move(accel),
                std::make_unique<SoftwareBackend>(cpu::BoomParams(),
                                                  pool_));
        };
    }

    std::vector<uint8_t>
    RequestWire(uint32_t tag)
    {
        proto::Arena arena;
        Message request = Message::Create(&arena, pool_, req_);
        const auto &rd = pool_.message(req_);
        request.SetString(*rd.FindFieldByName("text"),
                          "payload-" + std::to_string(tag));
        request.SetUint32(*rd.FindFieldByName("tag"), tag);
        return proto::Serialize(request, nullptr);
    }

    /// Submit @p calls echoes; returns how many were admitted.
    uint32_t
    SubmitEchoes(RpcServerRuntime *runtime, uint32_t calls)
    {
        uint32_t admitted = 0;
        for (uint32_t i = 1; i <= calls; ++i) {
            const std::vector<uint8_t> wire = RequestWire(i);
            FrameHeader h;
            h.call_id = i;
            h.method_id = 1;
            h.kind = FrameKind::kRequest;
            h.payload_bytes = static_cast<uint32_t>(wire.size());
            admitted += StatusOk(runtime->Submit(h, wire.data()));
        }
        return admitted;
    }

    DescriptorPool pool_;
    int req_ = -1;
    int rsp_ = -1;
};

TEST_F(DegradedServingTest, AdmissionControlShedsDeepBacklogs)
{
    RuntimeConfig config;
    config.num_workers = 1;
    config.admission_max_wait_ns = 10'000;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());

    // Pre-load before Start(): pending only grows, so the shed point is
    // exact — admission stops at backlog x estimate > bound.
    const uint32_t admitted = SubmitEchoes(&runtime, 50);
    EXPECT_EQ(admitted, 6u);  // 6 x 2000 ns > 10000 ns sheds the 7th

    runtime.Start();
    runtime.Drain();
    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.calls, admitted);
    EXPECT_EQ(snap.shed, 50u - admitted);
    EXPECT_EQ(snap.failures, 0u);
    // kOverloaded is retryable: a well-behaved client backs off.
    EXPECT_TRUE(StatusIsRetryable(StatusCode::kOverloaded));

    // Once drained (pending == 0), admission opens again.
    EXPECT_EQ(SubmitEchoes(&runtime, 1), 1u);
    runtime.Drain();
}

TEST_F(DegradedServingTest, DeadlineMissesAreCounted)
{
    auto run = [&](double deadline_ns) {
        RuntimeConfig config;
        config.num_workers = 1;
        config.deadline_ns = deadline_ns;
        RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
        runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
        runtime.Start();
        SubmitEchoes(&runtime, 20);
        runtime.Drain();
        return runtime.Snapshot().deadline_exceeded;
    };
    EXPECT_EQ(run(0), 0u);     // disabled
    EXPECT_EQ(run(1e9), 0u);   // 1 s: nothing modeled is that slow
    EXPECT_EQ(run(1e-3), 20u); // 1 ps: every call misses
}

TEST_F(DegradedServingTest, SaturationForcesSoftwareAndRecovers)
{
    accel::SharedAccelQueue queue;
    RuntimeConfig config;
    config.num_workers = 1;
    config.max_batch = 8;
    config.shared_accel = &queue;
    config.saturation_fallback_backlog = 16;
    RpcServerRuntime runtime(
        &pool_, HybridFactory(nullptr, 0, {}), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());

    // Pre-load 80 calls: the first batches see a 72..24-deep residual
    // backlog (> 16, forced to software); the tail (<= 16) re-enables
    // the accelerator.
    SubmitEchoes(&runtime, 80);
    runtime.Start();
    runtime.Drain();

    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.calls, 80u);
    EXPECT_EQ(snap.failures, 0u);
    // Some ops degraded (deep backlog), some did not (recovery).
    EXPECT_GT(snap.fallback_forced, 0u);
    const accel::SharedAccelQueue::Stats qs = queue.stats();
    EXPECT_GT(qs.jobs, 0u);  // the tail really used the device
    // Forced batches never rang the doorbell: strictly fewer device
    // jobs than the 2-per-call an all-accel run would issue.
    EXPECT_LT(qs.jobs, 2u * 80u);
    EXPECT_EQ(snap.fallback_accel_fault, 0u);
}

TEST_F(DegradedServingTest, UnitKillsFallBackToSoftwareTransparently)
{
    accel::SharedAccelQueue queue;
    std::vector<std::unique_ptr<sim::FaultInjector>> injectors;
    sim::FaultConfig fault_config;
    fault_config.unit_kill_rate = 1.0;  // every device op dies

    RuntimeConfig config;
    config.num_workers = 2;
    config.max_batch = 8;
    config.shared_accel = &queue;
    RpcServerRuntime runtime(
        &pool_, HybridFactory(&injectors, 400, fault_config), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    SubmitEchoes(&runtime, 48);
    runtime.Start();
    runtime.Drain();

    const RuntimeSnapshot snap = runtime.Snapshot();
    // Every call still succeeds: the software codec absorbed the work.
    EXPECT_EQ(snap.calls, 48u);
    EXPECT_EQ(snap.failures, 0u);
    // Each call fell back twice (deserialize + serialize).
    EXPECT_EQ(snap.fallback_accel_fault, 2u * 48u);
    EXPECT_EQ(snap.fallback_forced, 0u);
    // Latencies exist for every call and are positive: the fallback
    // time was charged to the worker core, not lost.
    const std::vector<double> lat = runtime.TakeLatencies();
    ASSERT_EQ(lat.size(), 48u);
    for (const double ns : lat)
        EXPECT_GT(ns, 0.0);
    // Replies really carry echoes (sanity that fallback produced them).
    uint64_t responses = 0;
    for (uint32_t wkr = 0; wkr < runtime.num_workers(); ++wkr) {
        size_t offset = 0;
        while (const auto frame = runtime.replies(wkr).Next(&offset)) {
            EXPECT_EQ(frame->header.kind, FrameKind::kResponse);
            ++responses;
        }
    }
    EXPECT_EQ(responses, 48u);
}

TEST_F(DegradedServingTest, DrainReplayIsDeterministicUnderFaults)
{
    // Two identical runs — same seeds, same pre-loaded backlog — must
    // produce byte-identical modeled numbers even though real threads
    // executed the work: batch boundaries come from the pre-load, and
    // fault decisions come from per-worker seeded injectors.
    auto run = [&]() {
        accel::SharedAccelQueue queue;
        std::vector<std::unique_ptr<sim::FaultInjector>> injectors;
        sim::FaultConfig fault_config;
        fault_config.unit_kill_rate = 0.3;
        fault_config.unit_stall_rate = 0.2;

        RuntimeConfig config;
        config.num_workers = 3;
        config.max_batch = 4;
        config.shared_accel = &queue;
        RpcServerRuntime runtime(
            &pool_, HybridFactory(&injectors, 777, fault_config),
            config);
        runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
        SubmitEchoes(&runtime, 60);
        runtime.Start();
        runtime.Drain();
        struct Result
        {
            RuntimeSnapshot snap;
            std::vector<double> latencies;
            accel::SharedAccelQueue::Stats qs;
        } r{runtime.Snapshot(), runtime.TakeLatencies(),
            queue.stats()};
        runtime.Shutdown();
        return r;
    };

    const auto a = run();
    const auto b = run();
    // Every DECISION is identical: same calls, same injected kills,
    // same fallbacks, same device jobs, same batch structure.
    EXPECT_EQ(a.snap.calls, b.snap.calls);
    EXPECT_EQ(a.snap.failures, b.snap.failures);
    EXPECT_EQ(a.snap.fallback_accel_fault, b.snap.fallback_accel_fault);
    EXPECT_EQ(a.snap.fallback_forced, b.snap.fallback_forced);
    EXPECT_EQ(a.qs.jobs, b.qs.jobs);
    EXPECT_EQ(a.qs.batches, b.qs.batches);
    ASSERT_EQ(a.latencies.size(), b.latencies.size());
    // Modeled TIMES agree closely but not bit-exactly: the cache/TLB
    // models key on host heap addresses, which shift between runs. The
    // replay itself adds no thread-scheduling noise, so runs land
    // within a fraction of a percent.
    EXPECT_NEAR(a.snap.modeled_span_ns, b.snap.modeled_span_ns,
                0.05 * a.snap.modeled_span_ns);
    for (size_t i = 0; i < a.latencies.size(); ++i)
        EXPECT_NEAR(a.latencies[i], b.latencies[i],
                    0.05 * a.latencies[i])
            << "latency " << i;
    // Faults really fired in both runs.
    EXPECT_GT(a.snap.fallback_accel_fault, 0u);
    EXPECT_EQ(a.snap.failures, 0u);
}

}  // namespace
}  // namespace protoacc::rpc
