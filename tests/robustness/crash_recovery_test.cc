/**
 * Worker-crash recovery and lifecycle hardening of the serving runtime:
 * scheduled kills strand un-acked frames, Drain() re-dispatches them to
 * survivors, requeued retries respect the dedup cache, and the modeled
 * numbers stay deterministic under crash injection. Plus the lifecycle
 * contract: counters survive Shutdown()/Start() cycles and Shutdown()
 * is idempotent under concurrent callers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "proto/schema_parser.h"
#include "rpc/server_runtime.h"
#include "sim/fault.h"

namespace protoacc::rpc {
namespace {

using proto::DescriptorPool;
using proto::Message;

class CrashRecoveryTest : public ::testing::Test
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

    std::vector<uint8_t>
    RequestWire(uint32_t tag, const std::string &text)
    {
        proto::Arena arena;
        Message request = Message::Create(&arena, pool_, req_);
        const auto &rd = pool_.message(req_);
        request.SetString(*rd.FindFieldByName("text"), text);
        request.SetUint32(*rd.FindFieldByName("tag"), tag);
        return proto::Serialize(request, nullptr);
    }

    void
    SubmitEchoes(RpcServerRuntime *runtime, uint32_t calls,
                 uint64_t key_base = 0)
    {
        for (uint32_t i = 1; i <= calls; ++i) {
            const std::vector<uint8_t> wire =
                RequestWire(i, "payload-" + std::to_string(i));
            FrameHeader h;
            h.call_id = i;
            h.method_id = 1;
            h.kind = FrameKind::kRequest;
            h.payload_bytes = static_cast<uint32_t>(wire.size());
            if (key_base != 0)
                h.idempotency_key = key_base + i;
            ASSERT_EQ(runtime->Submit(h, wire.data()),
                      StatusCode::kOk);
        }
    }

    /// Decode every reply stream into call_id -> echoed text.
    std::map<uint32_t, std::string>
    HarvestReplies(const RpcServerRuntime &runtime)
    {
        std::map<uint32_t, std::string> texts;
        proto::Arena arena;
        const auto &sd = pool_.message(rsp_);
        for (uint32_t w = 0; w < runtime.num_workers(); ++w) {
            size_t offset = 0;
            while (const auto frame =
                       runtime.replies(w).Next(&offset)) {
                EXPECT_EQ(frame->header.kind, FrameKind::kResponse);
                Message response =
                    Message::Create(&arena, pool_, rsp_);
                const proto::ParseStatus parsed =
                    proto::ParseFromBuffer(frame->payload,
                                           frame->header.payload_bytes,
                                           &response, nullptr);
                EXPECT_EQ(parsed, proto::ParseStatus::kOk);
                if (parsed != proto::ParseStatus::kOk)
                    continue;
                texts[frame->header.call_id] = std::string(
                    response.GetString(*sd.FindFieldByName("text")));
            }
        }
        return texts;
    }

    void ExpectDedupSurvivesCrash(uint32_t max_batch);

    DescriptorPool pool_;
    int req_ = -1;
    int rsp_ = -1;
};

TEST_F(CrashRecoveryTest, StrandedFramesAreRedispatchedToSurvivors)
{
    sim::FaultConfig fault_config;
    fault_config.worker_kills = {{1, 3}};  // worker 1 dies early
    sim::FaultInjector injector(0xDEAD, fault_config);

    RuntimeConfig config;
    config.num_workers = 4;
    config.fault_injector = &injector;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());

    constexpr uint32_t kCalls = 64;
    SubmitEchoes(&runtime, kCalls);  // pre-load, then start
    runtime.Start();
    runtime.Drain();

    // Every call answered despite the crash — the dead worker's
    // un-acked frames ran on survivors.
    const std::map<uint32_t, std::string> texts =
        HarvestReplies(runtime);
    ASSERT_EQ(texts.size(), kCalls);
    for (uint32_t i = 1; i <= kCalls; ++i)
        EXPECT_EQ(texts.at(i), "payload-" + std::to_string(i));

    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.calls, kCalls);
    EXPECT_EQ(snap.failures, 0u);
    EXPECT_EQ(snap.workers_crashed, 1u);
    EXPECT_TRUE(snap.workers[1].crashed);
    EXPECT_EQ(snap.workers[1].calls, 3u);
    // 16 frames sharded to worker 1, 3 executed before the crash.
    EXPECT_EQ(snap.redispatched_frames, 13u);
    EXPECT_EQ(injector.stats().workers_killed, 1u);
}

TEST_F(CrashRecoveryTest, EveryWorkerDeadMakesSubmitUnavailable)
{
    sim::FaultConfig fault_config;
    fault_config.worker_kills = {{0, 2}, {1, 2}};
    sim::FaultInjector injector(0xDEAD, fault_config);

    RuntimeConfig config;
    config.num_workers = 2;
    config.fault_injector = &injector;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    SubmitEchoes(&runtime, 16);
    runtime.Start();
    runtime.Drain();

    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.workers_crashed, 2u);
    EXPECT_EQ(snap.calls, 4u);  // 2 per worker before dying

    const std::vector<uint8_t> wire = RequestWire(99, "late");
    FrameHeader h;
    h.call_id = 99;
    h.method_id = 1;
    h.kind = FrameKind::kRequest;
    h.payload_bytes = static_cast<uint32_t>(wire.size());
    EXPECT_EQ(runtime.Submit(h, wire.data()),
              StatusCode::kUnavailable);
}

TEST_F(CrashRecoveryTest, SubmitSkipsADeadHomeWorker)
{
    sim::FaultConfig fault_config;
    fault_config.worker_kills = {{1, 1}};  // worker 1 dies after 1 call
    sim::FaultInjector injector(0xDEAD, fault_config);

    RuntimeConfig config;
    config.num_workers = 4;
    config.fault_injector = &injector;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    SubmitEchoes(&runtime, 8);
    runtime.Start();
    runtime.Drain();
    const RuntimeSnapshot before = runtime.Snapshot();
    ASSERT_TRUE(before.workers[1].crashed);
    EXPECT_EQ(before.redispatched_frames, 1u);  // call 5

    // Call 9's home is worker 1 (9 % 4); the next survivor takes it.
    const std::vector<uint8_t> wire = RequestWire(9, "after-the-crash");
    FrameHeader h;
    h.call_id = 9;
    h.method_id = 1;
    h.kind = FrameKind::kRequest;
    h.payload_bytes = static_cast<uint32_t>(wire.size());
    EXPECT_EQ(runtime.Submit(h, wire.data()), StatusCode::kOk);
    runtime.Drain();

    const RuntimeSnapshot after = runtime.Snapshot();
    EXPECT_EQ(after.calls, 9u);
    EXPECT_EQ(after.failures, 0u);
    EXPECT_EQ(after.workers[1].calls, before.workers[1].calls);
    EXPECT_EQ(after.workers[2].calls, before.workers[2].calls + 1);
    // Submitted straight to the survivor, not harvested by Drain().
    EXPECT_EQ(after.redispatched_frames, before.redispatched_frames);
    EXPECT_EQ(HarvestReplies(runtime).at(9), "after-the-crash");
}

TEST_F(CrashRecoveryTest, RedispatchedRetryHitsDedupInsteadOfRerunning)
{
    // A call that committed its response, then gets submitted again
    // (the reply was lost, the client retried) must replay from the
    // dedup cache — the handler runs once per key.
    std::atomic<uint32_t> executions{0};

    RuntimeConfig config;
    config.num_workers = 2;
    config.dedup_capacity = 64;
    RpcServerRuntime runtime(
        &pool_,
        [this](uint32_t) {
            return std::make_unique<SoftwareBackend>(cpu::BoomParams(),
                                                     pool_);
        },
        config);
    runtime.RegisterMethod(
        1, req_, rsp_,
        [this, &executions](const Message &request, Message response) {
            executions.fetch_add(1, std::memory_order_relaxed);
            const auto &rd = pool_.message(req_);
            const auto &sd = pool_.message(rsp_);
            response.SetString(
                *sd.FindFieldByName("text"),
                request.GetString(*rd.FindFieldByName("text")));
        });
    runtime.Start();

    const std::vector<uint8_t> wire = RequestWire(1, "once");
    FrameHeader h;
    h.call_id = 1;
    h.method_id = 1;
    h.kind = FrameKind::kRequest;
    h.payload_bytes = static_cast<uint32_t>(wire.size());
    h.idempotency_key = 0xAB5EED;
    ASSERT_EQ(runtime.Submit(h, wire.data()), StatusCode::kOk);
    runtime.Drain();

    // Retry of the same logical call: same key, new call id (it may
    // even land on a different worker — the cache is runtime-wide).
    h.call_id = 2;
    ASSERT_EQ(runtime.Submit(h, wire.data()), StatusCode::kOk);
    runtime.Drain();

    EXPECT_EQ(executions.load(), 1u);
    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.dedup_hits, 1u);
    EXPECT_EQ(snap.dedup_insertions, 1u);
    // Both attempts got a response frame with their own call id.
    const std::map<uint32_t, std::string> texts =
        HarvestReplies(runtime);
    ASSERT_EQ(texts.size(), 2u);
    EXPECT_EQ(texts.at(1), "once");
    EXPECT_EQ(texts.at(2), "once");
}

TEST_F(CrashRecoveryTest, DedupSnapshotSurvivesProcessRestart)
{
    // A serving process that restarts loses the in-memory dedup cache,
    // and every in-flight retry of an already-committed call would
    // re-execute. SerializeDedup() before the restart + RestoreDedup()
    // after must close that hole: the retry replays from the restored
    // cache, the handler never runs again.
    std::atomic<uint32_t> executions{0};
    const auto counting_handler = [this, &executions](
                                      const Message &request,
                                      Message response) {
        executions.fetch_add(1, std::memory_order_relaxed);
        const auto &rd = pool_.message(req_);
        const auto &sd = pool_.message(rsp_);
        response.SetString(*sd.FindFieldByName("text"),
                           request.GetString(*rd.FindFieldByName("text")));
    };

    RuntimeConfig config;
    config.num_workers = 2;
    config.dedup_capacity = 64;
    config.dedup_retry_horizon = 32;

    std::vector<uint8_t> image;
    const std::vector<uint8_t> wire = RequestWire(1, "committed");
    FrameHeader h;
    h.call_id = 1;
    h.method_id = 1;
    h.kind = FrameKind::kRequest;
    h.payload_bytes = static_cast<uint32_t>(wire.size());
    h.idempotency_key = 0xCAFE01;
    {
        RpcServerRuntime first(&pool_, SoftwareFactory(), config);
        first.RegisterMethod(1, req_, rsp_, counting_handler);
        first.Start();
        ASSERT_EQ(first.Submit(h, wire.data()), StatusCode::kOk);
        first.Drain();
        ASSERT_EQ(executions.load(), 1u);
        image = first.SerializeDedup();
        ASSERT_FALSE(image.empty());
    }  // the "process" exits

    RpcServerRuntime second(&pool_, SoftwareFactory(), config);
    second.RegisterMethod(1, req_, rsp_, counting_handler);
    ASSERT_TRUE(second.RestoreDedup(image.data(), image.size()));
    second.Start();

    // The client never saw the reply and retries with the same key.
    h.call_id = 2;
    ASSERT_EQ(second.Submit(h, wire.data()), StatusCode::kOk);
    second.Drain();

    EXPECT_EQ(executions.load(), 1u);  // no double execution
    const RuntimeSnapshot snap = second.Snapshot();
    EXPECT_TRUE(snap.dedup_restored);
    EXPECT_EQ(snap.dedup_hits, 1u);
    const std::map<uint32_t, std::string> texts =
        HarvestReplies(second);
    ASSERT_EQ(texts.size(), 1u);
    EXPECT_EQ(texts.at(2), "committed");

    // A torn snapshot (the restart raced the write) is rejected
    // fail-closed and the retry re-executes — correct, just slower.
    RpcServerRuntime third(&pool_, SoftwareFactory(), config);
    third.RegisterMethod(1, req_, rsp_, counting_handler);
    EXPECT_FALSE(third.RestoreDedup(image.data(), image.size() / 2));
    third.Start();
    h.call_id = 3;
    ASSERT_EQ(third.Submit(h, wire.data()), StatusCode::kOk);
    third.Drain();
    EXPECT_EQ(executions.load(), 2u);
    EXPECT_FALSE(third.Snapshot().dedup_restored);
}

TEST_F(CrashRecoveryTest, ModeledNumbersAreDeterministicUnderCrashes)
{
    // Same seed, same kill schedule, pre-loaded backlog: two runs must
    // produce bit-identical modeled numbers — the crash points are
    // call-count events and the stranded set is a submission-order
    // suffix, so recovery does not depend on thread timing.
    auto run = [this](RuntimeSnapshot *snap,
                      std::vector<double> *latencies) {
        sim::FaultConfig fault_config;
        fault_config.worker_kills = {{1, 5}, {2, 9}};
        sim::FaultInjector injector(0x5EED, fault_config);
        RuntimeConfig config;
        config.num_workers = 4;
        config.fault_injector = &injector;
        RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
        runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
        SubmitEchoes(&runtime, 96);
        runtime.Start();
        runtime.Drain();
        *snap = runtime.Snapshot();
        *latencies = runtime.TakeLatencies();
        std::sort(latencies->begin(), latencies->end());
    };

    RuntimeSnapshot a, b;
    std::vector<double> lat_a, lat_b;
    run(&a, &lat_a);
    run(&b, &lat_b);

    EXPECT_EQ(a.calls, b.calls);
    EXPECT_EQ(a.workers_crashed, 2u);
    EXPECT_EQ(b.workers_crashed, 2u);
    EXPECT_EQ(a.redispatched_frames, b.redispatched_frames);
    EXPECT_GT(a.redispatched_frames, 0u);
    EXPECT_EQ(a.modeled_span_ns, b.modeled_span_ns);
    ASSERT_EQ(a.workers.size(), b.workers.size());
    for (size_t i = 0; i < a.workers.size(); ++i) {
        EXPECT_EQ(a.workers[i].calls, b.workers[i].calls) << i;
        EXPECT_EQ(a.workers[i].vclock_ns, b.workers[i].vclock_ns) << i;
        EXPECT_EQ(a.workers[i].crashed, b.workers[i].crashed) << i;
    }
    ASSERT_EQ(lat_a.size(), lat_b.size());
    EXPECT_EQ(lat_a, lat_b);
}

TEST_F(CrashRecoveryTest, CountersSurviveShutdownStartCycles)
{
    RuntimeConfig config;
    config.num_workers = 2;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());

    runtime.Start();
    SubmitEchoes(&runtime, 32);
    runtime.Drain();
    runtime.Shutdown();
    const RuntimeSnapshot mid = runtime.Snapshot();
    EXPECT_EQ(mid.calls, 32u);

    // Restart resumes the same workers: counters accumulate across the
    // cycle instead of resetting.
    runtime.Start();
    SubmitEchoes(&runtime, 32);
    runtime.Drain();
    runtime.Shutdown();
    const RuntimeSnapshot after = runtime.Snapshot();
    EXPECT_EQ(after.calls, 64u);
    EXPECT_EQ(after.failures, 0u);
    EXPECT_EQ(after.arena_constructions, 2u);
    for (size_t i = 0; i < after.workers.size(); ++i)
        EXPECT_GE(after.workers[i].vclock_ns,
                  mid.workers[i].vclock_ns);
}

TEST_F(CrashRecoveryTest, ConcurrentShutdownIsIdempotent)
{
    RuntimeConfig config;
    config.num_workers = 2;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    runtime.Start();
    SubmitEchoes(&runtime, 16);
    runtime.Drain();

    // Racing Shutdown() callers: exactly one wins, the rest observe the
    // stopped state and return; nothing deadlocks or double-joins.
    std::vector<std::thread> stoppers;
    for (int i = 0; i < 4; ++i)
        stoppers.emplace_back([&runtime] { runtime.Shutdown(); });
    for (auto &t : stoppers)
        t.join();
    runtime.Shutdown();  // and once more for good measure

    EXPECT_EQ(runtime.Snapshot().calls, 16u);

    // The runtime is restartable after the pile-up.
    runtime.Start();
    SubmitEchoes(&runtime, 16);
    runtime.Drain();
    runtime.Shutdown();
    EXPECT_EQ(runtime.Snapshot().calls, 32u);
}

/// Crash + duplicate submissions: re-dispatched frames whose call
/// already committed must dedup, never double-execute. Submit every
/// call twice (same key) into a runtime whose worker 0 dies after its
/// fourth call, batching @p max_batch frames per worker wakeup.
void
CrashRecoveryTest::ExpectDedupSurvivesCrash(uint32_t max_batch)
{
    std::atomic<uint32_t> executions{0};
    sim::FaultConfig fault_config;
    fault_config.worker_kills = {{0, 4}};
    sim::FaultInjector injector(0xF00D, fault_config);

    RuntimeConfig config;
    config.num_workers = 2;
    config.max_batch = max_batch;
    config.dedup_capacity = 256;
    config.fault_injector = &injector;
    RpcServerRuntime runtime(
        &pool_,
        [this](uint32_t) {
            return std::make_unique<SoftwareBackend>(cpu::BoomParams(),
                                                     pool_);
        },
        config);
    runtime.RegisterMethod(
        1, req_, rsp_,
        [this, &executions](const Message &request, Message response) {
            executions.fetch_add(1, std::memory_order_relaxed);
            const auto &rd = pool_.message(req_);
            const auto &sd = pool_.message(rsp_);
            response.SetString(
                *sd.FindFieldByName("text"),
                request.GetString(*rd.FindFieldByName("text")));
        });

    constexpr uint32_t kCalls = 32;
    SubmitEchoes(&runtime, kCalls, /*key_base=*/0x1000);
    SubmitEchoes(&runtime, kCalls, /*key_base=*/0x1000);  // retries
    runtime.Start();
    runtime.Drain();

    // Each key executed exactly once; every duplicate was a cache hit.
    EXPECT_EQ(executions.load(), kCalls);
    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.dedup_insertions, kCalls);
    EXPECT_EQ(snap.dedup_hits, kCalls);
    EXPECT_EQ(snap.workers_crashed, 1u);
    EXPECT_EQ(snap.failures, 0u);
}

TEST_F(CrashRecoveryTest, CrashRecoveryComposesWithDedup)
{
    // The default max_batch of 16: the kill lands mid-batch.
    ExpectDedupSurvivesCrash(16);
}

TEST_F(CrashRecoveryTest, CrashRecoveryComposesWithDedupAtBatchBoundary)
{
    // Worker 0's first batch is exactly the four calls before the kill:
    // its commits must be published before the worker dies, or the
    // survivor re-executes their duplicates.
    ExpectDedupSurvivesCrash(4);
}

}  // namespace
}  // namespace protoacc::rpc
