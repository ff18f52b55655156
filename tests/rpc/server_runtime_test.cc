#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <thread>

#include "proto/schema_parser.h"
#include "rpc/server_runtime.h"

namespace protoacc::rpc {
namespace {

using proto::DescriptorPool;
using proto::Message;

class ServerRuntimeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        const auto parsed = ParseSchema(R"(
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

    /// Thread-safe echo handler: copies text and tag through.
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

    RpcServerRuntime::BackendFactory
    AcceleratedFactory()
    {
        return [this](uint32_t) {
            return std::make_unique<AcceleratedBackend>(pool_);
        };
    }

    /// Serialize one echo request (functional only, no cost model).
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

    /// Submit @p calls echo requests with call_id = 1..calls.
    void
    SubmitEchoes(RpcServerRuntime *runtime, uint32_t calls)
    {
        for (uint32_t i = 1; i <= calls; ++i) {
            const std::vector<uint8_t> wire =
                RequestWire(i, "payload-" + std::to_string(i));
            FrameHeader h;
            h.call_id = i;
            h.method_id = 1;
            h.kind = FrameKind::kRequest;
            h.payload_bytes = static_cast<uint32_t>(wire.size());
            runtime->Submit(h, wire.data());
        }
    }

    DescriptorPool pool_;
    int req_ = -1;
    int rsp_ = -1;
};

TEST_F(ServerRuntimeTest, EveryCallGetsItsReply)
{
    RuntimeConfig config;
    config.num_workers = 4;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    runtime.Start();
    constexpr uint32_t kCalls = 64;
    SubmitEchoes(&runtime, kCalls);
    runtime.Drain();

    // Decode every reply stream and match responses to call ids.
    std::map<uint32_t, std::string> texts;
    proto::Arena arena;
    const auto &sd = pool_.message(rsp_);
    for (uint32_t wkr = 0; wkr < runtime.num_workers(); ++wkr) {
        const FrameBuffer &replies = runtime.replies(wkr);
        size_t offset = 0;
        while (const auto frame = replies.Next(&offset)) {
            EXPECT_EQ(frame->header.kind, FrameKind::kResponse);
            Message response = Message::Create(&arena, pool_, rsp_);
            ASSERT_EQ(proto::ParseFromBuffer(frame->payload,
                                             frame->header.payload_bytes,
                                             &response, nullptr),
                      proto::ParseStatus::kOk);
            EXPECT_EQ(response.GetUint32(*sd.FindFieldByName("tag")),
                      frame->header.call_id);
            texts[frame->header.call_id] = std::string(
                response.GetString(*sd.FindFieldByName("text")));
        }
    }
    ASSERT_EQ(texts.size(), kCalls);
    for (uint32_t i = 1; i <= kCalls; ++i)
        EXPECT_EQ(texts[i], "payload-" + std::to_string(i));

    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.calls, kCalls);
    EXPECT_EQ(snap.failures, 0u);
}

TEST_F(ServerRuntimeTest, ModeledQpsScalesWithWorkers)
{
    constexpr uint32_t kCalls = 256;
    auto run = [&](uint32_t workers) {
        RuntimeConfig config;
        config.num_workers = workers;
        RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
        runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
        runtime.Start();
        SubmitEchoes(&runtime, kCalls);
        runtime.Drain();
        return runtime.Snapshot().modeled_qps();
    };
    const double qps1 = run(1);
    const double qps4 = run(4);
    EXPECT_GT(qps1, 0);
    // The acceptance bar for the serving runtime: software backends
    // model one core per worker, so 4 workers must deliver at least
    // 2.5x the single-worker modeled QPS (ideal is ~4x minus shard
    // imbalance).
    EXPECT_GE(qps4, 2.5 * qps1);
}

TEST_F(ServerRuntimeTest, SteadyStateHasNoPerCallArenasOrCopies)
{
    RuntimeConfig config;
    config.num_workers = 2;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    runtime.Start();

    // Warm up, then observe the steady state.
    SubmitEchoes(&runtime, 32);
    runtime.Drain();
    const RuntimeSnapshot warm = runtime.Snapshot();

    SubmitEchoes(&runtime, 200);
    runtime.Drain();
    const RuntimeSnapshot snap = runtime.Snapshot();

    // One arena per worker, ever — never one per call.
    EXPECT_EQ(snap.arena_constructions, 2u);
    for (size_t i = 0; i < snap.workers.size(); ++i) {
        const WorkerSnapshot &w = snap.workers[i];
        // The response path serializes in place: the reply stream saw
        // zero payload memcpys across all calls.
        EXPECT_EQ(w.reply_payload_copies, 0u);
        // Arena::Reset reuse: the warm working set fits the first
        // block, so no new blocks appear under load.
        EXPECT_EQ(w.arena_blocks, 1u);
        EXPECT_EQ(w.arena_bytes_reserved,
                  warm.workers[i].arena_bytes_reserved);
    }
    EXPECT_EQ(snap.failures, 0u);
}

TEST_F(ServerRuntimeTest, SharedAcceleratorQueueAddsDelayUnderLoad)
{
    constexpr uint32_t kCalls = 96;
    auto run = [&](uint32_t workers, accel::SharedAccelQueue *queue) {
        RuntimeConfig config;
        config.num_workers = workers;
        config.max_batch = 8;
        config.shared_accel = queue;
        RpcServerRuntime runtime(&pool_, AcceleratedFactory(), config);
        runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
        // A preloaded backlog drains in exact max_batch chunks, so the
        // batches, and with them the modeled latencies, do not depend
        // on thread timing.
        SubmitEchoes(&runtime, kCalls);
        runtime.Start();
        runtime.Drain();
        std::vector<double> lat = runtime.TakeLatencies();
        const double sum =
            std::accumulate(lat.begin(), lat.end(), 0.0);
        return sum / static_cast<double>(lat.size());
    };

    // One worker on the shared queue: closed loop, no contention.
    accel::SharedAccelQueue solo_queue;
    const double solo_ns = run(1, &solo_queue);
    EXPECT_EQ(solo_queue.stats().total_wait_cycles, 0u);

    // Four workers contending for one accelerator: queueing delay
    // appears and mean modeled latency rises.
    accel::SharedAccelQueue shared_queue;
    const double contended_ns = run(4, &shared_queue);
    EXPECT_GT(shared_queue.stats().total_wait_cycles, 0u);
    EXPECT_GT(shared_queue.stats().contended_batches, 0u);
    EXPECT_GT(contended_ns, solo_ns);
}

TEST_F(ServerRuntimeTest, ConcurrentSubmittersAreSafe)
{
    RuntimeConfig config;
    config.num_workers = 3;
    config.record_replies = false;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    runtime.Start();

    constexpr int kThreads = 4;
    constexpr uint32_t kPerThread = 64;
    const std::vector<uint8_t> wire = RequestWire(7, "concurrent");
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t)
        submitters.emplace_back([&runtime, &wire, t] {
            for (uint32_t i = 0; i < kPerThread; ++i) {
                FrameHeader h;
                h.call_id =
                    static_cast<uint32_t>(t) * kPerThread + i + 1;
                h.method_id = 1;
                h.kind = FrameKind::kRequest;
                h.payload_bytes = static_cast<uint32_t>(wire.size());
                runtime.Submit(h, wire.data());
            }
        });
    for (auto &t : submitters)
        t.join();
    runtime.Drain();
    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.calls,
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(snap.failures, 0u);
}

TEST_F(ServerRuntimeTest, DedupUnderConcurrentSubmitters)
{
    // Two submitters send overlapping idempotency keys under distinct
    // call ids while the workers run, so duplicates of one key land on
    // different workers' batches (and views) at the same time. The
    // TSan job runs this. Each submission either executes or replays,
    // and each distinct key is committed exactly once.
    RuntimeConfig config;
    config.num_workers = 3;
    config.record_replies = false;
    config.dedup_capacity = 4096;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    std::atomic<uint64_t> executions{0};
    runtime.SetExecObserver([&executions](uint16_t, uint64_t) {
        executions.fetch_add(1, std::memory_order_relaxed);
    });
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    runtime.Start();

    constexpr uint32_t kThreads = 2;
    constexpr uint32_t kPerThread = 600;
    constexpr uint64_t kDistinctKeys = 400;
    const std::vector<uint8_t> wire = RequestWire(7, "dedup");
    std::vector<std::thread> submitters;
    for (uint32_t t = 0; t < kThreads; ++t)
        submitters.emplace_back([&runtime, &wire, t] {
            for (uint32_t i = 0; i < kPerThread; ++i) {
                FrameHeader h;
                h.call_id = t * kPerThread + i + 1;
                h.method_id = 1;
                h.kind = FrameKind::kRequest;
                h.payload_bytes = static_cast<uint32_t>(wire.size());
                // The threads walk the key space from opposite ends, so
                // their duplicates meet mid-run.
                const uint64_t k = t == 0 ? i : kPerThread - 1 - i;
                h.idempotency_key = 0x5000 + k % kDistinctKeys;
                ASSERT_EQ(runtime.Submit(h, wire.data()), StatusCode::kOk);
            }
        });
    for (auto &t : submitters)
        t.join();
    runtime.Drain();

    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.calls, uint64_t{kThreads} * kPerThread);
    EXPECT_EQ(snap.failures, 0u);
    EXPECT_EQ(executions.load() + snap.dedup_hits,
              uint64_t{kThreads} * kPerThread);
    EXPECT_EQ(snap.dedup_insertions, kDistinctKeys);
    EXPECT_EQ(snap.dedup_evictions, 0u);
}

TEST_F(ServerRuntimeTest, UnknownMethodYieldsErrorFrameThroughRuntime)
{
    RuntimeConfig config;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    runtime.Start();
    const std::vector<uint8_t> wire = RequestWire(1, "x");
    FrameHeader h;
    h.call_id = 1;
    h.method_id = 99;  // not registered
    h.kind = FrameKind::kRequest;
    h.payload_bytes = static_cast<uint32_t>(wire.size());
    runtime.Submit(h, wire.data());
    runtime.Drain();

    EXPECT_EQ(runtime.Snapshot().failures, 1u);
    size_t offset = 0;
    const auto frame = runtime.replies(0).Next(&offset);
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->header.kind, FrameKind::kError);
    EXPECT_EQ(frame->header.call_id, 1u);
}

TEST_F(ServerRuntimeTest, StreamingFrameWithoutReceiverIsUnimplemented)
{
    RuntimeConfig config;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    runtime.Start();
    FrameHeader h;
    h.kind = FrameKind::kStreamBegin;
    h.idempotency_key = 42;
    h.method_id = 1;
    uint8_t payload[StreamBeginInfo::kWireBytes];
    PackStreamBegin({1024, 128}, payload);
    h.payload_bytes = StreamBeginInfo::kWireBytes;
    EXPECT_EQ(runtime.Submit(h, payload), StatusCode::kUnimplemented);
    runtime.Drain();

    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.stream_frames, 0u);
    EXPECT_EQ(snap.stream_buffer_bytes, 0u);
    EXPECT_EQ(snap.stream_buffer_peak_bytes, 0u);
}

TEST_F(ServerRuntimeTest, StreamingSnapshotReportsPeakMemory)
{
    RuntimeConfig config;
    config.num_workers = 2;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());

    // Attach a streaming receiver: stream frames route to it and its
    // buffer gauge feeds the snapshot's high-water mark.
    StreamConfig stream_config;
    stream_config.chunk_bytes = 256;
    auto backend =
        std::make_unique<SoftwareBackend>(cpu::BoomParams(), pool_);
    class NullSink : public proto::StreamSink
    {
      public:
        proto::ParseStatus
        OnScalar(const proto::FieldDescriptor &, uint64_t) override
        {
            return proto::ParseStatus::kOk;
        }
    };
    StreamReceiver receiver(
        &pool_, backend.get(), stream_config,
        [](uint16_t, uint16_t) -> std::unique_ptr<proto::StreamSink> {
            return std::make_unique<NullSink>();
        });
    receiver.RegisterMethod(7, req_);
    runtime.AttachStreamReceiver(&receiver);
    runtime.Start();

    FrameHeader h;
    h.kind = FrameKind::kStreamBegin;
    h.idempotency_key = 42;
    h.method_id = 7;
    uint8_t payload[StreamBeginInfo::kWireBytes];
    PackStreamBegin({64 << 10, 256}, payload);
    h.payload_bytes = StreamBeginInfo::kWireBytes;
    ASSERT_EQ(runtime.Submit(h, payload), StatusCode::kOk);

    // A live stream holds a buffer reservation; some ordinary calls run
    // alongside it so worker arenas contribute too.
    SubmitEchoes(&runtime, 8);
    runtime.Drain();

    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.stream_frames, 1u);
    EXPECT_GT(snap.stream_buffer_bytes, 0u);
    EXPECT_GE(snap.stream_buffer_peak_bytes, snap.stream_buffer_bytes);
    size_t arena_total = 0;
    for (const auto &w : snap.workers)
        arena_total += w.arena_bytes_reserved;
    EXPECT_GT(arena_total, 0u);
    EXPECT_EQ(snap.peak_memory_bytes,
              arena_total + snap.stream_buffer_peak_bytes);

    // Stream teardown releases the reservation; the high-water mark and
    // the peak-memory aggregate stay sticky.
    FrameHeader cancel;
    cancel.kind = FrameKind::kStreamCancel;
    cancel.idempotency_key = 42;
    cancel.method_id = 7;
    cancel.payload_bytes = 0;
    EXPECT_EQ(runtime.Submit(cancel, nullptr), StatusCode::kOk);
    const RuntimeSnapshot after = runtime.Snapshot();
    EXPECT_EQ(after.stream_buffer_bytes, 0u);
    EXPECT_EQ(after.stream_buffer_peak_bytes,
              snap.stream_buffer_peak_bytes);
    EXPECT_GE(after.peak_memory_bytes, after.stream_buffer_peak_bytes);
}

}  // namespace
}  // namespace protoacc::rpc
