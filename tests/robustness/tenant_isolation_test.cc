/**
 * Multi-tenant overload robustness: token-bucket admission edges,
 * breaker half-open re-probe, brownout priority ordering, weight-0
 * (scavenger) DWRR tenants, cross-tenant dedup isolation, and the
 * seed-determinism regression — two identical seeds must produce
 * bit-identical runtime snapshots with retries and kills live.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "proto/schema_parser.h"
#include "rpc/server_runtime.h"
#include "rpc/tenant.h"
#include "sim/fault.h"

namespace protoacc::rpc {
namespace {

using proto::DescriptorPool;
using proto::Message;

/// PreAdmit + CommitAdmission as one step (the pairing the table
/// requires for exact breaker window bookkeeping).
AdmitOutcome
Admit(TenantTable *table, uint16_t tenant, double arrival_ns,
      double pressure_ns = 0)
{
    const AdmitTicket ticket =
        table->PreAdmit(tenant, arrival_ns, pressure_ns);
    table->CommitAdmission(tenant, ticket, false);
    return ticket.outcome;
}

const TenantSnapshot &
SnapshotOf(const std::vector<TenantSnapshot> &tenants, uint16_t id)
{
    for (const TenantSnapshot &t : tenants)
        if (t.config.id == id)
            return t;
    ADD_FAILURE() << "tenant " << id << " missing from snapshot";
    static TenantSnapshot empty;
    return empty;
}

TEST(TenantTableTest, TokenBucketAtExactlyZeroBudget)
{
    // burst == 0 with a nonzero rate is an exactly-zero budget: the
    // bucket primes empty and every refill clamps back to zero, so no
    // submission is ever admitted, no matter how far the clock runs.
    TenantConfig zero;
    zero.id = 1;
    zero.bucket_rate_per_s = 1000.0;
    zero.bucket_burst = 0;
    TenantTable table({zero}, {}, {});
    EXPECT_EQ(Admit(&table, 1, 0), AdmitOutcome::kShedBucket);
    EXPECT_EQ(Admit(&table, 1, 5e8), AdmitOutcome::kShedBucket);
    EXPECT_EQ(Admit(&table, 1, 5e12), AdmitOutcome::kShedBucket);

    const TenantSnapshot ts = table.Snapshot().front();
    EXPECT_EQ(ts.counters.submitted, 3u);
    EXPECT_EQ(ts.counters.admitted, 0u);
    EXPECT_EQ(ts.counters.shed_bucket, 3u);
    EXPECT_EQ(ts.bucket_tokens, 0.0);
}

TEST(TenantTableTest, BurstDrainsToZeroThenRefillsWholeTokens)
{
    TenantConfig cfg;
    cfg.id = 7;
    cfg.bucket_rate_per_s = 1.0;  // 1 token per modeled second
    cfg.bucket_burst = 3;
    TenantTable table({cfg}, {}, {});
    // The burst admits exactly burst calls at one instant; the call
    // that finds the bucket at exactly zero is shed.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(Admit(&table, 7, 0), AdmitOutcome::kAdmitted);
    EXPECT_EQ(Admit(&table, 7, 0), AdmitOutcome::kShedBucket);
    // The refill clock never runs backwards.
    EXPECT_EQ(Admit(&table, 7, -1e9), AdmitOutcome::kShedBucket);
    // Half a token earned: still below the whole-token threshold.
    EXPECT_EQ(Admit(&table, 7, 5e8), AdmitOutcome::kShedBucket);
    // A full second earns one whole token: one admit, then re-shed.
    EXPECT_EQ(Admit(&table, 7, 1.5e9), AdmitOutcome::kAdmitted);
    EXPECT_EQ(Admit(&table, 7, 1.5e9), AdmitOutcome::kShedBucket);
}

TEST(TenantTableTest, AllTenantsOverQuotaAllShed)
{
    std::vector<TenantConfig> configs;
    for (uint16_t id = 1; id <= 3; ++id) {
        TenantConfig cfg;
        cfg.id = id;
        cfg.bucket_rate_per_s = 1.0;
        cfg.bucket_burst = 2;
        configs.push_back(cfg);
    }
    TenantTable table(configs, {}, {});
    // Every tenant floods past its quota at the same instant: each is
    // clipped at its own burst, none borrows a neighbor's budget.
    for (uint16_t id = 1; id <= 3; ++id)
        for (int i = 0; i < 10; ++i)
            Admit(&table, id, 0);
    for (const TenantSnapshot &ts : table.Snapshot()) {
        EXPECT_EQ(ts.counters.submitted, 10u);
        EXPECT_EQ(ts.counters.admitted, 2u);
        EXPECT_EQ(ts.counters.shed_bucket, 8u);
    }
}

TEST(TenantTableTest, BreakerTripsCoolsDownAndReprobes)
{
    TenantConfig starved;
    starved.id = 9;
    starved.bucket_rate_per_s = 1.0;  // 1 token / modeled second
    starved.bucket_burst = 1;
    BreakerConfig breaker;
    breaker.enabled = true;
    breaker.window = 4;
    breaker.trip_shed_fraction = 0.5;
    breaker.cooldown = 3;
    breaker.probe_interval = 2;
    breaker.close_after_probes = 2;
    TenantTable table({starved}, breaker, {});

    // Window of 4: one admit then 3 bucket sheds (3/4 >= 0.5) trips.
    EXPECT_EQ(Admit(&table, 9, 0), AdmitOutcome::kAdmitted);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(Admit(&table, 9, 0), AdmitOutcome::kShedBucket);
    {
        const TenantSnapshot ts = table.Snapshot().front();
        EXPECT_EQ(ts.breaker_state, BreakerState::kOpen);
        EXPECT_EQ(ts.counters.breaker_trips, 1u);
    }
    // Open: 3 cooldown rejections at O(1), never reaching the bucket.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(Admit(&table, 9, 0), AdmitOutcome::kShedBreaker);
    {
        const TenantSnapshot ts = table.Snapshot().front();
        EXPECT_EQ(ts.breaker_state, BreakerState::kHalfOpen);
    }
    // Half-open, bucket still empty: the probe itself sheds downstream,
    // which re-opens the breaker — the overload is not over.
    EXPECT_EQ(Admit(&table, 9, 0), AdmitOutcome::kShedBucket);
    {
        const TenantSnapshot ts = table.Snapshot().front();
        EXPECT_EQ(ts.breaker_state, BreakerState::kOpen);
        EXPECT_EQ(ts.counters.breaker_trips, 2u);
        EXPECT_EQ(ts.counters.breaker_probes, 1u);
    }
    // Second cooldown, then half-open again — this time the bucket has
    // refilled (arrival 5 s out), so probes succeed. With
    // probe_interval 2, every other submission is a probe and the
    // non-probes shed; close_after_probes == 2 probes close it.
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(Admit(&table, 9, 5e9), AdmitOutcome::kShedBreaker);
    EXPECT_EQ(Admit(&table, 9, 5e9), AdmitOutcome::kAdmitted);  // probe
    EXPECT_EQ(Admit(&table, 9, 5e9),
              AdmitOutcome::kShedBreaker);  // non-probe
    EXPECT_EQ(Admit(&table, 9, 6e9), AdmitOutcome::kAdmitted);  // probe
    {
        const TenantSnapshot ts = table.Snapshot().front();
        EXPECT_EQ(ts.breaker_state, BreakerState::kClosed);
        EXPECT_EQ(ts.counters.breaker_probes, 3u);
    }
}

TEST(TenantTableTest, BrownoutShedsLowestPriorityFirst)
{
    TenantConfig low, high, slo;
    low.id = 1;
    low.priority = 0;
    high.id = 2;
    high.priority = 2;
    slo.id = 3;
    slo.priority = 0;
    slo.slo = true;
    BrownoutConfig brownout;
    brownout.start_wait_ns = 1000;
    brownout.full_wait_ns = 2000;
    TenantTable table({low, high, slo}, {}, brownout);

    // Below the onset: everyone admitted.
    EXPECT_EQ(Admit(&table, 1, 0, 500), AdmitOutcome::kAdmitted);
    // Mid-brownout (f = 0.6, cutoff = 1.2): priority 0 sheds,
    // priority 2 holds, the SLO tenant holds at any priority.
    EXPECT_EQ(Admit(&table, 1, 0, 1600), AdmitOutcome::kShedBrownout);
    EXPECT_EQ(Admit(&table, 2, 0, 1600), AdmitOutcome::kAdmitted);
    EXPECT_EQ(Admit(&table, 3, 0, 1600), AdmitOutcome::kAdmitted);
    // Full brownout (cutoff = max priority): only the top priority and
    // SLO tenants survive.
    EXPECT_EQ(Admit(&table, 1, 0, 5000), AdmitOutcome::kShedBrownout);
    EXPECT_EQ(Admit(&table, 2, 0, 5000), AdmitOutcome::kAdmitted);
    EXPECT_EQ(Admit(&table, 3, 0, 5000), AdmitOutcome::kAdmitted);
}

TEST(TenantTableTest, PerTenantWaitBoundIsolatesNeighbors)
{
    TenantConfig bounded;
    bounded.id = 4;
    bounded.admission_max_wait_ns = 5000;
    TenantConfig unbounded;
    unbounded.id = 5;
    TenantTable table({bounded, unbounded}, {}, {});
    table.FoldServiceEstimate(4, 2000);
    table.FoldServiceEstimate(5, 2000);
    // Build tenant 4's own backlog to 3 pending (3 x 2000 > 5000).
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(Admit(&table, 4, 0), AdmitOutcome::kAdmitted);
    EXPECT_EQ(Admit(&table, 4, 0), AdmitOutcome::kShedWait);
    // Tenant 5 is untouched by its neighbor's backlog.
    EXPECT_EQ(Admit(&table, 5, 0), AdmitOutcome::kAdmitted);
    // Tenant 4's work completing re-opens its own admission.
    table.OnWorkerFinished(4);
    EXPECT_EQ(Admit(&table, 4, 0), AdmitOutcome::kAdmitted);
}

class TenantRuntimeTest : public ::testing::Test
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

    RpcServerRuntime::BackendFactory
    HybridFactory()
    {
        return [this](uint32_t) {
            return std::make_unique<HybridCodecBackend>(
                std::make_unique<AcceleratedBackend>(pool_),
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

    /// Submit one echo for @p tenant; @return true when admitted.
    bool
    SubmitOne(RpcServerRuntime *runtime, uint16_t tenant,
              uint32_t call_id, uint64_t key = 0, double arrival_ns = 0)
    {
        const std::vector<uint8_t> wire = RequestWire(call_id);
        FrameHeader h;
        h.call_id = call_id;
        h.method_id = 1;
        h.kind = FrameKind::kRequest;
        h.payload_bytes = static_cast<uint32_t>(wire.size());
        h.tenant_id = tenant;
        h.idempotency_key = key;
        return StatusOk(runtime->Submit(h, wire.data(), arrival_ns));
    }

    DescriptorPool pool_;
    int req_ = -1;
    int rsp_ = -1;
};

TEST_F(TenantRuntimeTest, WeightZeroTenantScavengesWithoutStarving)
{
    accel::SharedAccelQueue queue;
    TenantConfig weighted;
    weighted.id = 1;
    weighted.weight = 4.0;
    TenantConfig scavenger;
    scavenger.id = 2;
    scavenger.weight = 0;
    RuntimeConfig config;
    config.num_workers = 2;
    config.max_batch = 4;
    config.shared_accel = &queue;
    config.tenants = {weighted, scavenger};
    config.dwrr_quantum_cycles = 256;
    RpcServerRuntime runtime(&pool_, HybridFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());

    // Interleave the two tenants across both workers, preloaded so
    // batch boundaries (and thus the contended replay) are exact.
    uint32_t call_id = 1;
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(SubmitOne(&runtime, 1, call_id++));
        ASSERT_TRUE(SubmitOne(&runtime, 2, call_id++));
    }
    runtime.Start();
    runtime.Drain();
    runtime.Shutdown();

    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.calls, 64u);
    EXPECT_EQ(snap.failures, 0u);
    // The scavenger is never starved outright — every one of its calls
    // completed — but device service skews toward the weighted tenant.
    const TenantSnapshot &w = SnapshotOf(snap.tenants, 1);
    const TenantSnapshot &s = SnapshotOf(snap.tenants, 2);
    EXPECT_EQ(w.counters.calls_completed, 32u);
    EXPECT_EQ(s.counters.calls_completed, 32u);
    EXPECT_GT(w.counters.accel_cycles_granted, 0u);
    EXPECT_GT(s.counters.accel_cycles_granted, 0u);
}

TEST_F(TenantRuntimeTest, DedupKeysAreTenantScoped)
{
    RuntimeConfig config;
    config.num_workers = 1;
    config.dedup_capacity = 64;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    // Count true handler executions per (tenant, key).
    std::map<std::pair<uint16_t, uint64_t>, int> executions;
    std::mutex mu;
    runtime.SetExecObserver([&](uint16_t tenant, uint64_t key) {
        std::lock_guard<std::mutex> lock(mu);
        ++executions[{tenant, key}];
    });

    constexpr uint64_t kKey = 0x1234'5678'9abc'def0ull;
    // Same idempotency key from two different tenants: two distinct
    // logical calls — both must execute (with a tenant-blind cache,
    // tenant 8's call would wrongly replay tenant 7's response).
    ASSERT_TRUE(SubmitOne(&runtime, 7, 1, kKey));
    ASSERT_TRUE(SubmitOne(&runtime, 8, 2, kKey));
    // A genuine same-tenant retry must still dedup to one execution.
    ASSERT_TRUE(SubmitOne(&runtime, 7, 3, kKey));
    runtime.Start();
    runtime.Drain();
    runtime.Shutdown();

    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_EQ(snap.calls, 3u);
    EXPECT_EQ(snap.dedup_hits, 1u);
    EXPECT_EQ((executions[{7, kKey}]), 1);
    EXPECT_EQ((executions[{8, kKey}]), 1);
    // The v2 snapshot format round-trips the tenant scoping.
    const std::vector<uint8_t> image = runtime.SerializeDedup();
    ASSERT_FALSE(image.empty());
    RpcServerRuntime restored(&pool_, SoftwareFactory(), config);
    restored.RegisterMethod(1, req_, rsp_, EchoHandler());
    int restored_execs = 0;
    restored.SetExecObserver(
        [&](uint16_t, uint64_t) { ++restored_execs; });
    ASSERT_TRUE(restored.RestoreDedup(image.data(), image.size()));
    ASSERT_TRUE(SubmitOne(&restored, 7, 1, kKey));  // cached: replays
    ASSERT_TRUE(SubmitOne(&restored, 9, 2, kKey));  // new tenant: runs
    restored.Start();
    restored.Drain();
    const RuntimeSnapshot rs = restored.Snapshot();
    EXPECT_EQ(rs.dedup_hits, 1u);
    EXPECT_EQ(restored_execs, 1);
}

TEST_F(TenantRuntimeTest, SameSeedProducesBitIdenticalSnapshots)
{
    // The determinism regression: with retries (duplicate idempotency
    // keys), injected worker kills, tenant admission and the breaker
    // all live, two runs from the same seed must agree on every
    // counter and every modeled latency, bit for bit. Counter-based
    // retry jitter is what makes the client half hold; the event-sim
    // replay discipline covers the server half. Software codec engine:
    // the accelerated model prices real host pointers through the
    // TLB/cache hierarchy, so its cycle counts are a function of heap
    // layout — two runtimes in one process see different allocator
    // state, and cross-run bit-equality is only defined for the
    // layout-independent software cost model.
    struct RunResult
    {
        uint64_t calls, failures, shed, redispatched, crashed;
        std::vector<CallRecord> records;
        std::vector<TenantSnapshot> tenants;
        double span_ns;
    };
    auto run = [&](uint64_t seed) {
        sim::FaultConfig fault_config;
        fault_config.worker_kills.push_back({0, 10});
        sim::FaultInjector injector(seed, fault_config);
        TenantConfig a, b;
        a.id = 1;
        a.weight = 3.0;
        a.bucket_rate_per_s = 4e6;
        a.bucket_burst = 24;
        b.id = 2;
        b.weight = 1.0;
        RuntimeConfig config;
        config.num_workers = 2;
        config.max_batch = 4;
        config.tenants = {a, b};
        config.breaker.enabled = true;
        config.breaker.window = 16;
        config.dedup_capacity = 256;
        config.fault_injector = &injector;
        RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
        runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
        for (int i = 0; i < 48; ++i) {
            const uint16_t tenant = 1 + (i % 2);
            const uint64_t key = 0x9000'0000ull + i;
            // The retry carries the same key and the same call-id
            // parity, so it shards to the same worker as the original
            // and its dedup lookup is sequenced, not raced.
            SubmitOne(&runtime, tenant, i + 1, key,
                      static_cast<double>(i) * 250.0);
            if (i % 5 == 0)  // a retry of the same logical call
                SubmitOne(&runtime, tenant, i + 97, key,
                          static_cast<double>(i) * 250.0 + 100.0);
        }
        runtime.Start();
        runtime.Drain();
        runtime.Shutdown();
        const RuntimeSnapshot snap = runtime.Snapshot();
        RunResult r;
        r.calls = snap.calls;
        r.failures = snap.failures;
        r.shed = snap.shed;
        r.redispatched = snap.redispatched_frames;
        r.crashed = snap.workers_crashed;
        r.records = runtime.TakeCallRecords();
        r.tenants = snap.tenants;
        r.span_ns = snap.modeled_span_ns;
        return r;
    };

    const RunResult x = run(0xfeedu);
    const RunResult y = run(0xfeedu);
    EXPECT_EQ(x.calls, y.calls);
    EXPECT_EQ(x.failures, y.failures);
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.redispatched, y.redispatched);
    EXPECT_EQ(x.crashed, 1u);  // the kill really fired
    EXPECT_EQ(x.crashed, y.crashed);
    EXPECT_GT(x.redispatched, 0u);  // recovery really happened
    EXPECT_EQ(x.span_ns, y.span_ns);  // bit-identical doubles
    ASSERT_EQ(x.records.size(), y.records.size());
    for (size_t i = 0; i < x.records.size(); ++i) {
        EXPECT_EQ(x.records[i].tenant, y.records[i].tenant);
        EXPECT_EQ(x.records[i].latency_ns, y.records[i].latency_ns);
    }
    ASSERT_EQ(x.tenants.size(), y.tenants.size());
    for (size_t i = 0; i < x.tenants.size(); ++i) {
        EXPECT_EQ(x.tenants[i].counters.admitted,
                  y.tenants[i].counters.admitted);
        EXPECT_EQ(x.tenants[i].counters.shed_bucket,
                  y.tenants[i].counters.shed_bucket);
        EXPECT_EQ(x.tenants[i].counters.calls_completed,
                  y.tenants[i].counters.calls_completed);
        EXPECT_EQ(x.tenants[i].counters.accel_cycles_granted,
                  y.tenants[i].counters.accel_cycles_granted);
        EXPECT_EQ(x.tenants[i].est_call_ns, y.tenants[i].est_call_ns);
    }
}

TEST_F(TenantRuntimeTest, RetryBudgetSuppressesRetryStorms)
{
    // A lossy channel with an empty retry budget must fail fast
    // (suppressed retries) instead of amplifying load; with no budget
    // configured the pre-budget unlimited-retry behavior holds.
    auto run = [&](double budget_ratio) {
        RpcServer server(&pool_, std::make_unique<SoftwareBackend>(
                                     cpu::BoomParams(), pool_));
        server.RegisterMethod(1, req_, rsp_, EchoHandler());
        RpcSession session(&pool_,
                           std::make_unique<SoftwareBackend>(
                               cpu::BoomParams(), pool_),
                           &server, SimulatedChannel{});
        RetryPolicy policy;
        policy.max_attempts = 6;
        policy.retry_budget_ratio = budget_ratio;
        policy.retry_budget_cap = 1.0;
        policy.max_backoff_ns = 200'000;
        session.set_retry_policy(policy);
        session.set_jitter_seed(0xfeedu);
        sim::FaultConfig faults;
        faults.frame_drop_rate = 0.5;
        sim::FaultInjector injector(0xfeedu, faults);
        session.SetFaultInjector(&injector);
        proto::Arena arena;
        Message request = Message::Create(&arena, pool_, req_);
        for (int i = 0; i < 40; ++i) {
            Message response = Message::Create(&arena, pool_, rsp_);
            session.Call(1, request, &response);
        }
        return session.breakdown();
    };
    const RpcTimeBreakdown unlimited = run(0);
    EXPECT_GT(unlimited.retries, 0u);
    EXPECT_EQ(unlimited.retries_suppressed, 0u);
    EXPECT_GT(unlimited.backoff_ns, 0.0);

    const RpcTimeBreakdown budgeted = run(0.1);
    EXPECT_GT(budgeted.retries_suppressed, 0u);
    // ~0.1 tokens per call over 40 calls + cap 1: a handful of retries
    // at most, far below the unlimited session's storm.
    EXPECT_LT(budgeted.retries, unlimited.retries);
    EXPECT_LE(budgeted.retries, 6u);
}

TEST_F(TenantRuntimeTest, PriorityBatchingJumpsQueue)
{
    // One worker, preloaded inbox: 8 low-priority frames then 8
    // high-priority ones. With priority_batching the high tier must
    // execute first (stable within a tier); with the default FIFO grab
    // the submission order holds.
    auto run = [&](bool priority_batching) {
        TenantConfig low;
        low.id = 1;
        low.priority = 0;
        TenantConfig high;
        high.id = 2;
        high.priority = 5;
        RuntimeConfig config;
        config.num_workers = 1;
        config.max_batch = 4;
        config.tenants = {low, high};
        config.priority_batching = priority_batching;
        RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
        std::vector<uint32_t> order;  // one worker: sequential handler
        runtime.RegisterMethod(
            1, req_, rsp_, [&](const Message &request, Message response) {
                const auto &rd = pool_.message(req_);
                order.push_back(
                    request.GetUint32(*rd.FindFieldByName("tag")));
                (void)response;
            });
        for (uint32_t i = 0; i < 8; ++i)
            EXPECT_TRUE(SubmitOne(&runtime, 1, 100 + i));
        for (uint32_t i = 0; i < 8; ++i)
            EXPECT_TRUE(SubmitOne(&runtime, 2, 200 + i));
        runtime.Start();
        runtime.Drain();
        runtime.Shutdown();
        return order;
    };

    std::vector<uint32_t> expect_fifo, expect_priority;
    for (uint32_t i = 0; i < 8; ++i)
        expect_fifo.push_back(100 + i);
    for (uint32_t i = 0; i < 8; ++i) {
        expect_fifo.push_back(200 + i);
        expect_priority.push_back(200 + i);
    }
    for (uint32_t i = 0; i < 8; ++i)
        expect_priority.push_back(100 + i);

    EXPECT_EQ(run(false), expect_fifo);
    EXPECT_EQ(run(true), expect_priority);
}

TEST_F(TenantRuntimeTest, LegacySingleTenantPathUnchanged)
{
    // With no tenant features configured the layer must stay
    // disengaged: no tenant snapshots, identical admission semantics.
    RuntimeConfig config;
    config.num_workers = 1;
    config.admission_max_wait_ns = 10'000;
    RpcServerRuntime runtime(&pool_, SoftwareFactory(), config);
    runtime.RegisterMethod(1, req_, rsp_, EchoHandler());
    uint32_t admitted = 0;
    for (uint32_t i = 1; i <= 50; ++i)
        admitted += SubmitOne(&runtime, 0, i);
    EXPECT_EQ(admitted, 6u);  // the exact pre-tenant shed point
    runtime.Start();
    runtime.Drain();
    const RuntimeSnapshot snap = runtime.Snapshot();
    EXPECT_TRUE(snap.tenants.empty());
    EXPECT_EQ(snap.calls, admitted);
    EXPECT_EQ(snap.shed, 50u - admitted);
}

}  // namespace
}  // namespace protoacc::rpc
