/**
 * @file
 * Tests of the benchmark's own helpers, plus a short smoke run of every
 * workload in both modes. Build and run with
 * `python3 perfbench/run.py --selftest`.
 */
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "inputs.h"
#include "metrics.h"
#include "proto/parser.h"
#include "proto/serializer.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

TEST(NearestRank, SmallestSampleWithPPercentAtOrBelow)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(NearestRank(v, 50), 50);
    EXPECT_EQ(NearestRank(v, 99), 99);
    EXPECT_EQ(NearestRank(v, 100), 100);
    EXPECT_EQ(NearestRank({7}, 99), 7);
    EXPECT_TRUE(std::isnan(NearestRank({}, 50)));
}

TEST(NearestRank, FailedCallsCountAsInfinitelyLate)
{
    std::vector<double> v(98, 1.0);
    v.push_back(kInf);
    // One failure in 99: p99 (rank 99) is the failure itself.
    EXPECT_EQ(NearestRank(v, 99), kInf);
    EXPECT_EQ(NearestRank(v, 50), 1.0);
    v.push_back(2.0);
    // 100 samples: rank 99 is the slowest successful call.
    EXPECT_EQ(NearestRank(v, 99), 2.0);
    EXPECT_EQ(NearestRank(v, 100), kInf);
}

TEST(NearestRank, TailNeedsTenSamplesBeyond)
{
    EXPECT_TRUE(HasTailSamples(1000, 99));   // rank 990, 10 beyond
    EXPECT_FALSE(HasTailSamples(999, 99));   // rank 990, 9 beyond
    EXPECT_TRUE(HasTailSamples(20, 50));
    EXPECT_FALSE(HasTailSamples(19, 50));
    EXPECT_FALSE(HasTailSamples(0, 50));
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheSpan)
{
    const Span call{1, 0, 7, SpanKind::kCall, 100, 200};
    const Span deser{2, 1, 7, SpanKind::kDeser, 110, 130};
    const Span overlap{3, 1, 7, SpanKind::kHandler, 120, 150};
    const Span past_end{4, 1, 7, SpanKind::kSer, 190, 250};
    EXPECT_EQ(SelfTimeNs(call, {}), 100u);
    // Covered: [110, 150) and [190, 200) -> 50 ns.
    EXPECT_EQ(SelfTimeNs(call, {past_end, overlap, deser}), 50u);
}

TEST(SelfTime, NestedChildrenCountOnlyAgainstTheirParent)
{
    const Span window{1, 0, 0, SpanKind::kWindow, 0, 1000};
    const Span drain{2, 1, 0, SpanKind::kDrain, 600, 900};
    const Span inner{3, 2, 0, SpanKind::kDeser, 650, 700};
    EXPECT_EQ(SelfTimeNs(window, {drain}), 700u);
    EXPECT_EQ(SelfTimeNs(drain, {inner}), 250u);
    EXPECT_EQ(SelfTimeNs(inner, {}), 50u);
}

TEST(SpanBuffer, KeepsItsCapacityAndCountsTheRest)
{
    SpanBuffer buf(3, 2);
    const uint64_t a = buf.Record(SpanKind::kDeser, 9, 1, 2, CallSpanId(9));
    const uint64_t b = buf.Record(SpanKind::kSer, 9, 3, 4, CallSpanId(9));
    EXPECT_NE(a, 0u);
    EXPECT_NE(a, b);
    EXPECT_EQ(a >> 32, 3u);
    EXPECT_EQ(buf.Record(SpanKind::kSer, 9, 5, 6, 0), 0u);
    EXPECT_EQ(buf.spans().size(), 2u);
    EXPECT_EQ(buf.dropped(), 1u);
    EXPECT_EQ(buf.spans()[0].parent, CallSpanId(9));
}

TEST(GeoMean, OfPositiveFiniteValues)
{
    EXPECT_NEAR(GeoMean({1, 4, 16}), 4.0, 1e-12);
    EXPECT_NEAR(GeoMean({2.5}), 2.5, 1e-12);
    EXPECT_TRUE(std::isnan(GeoMean({})));
    EXPECT_TRUE(std::isnan(GeoMean({1, 0})));
    EXPECT_TRUE(std::isnan(GeoMean({1, kInf})));
}

TEST(Inputs, FleetSizesAreStratifiedAndCut)
{
    protoacc::Rng a(1), b(2);
    const std::vector<size_t> x = DrawFleetSizes(&a, 1000, 512);
    const std::vector<size_t> y = DrawFleetSizes(&b, 1000, 512);
    ASSERT_EQ(x.size(), 1000u);
    // Fig. 3 buckets: 0-8, 9-16, 17-32, ... (upper edges powers of 2).
    const auto bucket_counts = [](const std::vector<size_t> &sizes) {
        std::map<int, int> counts;
        for (const size_t s : sizes)
            ++counts[static_cast<int>(std::ceil(std::log2(
                static_cast<double>(std::max<size_t>(s, 8)))))];
        return counts;
    };
    for (const size_t s : x) {
        EXPECT_GE(s, 1u);
        EXPECT_LE(s, 512u);
    }
    // Different seeds, same mix: identical per-bucket counts.
    EXPECT_EQ(bucket_counts(x), bucket_counts(y));
    EXPECT_NE(x, y);
    EXPECT_NEAR(FleetShareBelow(512), 0.93, 1e-9);
    EXPECT_EQ(FleetShareBelow(0), 1.0);
}

TEST(Inputs, RequestsEchoByteForByte)
{
    const RequestSet req = BuildRequests(5, 64, 512);
    ASSERT_EQ(req.rest.size(), 64u);
    const auto &pool = *req.schema.pool;
    std::vector<uint8_t> wire(1 << 12);
    for (size_t i = 0; i < req.rest.size(); ++i) {
        const uint64_t id = 1000 + i;
        const size_t n = EncodeRequest(id, req.rest[i], wire.data());
        protoacc::proto::Arena arena;
        auto msg = protoacc::proto::Message::Create(&arena, pool,
                                                    req.schema.root);
        ASSERT_EQ(protoacc::proto::ParseFromBuffer(wire.data(), n, &msg),
                  protoacc::proto::ParseStatus::kOk);
        EXPECT_EQ(msg.GetUint64(*req.id_field), id);
        // The canonical re-encoding is the request itself: what the
        // serving probes compare every echo against.
        const std::vector<uint8_t> again = protoacc::proto::Serialize(msg);
        EXPECT_EQ(again, std::vector<uint8_t>(wire.begin(),
                                              wire.begin() + n));
    }
}

TEST(Inputs, DealtWindowsShareOneSizeMix)
{
    constexpr size_t kWindows = 4, kWindow = 64;
    const RequestSet req = BuildRequests(3, kWindows * kWindow, 0, kWindow);
    std::vector<size_t> all;
    for (const auto &r : req.rest)
        all.push_back(r.size());
    std::sort(all.begin(), all.end());
    // Rank r goes to window r mod 4: the k-th smallest template of every
    // window comes from the k-th group of four neighbouring ranks.
    for (size_t w = 0; w < kWindows; ++w) {
        std::vector<size_t> mine;
        for (size_t i = 0; i < kWindow; ++i)
            mine.push_back(req.rest[w * kWindow + i].size());
        std::sort(mine.begin(), mine.end());
        for (size_t k = 0; k < kWindow; ++k) {
            EXPECT_GE(mine[k], all[k * kWindows]);
            EXPECT_LE(mine[k], all[k * kWindows + kWindows - 1]);
        }
    }
}

TEST(FinishMetrics, AnUnmeasuredLayerOnThePathFailsInsteadOfReadingZero)
{
    const WorkloadSpec &small = *FindWorkload("serve_small");
    MetricValues m;
    for (const MetricDef &d : ReportedMetrics(small, true))
        if (d.MeasuredOn(small.name) && d.name != "rpc.ingress_ns")
            m.Set(d.name, 1);
    EXPECT_EQ(FinishMetrics(small, true, &m),
              std::vector<std::string>{"rpc.ingress_ns"});
    EXPECT_FALSE(m.Has("rpc.ingress_ns"));
    // Off serve_small's path: reported, as 0.
    EXPECT_EQ(m.Get("accel.wait_share"), 0);
    // Measured only on the ungated codec_hpb: not reported at all.
    EXPECT_FALSE(m.Has("proto.gen_deser_gbps"));
}

TEST(FinishMetrics, GatedLayersAreThoseAGatedWorkloadMeasures)
{
    const std::vector<MetricDef> gated = GatedLayerMetrics();
    const auto listed = [&gated](const std::string &name) {
        return std::any_of(gated.begin(), gated.end(),
                           [&name](const MetricDef &d) {
                               return d.name == name;
                           });
    };
    EXPECT_TRUE(listed("rpc.ingress_ns"));
    EXPECT_TRUE(listed("accel.wait_share"));
    EXPECT_FALSE(listed("proto.gen_deser_gbps.bench0"));
    EXPECT_FALSE(listed("cpu.boom_deser_gbps"));
}

/// A clean run: no failed check, and every metric it had to measure
/// present and finite.
void
ExpectComplete(const WorkloadSpec &w, bool trace, WorkloadResult *res)
{
    EXPECT_TRUE(res->check_failures.empty())
        << (res->check_failures.empty() ? "" : res->check_failures[0]);
    EXPECT_EQ(res->failed, 0u);
    EXPECT_GT(res->attempted, 0u);
    const std::vector<std::string> missing =
        FinishMetrics(w, trace, &res->metrics);
    EXPECT_TRUE(missing.empty()) << missing.size() << " missing, first "
                                 << (missing.empty() ? "" : missing[0]);
    for (const MetricDef &d : ReportedMetrics(w, trace))
        EXPECT_TRUE(std::isfinite(res->metrics.Get(d.name))) << d.name;
}

RunOptions
SmokeOptions(bool trace)
{
    RunOptions opt;
    opt.seed = 7;
    opt.seconds = 1.0;
    opt.trace = trace;
    opt.setup_reps = 1;
    return opt;
}

class Smoke : public ::testing::TestWithParam<const char *>
{};

TEST_P(Smoke, EveryMetricPresentAndFinite)
{
    const WorkloadSpec *spec = FindWorkload(GetParam());
    ASSERT_NE(spec, nullptr);
    for (const bool trace : {false, true}) {
        WorkloadResult res = spec->run(SmokeOptions(trace));
        ExpectComplete(*spec, trace, &res);
        // End-to-end metrics are measured, never 0.
        if (!trace) {
            for (const MetricDef &d : EndToEndMetrics())
                EXPECT_GT(res.metrics.Get(d.name), 0) << d.name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values("serve_small", "codec_hpb",
                                           "serve_accel"));

TEST(ServeAccel, ReplacingTheRuntimeLeavesQueueingAsItWas)
{
    // Each replacement restarts the workers' modeled clocks, and the
    // shared queue's timeline with them: queueing over a run that
    // replaces its runtime before every pass matches a run that never
    // does, instead of charging each new runtime's first batches the
    // old ones' history.
    const WorkloadSpec &accel = *FindWorkload("serve_accel");
    WorkloadResult every = RunServeAccelReplacing(SmokeOptions(true), true);
    WorkloadResult never = RunServeAccelReplacing(SmokeOptions(true), false);
    ExpectComplete(accel, true, &every);
    ExpectComplete(accel, true, &never);
    for (const char *name : {"accel.wait_share", "accel.contended_batch_frac",
                             "accel.jobs_per_batch"}) {
        const double a = every.metrics.Get(name);
        const double b = never.metrics.Get(name);
        EXPECT_NEAR(a, b, 0.05 * b) << name;
    }
}

}  // namespace
}  // namespace perfbench
