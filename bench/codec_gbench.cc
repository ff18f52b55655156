/**
 * Wall-clock microbenchmarks of the software codec itself (google-
 * benchmark). These measure this library's real host performance —
 * complementary to the modeled riscv-boom/Xeon/accelerator numbers in
 * the figure benches — and guard against performance regressions in
 * the wire-format primitives and codec.
 *
 * Engine selection: --engine=reference|table|generated (default table)
 * runs every codec benchmark on that software engine, so per-engine
 * rows come from identical workloads in one binary. The generated
 * engine requires the build-time codecs (pa_gen_codecs) to cover the
 * message type each benchmark runs; benchmarks whose type has no
 * emitted code skip with an error rather than silently measuring
 * another engine.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "harness/microbench.h"
#include "hpb/generator.h"
#include "profile/fleet_model.h"
#include "proto/parser.h"
#include "proto/schema_random.h"
#include "proto/serializer.h"
#include "proto/software_codec.h"

using namespace protoacc;
using namespace protoacc::proto;

namespace {

/// Engine every codec row runs on (--engine=).
const SoftwareCodec *g_codec =
    &SoftwareCodecFor(SoftwareCodecEngine::kTable);

ParseStatus
EngineParse(const uint8_t *data, size_t len, Message *msg)
{
    return g_codec->parse(data, len, msg, nullptr, nullptr);
}

size_t
EngineSerializeTo(const Message &msg, uint8_t *buf, size_t cap)
{
    return g_codec->serialize_to(msg, buf, cap, nullptr);
}

/// Labels the row with the engine and, for the generated engine,
/// verifies a linked codec covers @p w's message type, the one type the
/// row runs. Returns false (after SkipWithError) when coverage is
/// missing.
bool
PrepareEngine(benchmark::State &state, const harness::Workload &w)
{
    state.SetLabel(g_codec->name);
    if (ResolveSoftwareCodec(g_codec->engine, *w.pool, w.msg_index).engine !=
        g_codec->engine) {
        state.SkipWithError("no generated codec linked for this type");
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Wire-format primitives (engine-independent).
// ---------------------------------------------------------------------

/// Smallest value whose varint encoding takes exactly @p n bytes.
/// (An earlier version computed 1ull << (7*(n-1)-1), which shifted by -1
/// for n == 1 and measured an (n-1)-byte varint for every other n.)
uint64_t
VarintValueOfLength(int64_t n)
{
    return n <= 1 ? 1ull : 1ull << (7 * (n - 1));
}

void
BM_VarintEncode(benchmark::State &state)
{
    const uint64_t value = VarintValueOfLength(state.range(0));
    uint8_t buf[kMaxVarintBytes];
    for (auto _ : state) {
        benchmark::DoNotOptimize(EncodeVarint(value, buf));
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(state.iterations() * VarintSize(value));
}
BENCHMARK(BM_VarintEncode)->DenseRange(1, 10);

void
BM_VarintDecode(benchmark::State &state)
{
    const uint64_t value = VarintValueOfLength(state.range(0));
    // Decode mid-stream: leave slack after the varint, as a real parse
    // position would have, so the word-at-a-time path is representative.
    uint8_t buf[kMaxVarintBytes + 8] = {};
    const int n = EncodeVarint(value, buf);
    for (auto _ : state) {
        uint64_t out;
        benchmark::DoNotOptimize(
            DecodeVarint(buf, buf + sizeof(buf), &out));
    }
    state.SetBytesProcessed(state.iterations() * n);
}
BENCHMARK(BM_VarintDecode)->DenseRange(1, 10);

// ---------------------------------------------------------------------
// Codec microbenches, engine-selected.
// ---------------------------------------------------------------------

void
BM_SerializeMicrobench(benchmark::State &state)
{
    const auto bench =
        harness::MakeVarintBench(static_cast<int>(state.range(0)),
                                 /*repeated=*/false);
    if (!PrepareEngine(state, bench->workload))
        return;
    std::vector<uint8_t> buf(1 << 16);
    for (auto _ : state) {
        for (const auto &m : bench->workload.messages) {
            benchmark::DoNotOptimize(
                EngineSerializeTo(m, buf.data(), buf.size()));
        }
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>(bench->workload.total_wire_bytes));
}
BENCHMARK(BM_SerializeMicrobench)->Arg(1)->Arg(5)->Arg(10);

void
BM_ParseMicrobench(benchmark::State &state)
{
    const auto bench =
        harness::MakeVarintBench(static_cast<int>(state.range(0)),
                                 /*repeated=*/false);
    if (!PrepareEngine(state, bench->workload))
        return;
    for (auto _ : state) {
        Arena arena;
        for (const auto &wire : bench->workload.wires) {
            Message dest = Message::Create(&arena, *bench->workload.pool,
                                           bench->workload.msg_index);
            benchmark::DoNotOptimize(
                EngineParse(wire.data(), wire.size(), &dest));
        }
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>(bench->workload.total_wire_bytes));
}
BENCHMARK(BM_ParseMicrobench)->Arg(1)->Arg(5)->Arg(10);

// The serving runtime's steady-state pattern vs. the naive one: reuse
// one arena with Reset() per message (bounded reservation, no backing
// allocations after warm-up) against constructing a fresh Arena per
// message (one backing allocation each time).

void
BM_ParseArenaResetReuse(benchmark::State &state)
{
    const auto bench =
        harness::MakeVarintBench(static_cast<int>(state.range(0)),
                                 /*repeated=*/false);
    if (!PrepareEngine(state, bench->workload))
        return;
    Arena arena;
    for (auto _ : state) {
        for (const auto &wire : bench->workload.wires) {
            arena.Reset();
            Message dest = Message::Create(&arena, *bench->workload.pool,
                                           bench->workload.msg_index);
            benchmark::DoNotOptimize(
                EngineParse(wire.data(), wire.size(), &dest));
        }
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>(bench->workload.total_wire_bytes));
    state.counters["arena_blocks"] =
        static_cast<double>(arena.block_count());
}
BENCHMARK(BM_ParseArenaResetReuse)->Arg(1)->Arg(5)->Arg(10);

void
BM_ParseArenaFreshEachMessage(benchmark::State &state)
{
    const auto bench =
        harness::MakeVarintBench(static_cast<int>(state.range(0)),
                                 /*repeated=*/false);
    if (!PrepareEngine(state, bench->workload))
        return;
    for (auto _ : state) {
        for (const auto &wire : bench->workload.wires) {
            Arena arena;
            Message dest = Message::Create(&arena, *bench->workload.pool,
                                           bench->workload.msg_index);
            benchmark::DoNotOptimize(
                EngineParse(wire.data(), wire.size(), &dest));
        }
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>(bench->workload.total_wire_bytes));
}
BENCHMARK(BM_ParseArenaFreshEachMessage)->Arg(1)->Arg(5)->Arg(10);

void
BM_ParseRandomSchema(benchmark::State &state)
{
    Rng rng(state.range(0));
    DescriptorPool pool;
    const int root = GenerateRandomSchema(&pool, &rng,
                                          SchemaGenOptions{});
    pool.Compile();
    harness::Workload w;
    w.pool = &pool;
    w.msg_index = root;
    if (!PrepareEngine(state, w))
        return;
    Arena build_arena;
    Message msg = Message::Create(&build_arena, pool, root);
    PopulateRandomMessage(msg, &rng, MessageGenOptions{});
    const auto wire = Serialize(msg);

    for (auto _ : state) {
        Arena arena;
        Message dest = Message::Create(&arena, pool, root);
        benchmark::DoNotOptimize(
            EngineParse(wire.data(), wire.size(), &dest));
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_ParseRandomSchema)->Arg(3)->Arg(17);

void
BM_StringFieldCopy(benchmark::State &state)
{
    const auto bench = harness::MakeStringBench(
        "s", static_cast<size_t>(state.range(0)));
    if (!PrepareEngine(state, bench->workload))
        return;
    for (auto _ : state) {
        Arena arena;
        for (const auto &wire : bench->workload.wires) {
            Message dest = Message::Create(&arena, *bench->workload.pool,
                                           bench->workload.msg_index);
            benchmark::DoNotOptimize(
                EngineParse(wire.data(), wire.size(), &dest));
        }
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>(bench->workload.total_wire_bytes));
}
BENCHMARK(BM_StringFieldCopy)->Arg(8)->Arg(512)->Arg(65536);

// Serialize-side twin of BM_StringFieldCopy, sized around the table
// writer's short-string (<= 16 B) overlap-copy fast path: 8 and 15 hit
// the fast path, 512 and 65536 take the memcpy route.
void
BM_SerializeString(benchmark::State &state)
{
    const auto bench = harness::MakeStringBench(
        "s", static_cast<size_t>(state.range(0)));
    if (!PrepareEngine(state, bench->workload))
        return;
    std::vector<uint8_t> buf(bench->workload.total_wire_bytes + 64);
    for (auto _ : state) {
        for (const auto &m : bench->workload.messages) {
            benchmark::DoNotOptimize(
                EngineSerializeTo(m, buf.data(), buf.size()));
        }
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>(bench->workload.total_wire_bytes));
}
BENCHMARK(BM_SerializeString)->Arg(8)->Arg(15)->Arg(512)->Arg(65536);

// 32 short elements per message: the per-element tag/length/copy
// sequence dominates, so the writer's <=16 B overlap-copy fast path is
// resolvable above the per-message fixed costs (unlike the singular
// string rows above, where it is noise).
void
BM_SerializeRepeatedString(benchmark::State &state)
{
    const auto bench = harness::MakeRepeatedStringBench(
        "rs", static_cast<size_t>(state.range(0)), /*count=*/32);
    if (!PrepareEngine(state, bench->workload))
        return;
    std::vector<uint8_t> buf(bench->workload.total_wire_bytes + 64);
    for (auto _ : state) {
        for (const auto &m : bench->workload.messages) {
            benchmark::DoNotOptimize(
                EngineSerializeTo(m, buf.data(), buf.size()));
        }
    }
    state.SetBytesProcessed(
        state.iterations() *
        static_cast<int64_t>(bench->workload.total_wire_bytes));
}
BENCHMARK(BM_SerializeRepeatedString)->Arg(8)->Arg(15)->Arg(512);

// ---------------------------------------------------------------------
// HyperProtoBench wall-clock rows: the fleet-representative schemas the
// paper evaluates on (fig12/fig13 model the same workloads in cycles;
// these rows measure real host time per engine).
// ---------------------------------------------------------------------

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

void
BM_HpbParse(benchmark::State &state)
{
    const auto &bench = HpbSuite()[static_cast<size_t>(state.range(0))];
    const harness::Workload &w = bench.workload;
    if (!PrepareEngine(state, w))
        return;
    for (auto _ : state) {
        Arena arena;
        for (const auto &wire : w.wires) {
            Message dest =
                Message::Create(&arena, *w.pool, w.msg_index);
            benchmark::DoNotOptimize(
                EngineParse(wire.data(), wire.size(), &dest));
        }
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(w.total_wire_bytes));
}
BENCHMARK(BM_HpbParse)->DenseRange(0, 5);

void
BM_HpbSerialize(benchmark::State &state)
{
    const auto &bench = HpbSuite()[static_cast<size_t>(state.range(0))];
    const harness::Workload &w = bench.workload;
    if (!PrepareEngine(state, w))
        return;
    std::vector<uint8_t> buf(1 << 20);
    for (auto _ : state) {
        for (const auto &m : w.messages) {
            benchmark::DoNotOptimize(
                EngineSerializeTo(m, buf.data(), buf.size()));
        }
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(w.total_wire_bytes));
}
BENCHMARK(BM_HpbSerialize)->DenseRange(0, 5);

}  // namespace

int
main(int argc, char **argv)
{
    // Strip --engine= before google-benchmark sees the argv (it rejects
    // flags it does not know).
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--engine=", 9) == 0) {
            g_codec = nullptr;
            for (const SoftwareCodecEngine e :
                 {SoftwareCodecEngine::kReference, SoftwareCodecEngine::kTable,
                  SoftwareCodecEngine::kGenerated})
                if (std::strcmp(arg + 9, SoftwareCodecFor(e).name) == 0)
                    g_codec = &SoftwareCodecFor(e);
            if (g_codec == nullptr) {
                std::fprintf(stderr,
                             "codec_gbench: unknown engine '%s' "
                             "(reference|table|generated)\n",
                             arg + 9);
                return 2;
            }
            continue;
        }
        argv[out++] = argv[i];
    }
    argc = out;

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
