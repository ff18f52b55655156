#include "harness/bench_common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace protoacc::harness {

void
FillWires(Workload *workload)
{
    workload->wires.clear();
    workload->total_wire_bytes = 0;
    for (const auto &m : workload->messages) {
        workload->wires.push_back(proto::Serialize(m));
        workload->total_wire_bytes +=
            static_cast<double>(workload->wires.back().size());
    }
}

Throughput
CpuDeserialize(const cpu::CpuParams &params, const Workload &workload,
               int repeats)
{
    cpu::CpuCostModel model(params);
    double bytes = 0;
    for (int r = 0; r < repeats; ++r) {
        proto::Arena arena;
        for (const auto &wire : workload.wires) {
            proto::Message dest = proto::Message::Create(
                &arena, *workload.pool, workload.msg_index);
            const proto::ParseStatus st = proto::ParseFromBuffer(
                wire.data(), wire.size(), &dest, &model);
            PA_CHECK_EQ(static_cast<int>(st),
                        static_cast<int>(proto::ParseStatus::kOk));
            bytes += static_cast<double>(wire.size());
        }
    }
    Throughput t;
    t.cycles = model.cycles();
    t.wire_bytes = bytes;
    t.gbps = model.ThroughputGbps(bytes);
    return t;
}

Throughput
CpuSerialize(const cpu::CpuParams &params, const Workload &workload,
             int repeats)
{
    cpu::CpuCostModel model(params);
    double bytes = 0;
    std::vector<uint8_t> buffer(1 << 22);
    for (int r = 0; r < repeats; ++r) {
        for (const auto &m : workload.messages) {
            const size_t n = proto::SerializeToBuffer(
                m, buffer.data(), buffer.size(), &model);
            // n == 0 is legal only for genuinely empty messages.
            PA_CHECK(n > 0 || proto::ByteSize(m) == 0);
            bytes += static_cast<double>(n);
        }
    }
    Throughput t;
    t.cycles = model.cycles();
    t.wire_bytes = bytes;
    t.gbps = model.ThroughputGbps(bytes);
    return t;
}

Throughput
AccelDeserialize(const Workload &workload,
                 const accel::AccelConfig &config, int repeats)
{
    sim::MemorySystem memory{sim::MemorySystemConfig{}};
    accel::ProtoAccelerator device(&memory, config);
    proto::Arena adt_arena;
    accel::AdtBuilder adts(*workload.pool, &adt_arena);

    double cycles = 0;
    double bytes = 0;
    for (int r = 0; r < repeats; ++r) {
        proto::Arena dest_arena;
        proto::Arena accel_arena;
        device.DeserAssignArena(&accel_arena);
        for (const auto &wire : workload.wires) {
            proto::Message dest = proto::Message::Create(
                &dest_arena, *workload.pool, workload.msg_index);
            device.EnqueueDeser(accel::MakeDeserJob(
                adts, workload.msg_index, *workload.pool, dest.raw(),
                wire.data(), wire.size()));
            bytes += static_cast<double>(wire.size());
        }
        uint64_t batch_cycles = 0;
        const accel::AccelStatus st =
            device.BlockForDeserCompletion(&batch_cycles);
        PA_CHECK_EQ(static_cast<int>(st),
                    static_cast<int>(accel::AccelStatus::kOk));
        cycles += static_cast<double>(batch_cycles);
    }
    Throughput t;
    t.cycles = cycles;
    t.wire_bytes = bytes;
    t.gbps = bytes * 8.0 * config.freq_ghz / cycles;
    return t;
}

Throughput
AccelSerialize(const Workload &workload, const accel::AccelConfig &config,
               int repeats)
{
    sim::MemorySystem memory{sim::MemorySystemConfig{}};
    accel::ProtoAccelerator device(&memory, config);
    proto::Arena adt_arena;
    accel::AdtBuilder adts(*workload.pool, &adt_arena);
    // Size the output arena generously for one batch.
    accel::SerArena ser_arena(
        static_cast<size_t>(workload.total_wire_bytes) * 2 + (64 << 10));
    double cycles = 0;
    double bytes = 0;
    for (int r = 0; r < repeats; ++r) {
        ser_arena.Reset();
        device.SerAssignArena(&ser_arena);
        for (const auto &m : workload.messages) {
            device.EnqueueSer(accel::MakeSerJob(
                adts, workload.msg_index, *workload.pool, m.raw()));
        }
        uint64_t batch_cycles = 0;
        const accel::AccelStatus st =
            device.BlockForSerCompletion(&batch_cycles);
        PA_CHECK_EQ(static_cast<int>(st),
                    static_cast<int>(accel::AccelStatus::kOk));
        cycles += static_cast<double>(batch_cycles);
        bytes += static_cast<double>(ser_arena.bytes_used());
    }
    Throughput t;
    t.cycles = cycles;
    t.wire_bytes = bytes;
    t.gbps = bytes * 8.0 * config.freq_ghz / cycles;
    return t;
}

namespace {

double
ElapsedNs(std::chrono::steady_clock::time_point start)
{
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

}  // namespace

Throughput
HostWallDeserialize(proto::SoftwareCodecEngine engine,
                    const Workload &workload, int repeats)
{
    const proto::SoftwareCodec &codec = proto::SoftwareCodecFor(engine);
    // One untimed warm-up pass: the generated engine's text segment for
    // a HyperProtoBench pool is megabytes of emitted code, and paying
    // its first-touch page-ins inside the timed region would bill a
    // one-time cost to a steady-state throughput number.
    {
        proto::Arena arena;
        for (const auto &wire : workload.wires) {
            proto::Message dest = proto::Message::Create(
                &arena, *workload.pool, workload.msg_index);
            (void)codec.parse(wire.data(), wire.size(), &dest, nullptr,
                              nullptr);
        }
    }
    double bytes = 0;
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
        proto::Arena arena;
        for (const auto &wire : workload.wires) {
            proto::Message dest = proto::Message::Create(
                &arena, *workload.pool, workload.msg_index);
            const proto::ParseStatus st = codec.parse(
                wire.data(), wire.size(), &dest, nullptr, nullptr);
            PA_CHECK_EQ(static_cast<int>(st),
                        static_cast<int>(proto::ParseStatus::kOk));
            bytes += static_cast<double>(wire.size());
        }
    }
    Throughput t;
    t.cycles = ElapsedNs(start);
    t.wire_bytes = bytes;
    t.gbps = bytes * 8.0 / t.cycles;  // bits per nanosecond == Gbit/s
    return t;
}

Throughput
HostWallSerialize(proto::SoftwareCodecEngine engine,
                  const Workload &workload, int repeats)
{
    const proto::SoftwareCodec &codec = proto::SoftwareCodecFor(engine);
    double bytes = 0;
    std::vector<uint8_t> buffer(1 << 22);
    // Untimed warm-up pass; see HostWallDeserialize.
    for (const auto &m : workload.messages)
        (void)codec.serialize_to(m, buffer.data(), buffer.size(), nullptr);
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < repeats; ++r) {
        for (const auto &m : workload.messages) {
            const size_t n = codec.serialize_to(m, buffer.data(),
                                                buffer.size(), nullptr);
            PA_CHECK(n > 0 || proto::ByteSize(m) == 0);
            bytes += static_cast<double>(n);
        }
    }
    Throughput t;
    t.cycles = ElapsedNs(start);
    t.wire_bytes = bytes;
    t.gbps = bytes * 8.0 / t.cycles;
    return t;
}

double
GeoMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0;
    double log_sum = 0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

FigureRow
PrintFigure(const std::string &title, const std::vector<FigureRow> &rows)
{
    std::printf("%s\n", title.c_str());
    std::printf("  %-18s %12s %12s %18s %10s %10s\n", "benchmark",
                "riscv-boom", "Xeon", "riscv-boom-accel", "vs-boom",
                "vs-Xeon");
    std::printf("  %-18s %12s %12s %18s %10s %10s\n", "", "(Gbit/s)",
                "(Gbit/s)", "(Gbit/s)", "", "");
    std::vector<double> boom, xeon, acc;
    for (const auto &row : rows) {
        std::printf("  %-18s %12.3f %12.3f %18.3f %9.2fx %9.2fx\n",
                    row.name.c_str(), row.boom, row.xeon, row.accel,
                    row.accel / row.boom, row.accel / row.xeon);
        boom.push_back(row.boom);
        xeon.push_back(row.xeon);
        acc.push_back(row.accel);
    }
    FigureRow gm;
    gm.name = "geomean";
    gm.boom = GeoMean(boom);
    gm.xeon = GeoMean(xeon);
    gm.accel = GeoMean(acc);
    std::printf("  %-18s %12.3f %12.3f %18.3f %9.2fx %9.2fx\n",
                gm.name.c_str(), gm.boom, gm.xeon, gm.accel,
                gm.accel / gm.boom, gm.accel / gm.xeon);
    return gm;
}

double
Percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = lo + 1 < values.size() ? lo + 1 : lo;
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
ExactPercentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    // Nearest-rank definition: the smallest value with at least p% of
    // the sample at or below it, i.e. element ceil(p/100 * N), 1-based.
    // The epsilon keeps an exact-integer rank exact: 99.9/100 * 1000
    // rounds up to 999.0000000000001, which must stay rank 999.
    const double n = static_cast<double>(values.size());
    double rank = std::ceil(p / 100.0 * n - 1e-9);
    if (rank < 1.0)
        rank = 1.0;
    if (rank > n)
        rank = n;
    return values[static_cast<size_t>(rank) - 1];
}

}  // namespace protoacc::harness
