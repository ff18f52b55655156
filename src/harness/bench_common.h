/**
 * @file
 * Benchmark harness: runs a workload on the paper's three systems —
 * "riscv-boom" (software codec + BOOM cost model), "Xeon" (software
 * codec + Xeon cost model) and "riscv-boom-accel" (the accelerator
 * model) — and reports throughput in Gbit/s of encoded data, exactly as
 * §5.1 defines it ("dividing the total amount of serialized message
 * data consumed/produced by the time to process the batch").
 */
#ifndef PROTOACC_HARNESS_BENCH_COMMON_H
#define PROTOACC_HARNESS_BENCH_COMMON_H

#include <functional>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "cpu/cpu_model.h"
#include "proto/parser.h"
#include "proto/serializer.h"
#include "proto/software_codec.h"

namespace protoacc::harness {

/// Result of one benchmark on one system.
struct Throughput
{
    double gbps = 0;
    double cycles = 0;
    double wire_bytes = 0;
};

/// A batch workload: one message type and a set of populated instances
/// (pre-populated, as in §5.1: "operating on a pre-populated set of
/// serialized messages or C++ message objects").
struct Workload
{
    const proto::DescriptorPool *pool = nullptr;
    int msg_index = -1;
    /// Instances to serialize / wire images to deserialize.
    std::vector<proto::Message> messages;
    std::vector<std::vector<uint8_t>> wires;
    /// Total encoded bytes across the batch.
    double total_wire_bytes = 0;
};

/// Build the wire images for a workload's messages.
void FillWires(Workload *workload);

/// Deserialization throughput on a CPU cost model.
Throughput CpuDeserialize(const cpu::CpuParams &params,
                          const Workload &workload, int repeats = 8);

/// Serialization (ByteSize + write passes) throughput on a CPU model.
Throughput CpuSerialize(const cpu::CpuParams &params,
                        const Workload &workload, int repeats = 8);

/// Deserialization throughput on the accelerator model.
Throughput AccelDeserialize(const Workload &workload,
                            const accel::AccelConfig &config,
                            int repeats = 8);

/// Serialization throughput on the accelerator model.
Throughput AccelSerialize(const Workload &workload,
                          const accel::AccelConfig &config,
                          int repeats = 8);

/**
 * Host wall-clock deserialization throughput of one software engine
 * (reference / table / generated), measured with a monotonic clock and
 * no cost sink: this is the build host's real time, complementary to
 * the modeled-cycle numbers above. Throughput::cycles carries elapsed
 * nanoseconds. Requires a generated codec covering the workload's type
 * when @p engine is kGenerated (the entry points PA_CHECK).
 */
Throughput HostWallDeserialize(proto::SoftwareCodecEngine engine,
                               const Workload &workload,
                               int repeats = 8);

/// Host wall-clock serialization (sizing + write) throughput of one
/// software engine; see HostWallDeserialize.
Throughput HostWallSerialize(proto::SoftwareCodecEngine engine,
                             const Workload &workload, int repeats = 8);

/// One row of a figure: benchmark name + per-system throughput.
struct FigureRow
{
    std::string name;
    double boom = 0;
    double xeon = 0;
    double accel = 0;
};

/// Print a paper-style figure table with a geomean summary row and the
/// accel/boom and accel/Xeon speedups. Returns the geomean row.
FigureRow PrintFigure(const std::string &title,
                      const std::vector<FigureRow> &rows);

/// Geometric mean helper (0 entries -> 0).
double GeoMean(const std::vector<double> &values);

/**
 * Linear-interpolated percentile of @p values (p in [0,100]); 0 when
 * empty. Sorts a copy: fine for per-run latency reporting.
 */
double Percentile(std::vector<double> values, double p);

/**
 * Exact (nearest-rank) percentile of @p values (p in (0,100]); 0 when
 * empty. Unlike the interpolated Percentile above, this returns a
 * value that actually occurred — the right statistic for tail SLO
 * reporting (an interpolated p99 can name a latency no request ever
 * saw). Sorts a copy.
 */
double ExactPercentile(std::vector<double> values, double p);

}  // namespace protoacc::harness

#endif  // PROTOACC_HARNESS_BENCH_COMMON_H
