/**
 * Figure 13: HyperProtoBench serialization results — six synthetic
 * services generated from fitted fleet shapes (§5.2), run on
 * riscv-boom, Xeon, and riscv-boom-accel.
 *
 * A second table reports host wall-clock throughput of the table
 * interpreter vs the schema-specialized generated codecs on the same
 * workloads (see fig12 for the deserialization twin).
 */
#include <cstdio>

#include "hpb/generator.h"
#include "proto/codec_generated.h"

using namespace protoacc;
using namespace protoacc::harness;

int
main()
{
    profile::Fleet fleet{profile::FleetParams{}};
    const auto benches = hpb::BuildHyperProtoBench(fleet);
    const cpu::CpuParams boom = cpu::BoomParams();
    const cpu::CpuParams xeon = cpu::XeonParams();
    const accel::AccelConfig accel_cfg;

    std::vector<FigureRow> rows;
    for (const auto &b : benches) {
        FigureRow row;
        row.name = b.name;
        row.boom = CpuSerialize(boom, b.workload, /*repeats=*/4).gbps;
        row.xeon = CpuSerialize(xeon, b.workload, /*repeats=*/4).gbps;
        row.accel =
            AccelSerialize(b.workload, accel_cfg, /*repeats=*/4).gbps;
        rows.push_back(row);
    }
    const FigureRow gm =
        PrintFigure("Figure 13: HyperProtoBench serialization results",
                    rows);

    // §5.2 extrapolation: the accelerator removes the offloadable
    // ser/deser/bytesize cycles (3.45% of fleet cycles, §3.2) except
    // the 1/speedup fraction the accelerated system still spends.
    const double saved = 3.45 * (1.0 - gm.boom / gm.accel);
    std::printf(
        "\n  extrapolated fleet-cycle savings from offloading "
        "ser+deser: %.2f%% of fleet cycles (paper: >2.5%%)\n",
        saved);

    std::printf(
        "\nHost wall-clock serialization: table interpreter vs "
        "generated codecs\n");
    std::printf("  %-18s %12s %12s %10s\n", "benchmark", "table",
                "generated", "gen/table");
    std::printf("  %-18s %12s %12s %10s\n", "", "(Gbit/s)", "(Gbit/s)",
                "");
    std::vector<double> ratios;
    for (const auto &b : benches) {
        const proto::GeneratedPoolCodec *codec =
            proto::GetGeneratedCodec(*b.workload.pool);
        if (codec == nullptr || !codec->covers(b.workload.msg_index)) {
            std::printf("  %-18s %12s\n", b.name.c_str(),
                        "(no codec linked)");
            continue;
        }
        const double table =
            HostWallSerialize(proto::SoftwareCodecEngine::kTable,
                              b.workload, /*repeats=*/4)
                .gbps;
        const double gen =
            HostWallSerialize(proto::SoftwareCodecEngine::kGenerated,
                              b.workload, /*repeats=*/4)
                .gbps;
        std::printf("  %-18s %12.3f %12.3f %9.2fx\n", b.name.c_str(),
                    table, gen, gen / table);
        ratios.push_back(gen / table);
    }
    if (!ratios.empty())
        std::printf("  %-18s %12s %12s %9.2fx\n", "geomean", "", "",
                    GeoMean(ratios));
    return 0;
}
