/**
 * @file
 * perfbench: the repository benchmark.
 *
 *     perfbench --workload serve_small|codec_hpb|serve_accel --seed N
 *               --seconds S --trace 0|1 [--trace-out FILE]
 *               [--git-sha SHA] [--source-digest HEX]
 *     perfbench --spec
 *
 * A run prints a human-readable report (provenance, the workload's
 * metrics by name and unit), one provenance JSON line, and as its last
 * line the result: {"correct", "attempted", "failed", "metrics"} with
 * every end-to-end metric (--trace 0) or every per-layer metric of the
 * gated workloads plus the workload's own (--trace 1). A failed output
 * check, or a metric the workload had to measure and did not, exits 1.
 * --spec prints the gated workloads and the metric declarations
 * BENCHMARK.json is rendered from.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "metrics.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Seed kept out of every run made while the benchmark or a change is
/// being written; later claims must also hold on it.
constexpr uint64_t kHeldOutSeed = 2021;

/// Each workload's own headline figures, on the workloads they are
/// defined for, mapped to the metric that carries them.
struct ReportRow
{
    const char *name;
    const char *metric;
    const char *unit;
    const char *workloads;
};

constexpr ReportRow kReport[] = {
    {"wall_qps", "wall_qps", "calls/s", "serve_small serve_accel"},
    {"wall_p50_us", "wall_p50_us", "us", "serve_small"},
    {"wall_p99_us", "wall_p99_us", "us", "serve_small"},
    {"modeled_qps", "modeled_qps", "calls/s", "serve_small serve_accel"},
    {"modeled_p50_us", "modeled_p50_us", "us", "serve_small serve_accel"},
    {"modeled_p99_us", "modeled_p99_us", "us", "serve_small serve_accel"},
    {"fail_frac", "run.fail_frac", "ratio",
     "serve_small codec_hpb serve_accel"},
    {"setup_s", "setup_s", "s", "serve_small codec_hpb serve_accel"},
    {"peak_rss_mib", "peak_rss_mib", "MiB",
     "serve_small codec_hpb serve_accel"},
    {"gen_deser_gbps", "proto.gen_deser_gbps", "Gbit/s", "codec_hpb"},
    {"gen_ser_gbps", "proto.gen_ser_gbps", "Gbit/s", "codec_hpb"},
    {"table_deser_gbps", "proto.table_deser_gbps", "Gbit/s", "codec_hpb"},
    {"table_ser_gbps", "proto.table_ser_gbps", "Gbit/s", "codec_hpb"},
    {"accel_deser_gbps", "accel.deser_gbps", "Gbit/s", "codec_hpb"},
    {"accel_ser_gbps", "accel.ser_gbps", "Gbit/s", "codec_hpb"},
};

std::string
MetricsJson(const std::vector<MetricDef> &defs, bool with_bound)
{
    std::string out;
    for (const MetricDef &d : defs) {
        if (!out.empty())
            out += ",\n    ";
        out += "{\"name\": " + JsonString(d.name) +
               ", \"unit\": " + JsonString(d.unit) + ", \"better\": " +
               (d.higher_is_better ? "\"higher\"" : "\"lower\"");
        if (with_bound)
            out += ", \"bound\": " + JsonNumber(d.bound);
        out += "}";
    }
    return out;
}

void
PrintSpec()
{
    std::string workloads;
    for (const WorkloadSpec &w : Workloads()) {
        if (!w.gated)
            continue;
        if (!workloads.empty())
            workloads += ",\n    ";
        workloads += "{\"name\": " + JsonString(w.name) +
                     ", \"why\": " + JsonString(w.why) + "}";
    }
    std::printf("{\"workloads\": [\n    %s],\n \"end_to_end\": [\n    %s],\n"
                " \"per_layer\": [\n    %s]}\n",
                workloads.c_str(), MetricsJson(EndToEndMetrics(), true).c_str(),
                MetricsJson(GatedLayerMetrics(), false).c_str());
}

[[noreturn]] void
Usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] [--git-sha SHA] "
                 "[--source-digest HEX]\n"
                 "       perfbench --spec\n");
    std::exit(2);
}

}  // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string workload;
    std::string git_sha = "unknown";
    std::string source_digest = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--spec") {
            PrintSpec();
            return 0;
        }
        if (i + 1 >= argc)
            Usage();
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = val;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(val, &end, 10);
            have_seed = *val != '\0' && *end == '\0';
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(val, &end);
            have_seconds = *end == '\0' && opt.seconds > 0;
        } else if (arg == "--trace") {
            opt.trace = std::strcmp(val, "1") == 0;
            have_trace = opt.trace || std::strcmp(val, "0") == 0;
        } else if (arg == "--trace-out") {
            opt.trace_path = val;
        } else if (arg == "--git-sha") {
            git_sha = val;
        } else if (arg == "--source-digest") {
            source_digest = val;
        } else {
            Usage();
        }
    }
    const WorkloadSpec *spec = FindWorkload(workload);
    if (spec == nullptr || !have_seed || !have_seconds || !have_trace)
        Usage();

    WorkloadResult res = spec->run(opt);
    const std::vector<std::string> missing =
        FinishMetrics(*spec, opt.trace, &res.metrics);
    const MetricValues &m = res.metrics;

    std::printf("perfbench %s seed=%llu (held-out seed %llu) seconds=%g "
                "trace=%d\n  why: %s\n",
                spec->name, static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(kHeldOutSeed), opt.seconds,
                opt.trace ? 1 : 0, spec->why);
    std::printf("  metrics defined for this workload:\n");
    for (const ReportRow &row : kReport)
        if (ListContains(row.workloads, spec->name))
            std::printf("    %-18s %16.6g %s\n", row.name, m.Get(row.metric),
                        row.unit);
    const std::vector<MetricDef> defs = ReportedMetrics(*spec, opt.trace);
    std::printf("  %s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
    for (const MetricDef &d : defs)
        std::printf("    %-34s %16.6g %s\n", d.name.c_str(), m.Get(d.name),
                    d.unit.c_str());
    for (const std::string &f : res.check_failures)
        std::printf("  CHECK FAILED: %s\n", f.c_str());

    std::printf(
        "{\"provenance\": {\"workload\": %s, \"why\": %s, \"seed\": %llu, "
        "\"held_out_seed\": %llu, \"seconds\": %s, \"trace\": %s, "
        "\"git_sha\": %s, \"source_digest\": %s, \"build_type\": %s, "
        "\"compiler\": %s, \"nproc\": %u, \"params\": %s}}\n",
        JsonString(spec->name).c_str(), JsonString(spec->why).c_str(),
        static_cast<unsigned long long>(opt.seed),
        static_cast<unsigned long long>(kHeldOutSeed),
        JsonNumber(opt.seconds).c_str(), opt.trace ? "true" : "false",
        JsonString(git_sha).c_str(), JsonString(source_digest).c_str(),
        JsonString(PERFBENCH_BUILD_TYPE).c_str(),
        JsonString(std::string("GCC-compatible ") + __VERSION__).c_str(),
        std::thread::hardware_concurrency(),
        res.params_json.empty() ? "{}" : res.params_json.c_str());

    for (const std::string &name : missing)
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     name.c_str());
    const bool correct = res.check_failures.empty() && res.failed == 0 &&
                         res.attempted > 0 && missing.empty();
    std::printf("%s\n",
                RenderResult(correct, res.attempted, res.failed, defs, m)
                    .c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
