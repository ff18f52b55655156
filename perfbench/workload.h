/**
 * @file
 * The three workloads behind one interface.
 */
#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"

namespace perfbench {

/// One run's knobs (command-line flags).
struct RunOptions
{
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Chrome trace-event output of the traced run ("" = none).
    std::string trace_path;
    /// Set-ups timed per run; setup_s is their median. Fixed for the
    /// benchmark; the selftest's smoke runs set up once.
    int setup_reps = 7;
};

/// What a workload run reports.
struct WorkloadResult
{
    MetricValues metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /// Failed output checks, one line each (empty on a clean run).
    std::vector<std::string> check_failures;
    /// Fixed parameters for the provenance record, as a JSON object.
    std::string params_json;
};

struct WorkloadSpec
{
    const char *name;
    /// One line: why the workload exists (BENCHMARK.json "why").
    const char *why;
    WorkloadResult (*run)(const RunOptions &);
    /// Listed in BENCHMARK.json, so regressions against it are gated.
    /// codec_hpb is not: its host-clock figures swing 10-30% between
    /// runs on a shared host, beyond any bound the gate allows.
    bool gated;
};

const std::vector<WorkloadSpec> &Workloads();

/// The workload named @p name; nullptr when there is none.
const WorkloadSpec *FindWorkload(const std::string &name);

WorkloadResult RunServeSmall(const RunOptions &opt);
WorkloadResult RunServeAccel(const RunOptions &opt);
WorkloadResult RunCodecHpb(const RunOptions &opt);

/// serve_accel with a fresh runtime for every pass over the templates
/// (as RunServeAccel runs it) or, with @p runtime_per_pass false, one
/// runtime for the whole run.
WorkloadResult RunServeAccelReplacing(const RunOptions &opt,
                                      bool runtime_per_pass);

/// common.crc_ns_per_kib over @p wires (the workload's own frames), and
/// peak_rss_mib (resident anonymous memory now) unless the workload set
/// it already.
void MeasureCommon(const std::vector<std::vector<uint8_t>> &wires,
                   MetricValues *m);

/// Per-layer metrics measured on at least one gated workload: the
/// per_layer list of BENCHMARK.json.
std::vector<MetricDef> GatedLayerMetrics();

/// The metrics a run of @p w reports: every end-to-end metric, or when
/// @p trace every gated per-layer metric plus the layers @p w measures.
std::vector<MetricDef> ReportedMetrics(const WorkloadSpec &w, bool trace);

/**
 * Check and complete @p m for reporting. Returns the reported metrics
 * that @p w had to measure (every end-to-end metric; traced, the layers
 * on its path) but that have no finite value. Only then are the other
 * reported layers, which are off @p w's path, set to 0 where unset.
 */
std::vector<std::string> FinishMetrics(const WorkloadSpec &w, bool trace,
                                       MetricValues *m);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H
