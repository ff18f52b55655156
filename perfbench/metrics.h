/**
 * @file
 * The benchmark's metric vocabulary and the statistics behind it.
 *
 * Every metric the benchmark can print is declared once here, with its
 * unit, direction and (for end-to-end metrics) the regression bound a
 * later change is judged against. The same table renders the
 * benchmark's spec (BENCHMARK.json) and validates every run's result
 * line, so a metric cannot be printed without being declared or
 * declared without being printed.
 */
#ifndef PERFBENCH_METRICS_H
#define PERFBENCH_METRICS_H

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One declared metric.
struct MetricDef
{
    std::string name;
    std::string unit;
    bool higher_is_better = false;
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    double bound = 0;
    /// One line: what is measured, and on which clock.
    std::string doc;
    /// Per-layer only: the workloads whose path the layer is on,
    /// space-separated. Each must measure it in its traced run.
    std::string workloads;

    /// True when @p workload is listed in `workloads`.
    bool MeasuredOn(const std::string &workload) const;
};

/// True when the space-separated @p list holds @p name.
bool ListContains(const std::string &list, const std::string &name);

/// Metrics a user of the stack sees; printed by every untraced run.
const std::vector<MetricDef> &EndToEndMetrics();

/// Every per-layer metric, each with the workloads that measure it.
const std::vector<MetricDef> &PerLayerMetrics();

/// Monotonic host clock, ns.
uint64_t NowNs();

/**
 * Nearest-rank percentile: the smallest sample with at least p% of the
 * samples at or below it (p in (0, 100]). Failed or shed calls are
 * passed as +infinity, so they count as later than any latency limit;
 * the result is +infinity when the rank lands on one. NaN when empty.
 */
double NearestRank(std::vector<double> samples, double p);

/// 0-based index of the nearest-rank p-th percentile among @p n sorted
/// samples (@p n > 0).
size_t NearestRankIndex(size_t n, double p);

/// True when @p n samples leave at least @p min_beyond samples strictly
/// above the p-th percentile's rank — the rule for reporting a tail.
bool HasTailSamples(size_t n, double p, size_t min_beyond = 10);

/// Geometric mean of strictly positive finite values; NaN when empty or
/// when any value is not positive and finite.
double GeoMean(const std::vector<double> &values);

/// Median (the nearest-rank 50th percentile); NaN when empty.
double Median(std::vector<double> samples);

/// Resident anonymous memory (heap, stacks) of this process, MiB; NaN
/// when /proc/self/status cannot be read.
double AnonRssMib();

/// Named metric values of one run.
class MetricValues
{
  public:
    void Set(const std::string &name, double value);
    bool Has(const std::string &name) const;
    double Get(const std::string &name) const;
    const std::map<std::string, double> &all() const { return values_; }

  private:
    std::map<std::string, double> values_;
};

/// Render the run's result line: {"correct", "attempted", "failed",
/// "metrics"} with exactly the metrics in @p defs, each with its unit.
std::string RenderResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<MetricDef> &defs,
                         const MetricValues &values);

/// Escape @p s as a JSON string literal (quotes included).
std::string JsonString(const std::string &s);

/// Format @p v with all its significant digits (round-trippable).
std::string JsonNumber(double v);

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H
