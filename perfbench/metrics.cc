#include "metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

MetricDef
E2e(const char *name, const char *unit, bool higher, double bound,
    const char *doc)
{
    return MetricDef{name, unit, higher, bound, doc, ""};
}

// Where each per-layer metric is measured.
constexpr const char *kServe = "serve_small serve_accel";
constexpr const char *kAccel = "serve_accel";
constexpr const char *kCodec = "codec_hpb";
constexpr const char *kAll = "serve_small codec_hpb serve_accel";

MetricDef
Layer(const std::string &name, const char *unit, bool higher,
      const char *workloads, const std::string &doc)
{
    return MetricDef{name, unit, higher, 0, doc, workloads};
}

}  // namespace

bool
ListContains(const std::string &list, const std::string &name)
{
    return (" " + list + " ").find(" " + name + " ") != std::string::npos;
}

bool
MetricDef::MeasuredOn(const std::string &workload) const
{
    return ListContains(workloads, workload);
}

const std::vector<MetricDef> &
EndToEndMetrics()
{
    // Each workload reports every metric, in its own unit of work: a
    // call on serve_small/serve_accel, one message parsed or serialized
    // on codec_hpb (README.md, "End-to-end metrics", has the table).
    // Bounds, from the IQR/median of ten seeds x 20 s on a shared
    // 4-vCPU host (README.md, "Noise"): modeled figures and memory
    // spread at most 0.023, and each of their bounds is three times its
    // widest spread or more; host-clock figures spread 0.03-0.19
    // depending on the hour, whatever the run length, so they get nearly
    // the widest bound.
    static const std::vector<MetricDef> kDefs = {
        E2e("wall_qps", "1/s", true, 0.24,
            "host clock: units of work completed per host second"),
        E2e("wall_gbps", "Gbit/s", true, 0.24,
            "host clock: protobuf wire bits processed per host second"),
        E2e("wall_p50_us", "us", false, 0.24,
            "host clock: median latency of one unit of work"),
        E2e("wall_p99_us", "us", false, 0.24,
            "host clock: nearest-rank p99 latency, failed calls as +inf"),
        E2e("modeled_qps", "1/s", true, 0.05,
            "modeled clock: units of work per modeled second"),
        E2e("modeled_p50_us", "us", false, 0.05,
            "modeled clock: median latency of one unit of work"),
        E2e("modeled_p99_us", "us", false, 0.08,
            "modeled clock: nearest-rank p99 latency"),
        E2e("setup_s", "s", false, 0.25,
            "host clock: median of repeated set-ups, start of set-up to "
            "the first timed operation"),
        E2e("peak_rss_mib", "MiB", false, 0.05,
            "resident anonymous memory (heap, stacks) with the workload "
            "at full size"),
    };
    return kDefs;
}

const std::vector<MetricDef> &
PerLayerMetrics()
{
    static const std::vector<MetricDef> kDefs = [] {
        std::vector<MetricDef> d = {
            // ---- rpc: server_runtime, frame, dedup_cache ----
            Layer("rpc.ingress_ns", "ns", false, kServe,
                  "host time per SubmitFromStream: scan, CRC verify, "
                  "payload copy, enqueue"),
            Layer("rpc.ingress_busy_frac", "ratio", false, kServe,
                  "share of the measured window the driver spends in "
                  "SubmitFromStream"),
            Layer("rpc.inbox_wait_p50_us", "us", false, kServe,
                  "submit return to deserialize start, median"),
            Layer("rpc.inbox_wait_p99_us", "us", false, kServe,
                  "submit return to deserialize start, p99"),
            Layer("rpc.worker_gap_p50_ns", "ns", false, kServe,
                  "worker 0: serialize end to the next deserialize "
                  "start, median"),
            Layer("rpc.worker_gap_mean_ns", "ns", false, kServe,
                  "worker 0: serialize end to the next deserialize "
                  "start, mean"),
            Layer("rpc.calls_per_batch", "calls", true, kServe,
                  "calls per worker batch (Snapshot)"),
            Layer("rpc.handler_ns", "ns", false, kServe,
                  "host time per handler"),
            Layer("rpc.drain_tail_ms", "ms", false, kServe,
                  "last completion to Drain return, mean per Drain"),
            Layer("rpc.failures", "count", false, kServe,
                  "error replies (gate: 0)"),
            Layer("rpc.shed", "count", false, kServe,
                  "admission sheds (gate: 0)"),
            Layer("rpc.crc_rejects", "count", false, kServe,
                  "ingress CRC rejects (gate: 0)"),
            Layer("rpc.generated_fallbacks", "count", false, kServe,
                  "generated-engine ops run on the table engine "
                  "(gate: 0)"),
            Layer("rpc.fallback_ops", "count", false, kServe,
                  "hybrid ops degraded to software (gate: 0)"),
            Layer("rpc.dedup_insertions", "count", true, kServe,
                  "dedup cache insertions"),
            Layer("rpc.dedup_evictions", "count", false, kServe,
                  "dedup cache evictions"),
            // ---- proto: engines and arena ----
            Layer("proto.deser_ns", "ns", false, "serve_small codec_hpb",
                  "host time per software Deserialize"),
            Layer("proto.ser_ns", "ns", false, kAll,
                  "host time per response SerializedSize + software "
                  "SerializeTo"),
            Layer("proto.gen_deser_gbps", "Gbit/s", true, kCodec,
                  "generated engine parse, geomean of the six HPB "
                  "services"),
            Layer("proto.gen_ser_gbps", "Gbit/s", true, kCodec,
                  "generated engine serialize, geomean of six services"),
            Layer("proto.table_deser_gbps", "Gbit/s", true, kCodec,
                  "table engine parse, geomean of six services"),
            Layer("proto.table_ser_gbps", "Gbit/s", true, kCodec,
                  "table engine serialize, geomean of six services"),
        };
        for (const char *engine : {"gen", "table"}) {
            for (const char *dir : {"deser", "ser"}) {
                for (int b = 0; b < 6; ++b) {
                    d.push_back(Layer(
                        std::string("proto.") + engine + "_" + dir +
                            "_gbps.bench" + std::to_string(b),
                        "Gbit/s", true, kCodec,
                        std::string(engine) + " engine " + dir +
                            ", HPB service bench" + std::to_string(b)));
                }
            }
        }
        const std::vector<MetricDef> rest = {
            Layer("proto.ref_deser_gbps", "Gbit/s", true, kCodec,
                  "reference engine parse, geomean of six services"),
            Layer("proto.ref_ser_gbps", "Gbit/s", true, kCodec,
                  "reference engine serialize, geomean of six services"),
            // ---- cpu: CostSink cost models (modeled host time) ----
            Layer("cpu.codec_ns_per_call", "ns", false, kAll,
                  "modeled host codec time per call (CostSink)"),
            Layer("cpu.boom_deser_gbps", "Gbit/s", true, kCodec,
                  "modeled BOOM core parse, geomean of six services"),
            Layer("cpu.boom_ser_gbps", "Gbit/s", true, kCodec,
                  "modeled BOOM core serialize, geomean of six services"),
            // ---- accel: device model, frame engine, shared queue ----
            Layer("accel.deser_cycles_per_call", "cycles", false, kAccel,
                  "device deserializer cycles per call"),
            Layer("accel.ser_cycles_per_call", "cycles", false, kAccel,
                  "device serializer cycles per call"),
            Layer("accel.frame_cycles_per_call", "cycles", false, kAccel,
                  "frame-engine cycles per call"),
            Layer("accel.wait_share", "ratio", false, kAccel,
                  "shared-queue wait / (wait + service)"),
            Layer("accel.contended_batch_frac", "ratio", false, kAccel,
                  "shared-queue batches that waited for a unit"),
            Layer("accel.jobs_per_batch", "jobs", true, kAccel,
                  "device jobs per shared-queue batch"),
            Layer("accel.deser_gbps", "Gbit/s", true, kCodec,
                  "device model parse, geomean of six HPB services"),
            Layer("accel.ser_gbps", "Gbit/s", true, kCodec,
                  "device model serialize, geomean of six services"),
        };
        d.insert(d.end(), rest.begin(), rest.end());
        for (const char *dir : {"deser", "ser"}) {
            for (int b = 0; b < 6; ++b) {
                d.push_back(Layer(std::string("accel.") + dir +
                                      "_gbps.bench" + std::to_string(b),
                                  "Gbit/s", true, kCodec,
                                  std::string("device model ") + dir +
                                      ", HPB service bench" +
                                      std::to_string(b)));
            }
        }
        const std::vector<MetricDef> tail = {
            Layer("accel.deser_host_ns", "ns", false,
                  "codec_hpb serve_accel",
                  "host time per device deserialize (mostly sim)"),
            Layer("accel.ser_host_ns", "ns", false, "codec_hpb serve_accel",
                  "host time per device serialize (mostly sim)"),
            // ---- common ----
            Layer("common.crc_ns_per_kib", "ns", false, kAll,
                  "host Crc32c time per KiB of the workload's own "
                  "frames"),
            // ---- run-level and tracing figures ----
            Layer("run.fail_frac", "ratio", false, kAll,
                  "(errors + sheds + lost, wrong or duplicated answers "
                  "+ engine mismatches) / attempted"),
            Layer("trace.overhead_frac", "ratio", false, kServe,
                  "1 - traced wall_qps / untraced wall_qps, same run"),
            Layer("trace.host_uncovered_ns", "ns", false, kServe,
                  "per call: end to end minus ingress, inbox wait, "
                  "deserialize, handler and serialize"),
            Layer("trace.host_uncovered_frac", "ratio", false, kServe,
                  "trace.host_uncovered_ns / host end-to-end time"),
            Layer("trace.modeled_uncovered_ns", "ns", false, kServe,
                  "per call: modeled latency minus CostSink codec, "
                  "device-stage and queue-wait time"),
            Layer("trace.modeled_uncovered_frac", "ratio", false, kServe,
                  "trace.modeled_uncovered_ns / modeled latency"),
            Layer("trace.spans", "count", true, kServe,
                  "spans kept in the per-thread buffers"),
        };
        d.insert(d.end(), tail.begin(), tail.end());
        return d;
    }();
    return kDefs;
}

uint64_t
NowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

size_t
NearestRankIndex(size_t n, double p)
{
    // Rank ceil(p/100 * N), 1-based; the epsilon keeps an exact-integer
    // rank exact (99/100 * 100 must stay rank 99).
    const double count = static_cast<double>(n);
    const double rank =
        std::clamp(std::ceil(p / 100.0 * count - 1e-9), 1.0, count);
    return static_cast<size_t>(rank) - 1;
}

double
NearestRank(std::vector<double> samples, double p)
{
    if (samples.empty())
        return std::nan("");
    std::sort(samples.begin(), samples.end());
    return samples[NearestRankIndex(samples.size(), p)];
}

bool
HasTailSamples(size_t n, double p, size_t min_beyond)
{
    return n > 0 && n - 1 - NearestRankIndex(n, p) >= min_beyond;
}

double
GeoMean(const std::vector<double> &values)
{
    if (values.empty())
        return std::nan("");
    double log_sum = 0;
    for (double v : values) {
        if (!(v > 0) || !std::isfinite(v))
            return std::nan("");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
Median(std::vector<double> samples)
{
    return NearestRank(std::move(samples), 50);
}

double
AnonRssMib()
{
    // Neither peak counter measures the program's own memory:
    // getrusage()'s ru_maxrss keeps the parent's peak across fork and
    // exec (under run.py a small workload reports the interpreter's),
    // and VmHWM counts the binary's file-backed pages, which fault-around
    // maps as the page cache allows (5% between runs of one seed on
    // serve_small, where anonymous memory moved 0.3%).
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return std::nan("");
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof(line), f) != nullptr)
        if (std::sscanf(line, "RssAnon: %ld kB", &kib) != 1)
            kib = -1;
    std::fclose(f);
    return kib < 0 ? std::nan("") : static_cast<double>(kib) / 1024.0;
}

void
MetricValues::Set(const std::string &name, double value)
{
    values_[name] = value;
}

bool
MetricValues::Has(const std::string &name) const
{
    return values_.count(name) != 0;
}

double
MetricValues::Get(const std::string &name) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? std::nan("") : it->second;
}

std::string
JsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
JsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
RenderResult(bool correct, uint64_t attempted, uint64_t failed,
             const std::vector<MetricDef> &defs, const MetricValues &values)
{
    std::string metrics;
    for (const MetricDef &def : defs) {
        if (!metrics.empty())
            metrics += ", ";
        metrics += JsonString(def.name) + ": {\"value\": " +
                   JsonNumber(values.Get(def.name)) +
                   ", \"unit\": " + JsonString(def.unit) + "}";
    }
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
           metrics + "}}";
}

}  // namespace perfbench
