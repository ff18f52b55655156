#include "workload.h"

#include <cmath>

#include "common/crc32c.h"

namespace perfbench {

const std::vector<WorkloadSpec> &
Workloads()
{
    static const std::vector<WorkloadSpec> kSpecs = {
        {"serve_small",
         "closed loop of small structured echo calls on 3 software "
         "workers: per-call runtime costs (ingress, CRC, inbox handoff, "
         "dedup, reply framing) dominate, the codec does little",
         &RunServeSmall, true},
        {"codec_hpb",
         "the six HyperProtoBench services on one thread, no runtime: "
         "proto does all the host work, parse and serialize reported "
         "apart, device model on the same wires",
         &RunCodecHpb, false},
        {"serve_accel",
         "preloaded windows of fleet-sized echo calls on 4 hybrid workers "
         "sharing one offloaded accelerator queue: the device model and "
         "sim do the host work, modeled queueing is the story",
         &RunServeAccel, true},
    };
    return kSpecs;
}

void
MeasureCommon(const std::vector<std::vector<uint8_t>> &wires,
              MetricValues *m)
{
    // Crc32c over the workload's own frames until at least 20 ms and
    // 1 MiB have gone by (Crc32cExtend is out of line, so the calls
    // cannot be folded away).
    double bytes = 0;
    const uint64_t start = NowNs();
    uint64_t now = start;
    while (now - start < 20'000'000 || bytes < (1 << 20)) {
        for (const auto &w : wires) {
            (void)protoacc::Crc32c(w.data(), w.size());
            bytes += static_cast<double>(w.size());
        }
        now = NowNs();
    }
    m->Set("common.crc_ns_per_kib",
           static_cast<double>(now - start) / (bytes / 1024.0));
    if (!m->Has("peak_rss_mib"))
        m->Set("peak_rss_mib", AnonRssMib());
}

const WorkloadSpec *
FindWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : Workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

std::vector<MetricDef>
GatedLayerMetrics()
{
    std::vector<MetricDef> out;
    for (const MetricDef &d : PerLayerMetrics())
        for (const WorkloadSpec &w : Workloads())
            if (w.gated && d.MeasuredOn(w.name)) {
                out.push_back(d);
                break;
            }
    return out;
}

std::vector<MetricDef>
ReportedMetrics(const WorkloadSpec &w, bool trace)
{
    if (!trace)
        return EndToEndMetrics();
    std::vector<MetricDef> out;
    for (const MetricDef &d : PerLayerMetrics()) {
        bool reported = d.MeasuredOn(w.name);
        for (const WorkloadSpec &g : Workloads())
            reported |= g.gated && d.MeasuredOn(g.name);
        if (reported)
            out.push_back(d);
    }
    return out;
}

std::vector<std::string>
FinishMetrics(const WorkloadSpec &w, bool trace, MetricValues *m)
{
    std::vector<std::string> missing;
    for (const MetricDef &d : ReportedMetrics(w, trace)) {
        if (!trace || d.MeasuredOn(w.name)) {
            if (!std::isfinite(m->Get(d.name)))
                missing.push_back(d.name);
        } else if (!m->Has(d.name)) {
            m->Set(d.name, 0);  // the layer does no work on w's path
        }
    }
    return missing;
}

}  // namespace perfbench
