/**
 * @file
 * codec_hpb: the six HyperProtoBench services on one thread, no runtime.
 *
 * The timed loop visits the services round-robin and, for each, times
 * parse and serialize passes of the generated and table engines with
 * the harness throughput helpers (the reference engine joins in the
 * traced run), plus one echo's codec work per message — a generated
 * parse and re-serialize — timed message by message. The device model
 * and the modeled BOOM core price the same wires afterwards, and every
 * engine's output is checked against the wire it came from.
 */
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "cpu/cpu_model.h"
#include "inputs.h"
#include "proto/codec_generated.h"
#include "proto/codec_reference.h"
#include "proto/parser.h"
#include "proto/serializer.h"
#include "rpc/codec_backend.h"
#include "workload.h"

namespace perfbench {

using protoacc::StatusCode;
using protoacc::harness::Throughput;
using protoacc::harness::Workload;
using protoacc::proto::Arena;
using protoacc::proto::Message;
using protoacc::proto::ParseStatus;
using protoacc::proto::SoftwareCodecEngine;

namespace {

/// Fresh messages drawn per service.
constexpr size_t kPerService = 256;
/// Timed passes per helper call (each call adds one untimed warm-up).
constexpr int kRepeats = 4;
/// Rounds the loop runs even when --seconds is shorter.
constexpr int kMinRounds = 3;

struct EngineRow
{
    SoftwareCodecEngine engine;
    const char *key;
};

constexpr EngineRow kGen{SoftwareCodecEngine::kGenerated, "gen"};
constexpr EngineRow kTable{SoftwareCodecEngine::kTable, "table"};
constexpr EngineRow kRef{SoftwareCodecEngine::kReference, "ref"};

/// Rate samples of one (engine, direction) across rounds, per service.
struct RateSeries
{
    std::vector<std::vector<double>> gbps;  ///< [service][round]
    double ops = 0;
    double ns = 0;
};

ParseStatus
Parse(SoftwareCodecEngine engine, const std::vector<uint8_t> &wire,
      Message *msg)
{
    switch (engine) {
    case SoftwareCodecEngine::kGenerated:
        return protoacc::proto::GeneratedParseFromBuffer(
            wire.data(), wire.size(), msg);
    case SoftwareCodecEngine::kReference:
        return protoacc::proto::ReferenceParseFromBuffer(
            wire.data(), wire.size(), msg);
    case SoftwareCodecEngine::kTable:
        break;
    }
    return protoacc::proto::ParseFromBuffer(wire.data(), wire.size(), msg);
}

size_t
SerializeTo(SoftwareCodecEngine engine, const Message &msg,
            std::vector<uint8_t> *buf)
{
    switch (engine) {
    case SoftwareCodecEngine::kGenerated:
        return protoacc::proto::GeneratedSerializeToBuffer(msg, buf->data(),
                                                           buf->size());
    case SoftwareCodecEngine::kReference:
        return protoacc::proto::ReferenceSerializeToBuffer(msg, buf->data(),
                                                           buf->size());
    case SoftwareCodecEngine::kTable:
        break;
    }
    return protoacc::proto::SerializeToBuffer(msg, buf->data(),
                                              buf->size());
}

bool
SameBytes(const std::vector<uint8_t> &wire, const std::vector<uint8_t> &buf,
          size_t n)
{
    return n == wire.size() &&
           std::equal(wire.begin(), wire.end(), buf.begin());
}

}  // namespace

WorkloadResult
RunCodecHpb(const RunOptions &opt)
{
    WorkloadResult res;
    MetricValues &m = res.metrics;

    std::vector<double> setups;
    HpbInputs in;
    for (int r = 0; r < std::max(opt.setup_reps, 1); ++r) {
        in = HpbInputs{};
        const uint64_t t0 = NowNs();
        in = BuildHpbInputs(opt.seed, kPerService);
        setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    m.Set("setup_s", Median(setups));
    const size_t services = in.workloads.size();
    size_t max_wire = 0;
    double wire_bytes = 0;
    for (const Workload &w : in.workloads) {
        for (const auto &wire : w.wires)
            max_wire = std::max(max_wire, wire.size());
        wire_bytes += w.total_wire_bytes;
    }
    char params[320];
    std::snprintf(params, sizeof(params),
                  "{\"threads\": 1, \"services\": %zu, "
                  "\"messages_per_service\": %zu, \"repeats_per_pass\": %d, "
                  "\"mean_wire_bytes\": %.1f, \"max_wire_bytes\": %zu, "
                  "\"schemas\": \"hpb::BuildHyperProtoBench(default "
                  "fleet)\"}",
                  services, kPerService, kRepeats,
                  wire_bytes / static_cast<double>(services * kPerService),
                  max_wire);
    res.params_json = params;

    // ---- timed round-robin ----
    std::vector<EngineRow> engines = {kGen, kTable};
    if (opt.trace)
        engines.push_back(kRef);
    // series[engine][0 = deser, 1 = ser]
    std::vector<std::array<RateSeries, 2>> series(engines.size());
    for (auto &pair : series)
        for (RateSeries &s : pair)
            s.gbps.resize(services);
    // Each round yields one sample of every rate and percentile; the
    // reported figures are medians over rounds, so a host hiccup in one
    // round does not move them.
    std::vector<double> round_qps, round_p50, round_p99;
    std::vector<double> echo_us;
    Arena echo_arena;
    std::vector<uint8_t> buf(max_wire + 64);
    const uint64_t start = NowNs();
    const uint64_t deadline =
        start + static_cast<uint64_t>(opt.seconds * 1e9);
    for (int round = 0; round < kMinRounds || NowNs() < deadline; ++round) {
        double ops = 0, ns = 0;
        echo_us.clear();
        for (size_t b = 0; b < services; ++b) {
            const Workload &w = in.workloads[b];
            for (size_t e = 0; e < engines.size(); ++e) {
                const Throughput d = protoacc::harness::HostWallDeserialize(
                    engines[e].engine, w, kRepeats);
                const Throughput s = protoacc::harness::HostWallSerialize(
                    engines[e].engine, w, kRepeats);
                const double pass_ops =
                    static_cast<double>(kRepeats * w.wires.size());
                for (int dir = 0; dir < 2; ++dir) {
                    const Throughput &t = dir == 0 ? d : s;
                    RateSeries &rs = series[e][dir];
                    rs.gbps[b].push_back(t.gbps);
                    rs.ops += pass_ops;
                    rs.ns += t.cycles;  // helpers report elapsed ns here
                    if (engines[e].engine != SoftwareCodecEngine::kReference) {
                        ops += pass_ops;
                        ns += t.cycles;
                    }
                }
            }
            // One echo's codec work per message on the serving tier. The
            // arena is reused, as a server's per-call arena is, so the
            // timings see no first-touch page faults.
            echo_arena.Reset();
            Arena &arena = echo_arena;
            for (const auto &wire : w.wires) {
                const uint64_t t0 = NowNs();
                Message msg = Message::Create(&arena, *w.pool, w.msg_index);
                (void)protoacc::proto::GeneratedParseFromBuffer(
                    wire.data(), wire.size(), &msg);
                (void)protoacc::proto::GeneratedSerializeToBuffer(
                    msg, buf.data(), buf.size());
                echo_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
            }
        }
        round_qps.push_back(ops / ns * 1e9);
        round_p50.push_back(NearestRank(echo_us, 50));
        round_p99.push_back(NearestRank(echo_us, 99));
    }

    std::vector<double> all_rates;
    for (size_t e = 0; e < engines.size(); ++e) {
        for (int dir = 0; dir < 2; ++dir) {
            const RateSeries &rs = series[e][dir];
            std::vector<double> per_service;
            for (size_t b = 0; b < services; ++b) {
                const double v = Median(rs.gbps[b]);
                per_service.push_back(v);
                if (engines[e].engine != SoftwareCodecEngine::kReference)
                    m.Set(std::string("proto.") + engines[e].key + "_" +
                              (dir == 0 ? "deser" : "ser") + "_gbps.bench" +
                              std::to_string(b),
                          v);
            }
            m.Set(std::string("proto.") + engines[e].key + "_" +
                      (dir == 0 ? "deser" : "ser") + "_gbps",
                  GeoMean(per_service));
            if (engines[e].engine == SoftwareCodecEngine::kReference)
                continue;
            all_rates.insert(all_rates.end(), per_service.begin(),
                             per_service.end());
        }
    }
    m.Set("wall_qps", Median(round_qps));
    m.Set("wall_gbps", GeoMean(all_rates));
    m.Set("wall_p50_us", Median(round_p50));
    m.Set("wall_p99_us", Median(round_p99));
    const RateSeries &gen_deser = series[0][0];
    const RateSeries &gen_ser = series[0][1];
    m.Set("proto.deser_ns", gen_deser.ns / gen_deser.ops);
    m.Set("proto.ser_ns", gen_ser.ns / gen_ser.ops);

    // ---- device model and modeled BOOM core on the same wires ----
    const protoacc::accel::AccelConfig accel_config;
    const protoacc::cpu::CpuParams boom = protoacc::cpu::BoomParams();
    std::vector<double> acc_deser, acc_ser, boom_deser, boom_ser;
    std::vector<double> device_us;
    double device_host_ns[2] = {0, 0};
    double device_ops = 0;
    double boom_cycles = 0;
    uint64_t attempted = 0, failed = 0;
    const auto fail = [&](const std::string &what) {
        ++failed;
        if (res.check_failures.size() < 8)
            res.check_failures.push_back(what);
    };
    for (size_t b = 0; b < services; ++b) {
        const Workload &w = in.workloads[b];
        const std::string where = "bench" + std::to_string(b);

        uint64_t t0 = NowNs();
        const Throughput ad =
            protoacc::harness::AccelDeserialize(w, accel_config, 1);
        device_host_ns[0] += static_cast<double>(NowNs() - t0);
        t0 = NowNs();
        const Throughput as =
            protoacc::harness::AccelSerialize(w, accel_config, 1);
        device_host_ns[1] += static_cast<double>(NowNs() - t0);
        device_ops += static_cast<double>(w.wires.size());
        acc_deser.push_back(ad.gbps);
        acc_ser.push_back(as.gbps);
        m.Set("accel.deser_gbps.bench" + std::to_string(b), ad.gbps);
        m.Set("accel.ser_gbps.bench" + std::to_string(b), as.gbps);

        const Throughput bd = protoacc::harness::CpuDeserialize(boom, w, 1);
        const Throughput bs = protoacc::harness::CpuSerialize(boom, w, 1);
        boom_deser.push_back(bd.gbps);
        boom_ser.push_back(bs.gbps);
        boom_cycles += bd.cycles + bs.cycles;

        // Per-message device round trip (one job each), checked against
        // the wire: the device model's output must match the software
        // engines'.
        protoacc::rpc::AcceleratedBackend device(*w.pool, accel_config);
        Arena arena;
        for (size_t i = 0; i < w.wires.size(); ++i) {
            const auto &wire = w.wires[i];
            const double c0 = device.codec_cycles();
            Message msg = Message::Create(&arena, *w.pool, w.msg_index);
            const StatusCode st =
                device.Deserialize(wire.data(), wire.size(), &msg);
            const std::vector<uint8_t> out = device.Serialize(msg);
            device_us.push_back((device.codec_cycles() - c0) /
                                device.freq_ghz() / 1e3);
            attempted += 2;
            if (st != StatusCode::kOk)
                fail(where + " device parse verdict differs");
            else if (out != wire)
                fail(where + " device re-serialize differs");
            std::vector<uint8_t> sw(wire.size() + 64);
            const size_t n =
                protoacc::proto::SerializeToBuffer(msg, sw.data(), sw.size());
            if (!SameBytes(wire, sw, n))
                fail(where + " device-parsed message re-serializes "
                             "differently on the table engine");
        }

        // Every software engine: same verdict, byte-identical re-serialize.
        for (const EngineRow &e : {kGen, kTable, kRef}) {
            for (size_t i = 0; i < w.wires.size(); ++i) {
                Message msg = Message::Create(&arena, *w.pool, w.msg_index);
                const ParseStatus st = Parse(e.engine, w.wires[i], &msg);
                attempted += 2;
                if (st != ParseStatus::kOk) {
                    fail(where + " " + e.key + " parse verdict differs");
                    continue;
                }
                const size_t n = SerializeTo(e.engine, msg, &buf);
                if (!SameBytes(w.wires[i], buf, n))
                    fail(where + " " + e.key + " re-serialize differs");
            }
        }
    }
    double device_total_us = 0;
    for (double v : device_us)
        device_total_us += v;
    m.Set("modeled_qps",
          static_cast<double>(device_us.size()) / device_total_us * 1e6);
    m.Set("modeled_p50_us", NearestRank(device_us, 50));
    m.Set("modeled_p99_us", NearestRank(device_us, 99));
    m.Set("accel.deser_gbps", GeoMean(acc_deser));
    m.Set("accel.ser_gbps", GeoMean(acc_ser));
    m.Set("accel.deser_host_ns", device_host_ns[0] / device_ops);
    m.Set("accel.ser_host_ns", device_host_ns[1] / device_ops);
    m.Set("cpu.boom_deser_gbps", GeoMean(boom_deser));
    m.Set("cpu.boom_ser_gbps", GeoMean(boom_ser));
    m.Set("cpu.codec_ns_per_call",
          boom_cycles / boom.freq_ghz / device_ops);

    res.attempted = attempted;
    res.failed = failed;
    m.Set("run.fail_frac",
          static_cast<double>(failed) / static_cast<double>(attempted));
    std::vector<std::vector<uint8_t>> wires;
    for (const Workload &w : in.workloads)
        wires.insert(wires.end(), w.wires.begin(), w.wires.end());
    MeasureCommon(wires, &m);
    return res;
}

}  // namespace perfbench
