/**
 * Concurrent RPC serving throughput: the serving-runtime companion to
 * rpc_end_to_end. Drives the RpcServerRuntime with batches of echo
 * calls across {riscv-boom, riscv-boom-gen, Xeon, protoacc} x {worker
 * counts} x {batch
 * sizes} and reports, per configuration:
 *
 *   - modeled QPS (calls / slowest worker's virtual timeline) — the
 *     simulation-grade number: software backends model one core per
 *     worker and scale with the pool; the protoacc rows share ONE
 *     accelerator through the SharedAccelQueue doorbell model, so they
 *     saturate and their tail latency grows with contention;
 *   - modeled p50/p95/p99 per-call latency in microseconds;
 *   - wall-clock QPS of the real threaded execution on the host (NOT
 *     comparable across machines; a single-core container serializes
 *     the workers).
 *
 * Flags: --calls=N --payload=BYTES --threads=a,b,c --batches=a,b,c
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "harness/bench_common.h"
#include "proto/codec_generated.h"
#include "proto/schema_parser.h"
#include "rpc/server_runtime.h"

using namespace protoacc;
using namespace protoacc::rpc;
using proto::DescriptorPool;
using proto::Message;

namespace {

struct Options
{
    uint32_t calls = 2048;
    size_t payload = 64;
    std::vector<uint32_t> threads = {1, 2, 4};
    std::vector<uint32_t> batches = {1, 8, 32};
};

std::vector<uint32_t>
ParseList(const char *s)
{
    std::vector<uint32_t> out;
    for (const char *p = s; *p != '\0';) {
        out.push_back(static_cast<uint32_t>(std::strtoul(p, nullptr, 10)));
        const char *comma = std::strchr(p, ',');
        if (comma == nullptr)
            break;
        p = comma + 1;
    }
    return out;
}

Options
ParseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--calls=", 0) == 0)
            opt.calls = static_cast<uint32_t>(
                std::strtoul(arg.c_str() + 8, nullptr, 10));
        else if (arg.rfind("--payload=", 0) == 0)
            opt.payload = std::strtoul(arg.c_str() + 10, nullptr, 10);
        else if (arg.rfind("--threads=", 0) == 0)
            opt.threads = ParseList(arg.c_str() + 10);
        else if (arg.rfind("--batches=", 0) == 0)
            opt.batches = ParseList(arg.c_str() + 10);
        else {
            std::fprintf(stderr,
                         "usage: rpc_throughput [--calls=N] "
                         "[--payload=BYTES] [--threads=a,b,c] "
                         "[--batches=a,b,c]\n");
            std::exit(1);
        }
    }
    return opt;
}

struct RunResult
{
    double modeled_qps = 0;
    double wall_qps = 0;
    double p50_us = 0;
    double p95_us = 0;
    double p99_us = 0;
    double accel_wait_share = 0;  ///< wait / (wait + service), protoacc
};

RunResult
RunOne(const DescriptorPool &pool, int req, int rsp,
       const std::string &system, uint32_t workers, uint32_t batch,
       const Options &opt)
{
    accel::SharedAccelQueue accel_queue;  // one shared device
    RuntimeConfig config;
    config.num_workers = workers;
    config.max_batch = batch;
    config.record_replies = false;
    RpcServerRuntime::BackendFactory factory;
    if (system == "protoacc") {
        config.shared_accel = &accel_queue;
        factory = [&pool](uint32_t) {
            return std::make_unique<AcceleratedBackend>(pool);
        };
    } else if (system == "riscv-boom-gen") {
        // Same modeled core as riscv-boom, but the host executes the
        // schema-specialized generated codecs: modeled QPS matches the
        // table rows (identical cost events), wall QPS shows the
        // codegen tier's host-time win.
        factory = [&pool](uint32_t) {
            return std::make_unique<SoftwareBackend>(
                cpu::BoomParams(), pool,
                proto::SoftwareCodecEngine::kGenerated);
        };
    } else {
        const cpu::CpuParams params =
            system == "Xeon" ? cpu::XeonParams() : cpu::BoomParams();
        factory = [&pool, params](uint32_t) {
            return std::make_unique<SoftwareBackend>(params, pool);
        };
    }

    RpcServerRuntime runtime(&pool, factory, config);
    const auto &rd = pool.message(req);
    const auto &sd = pool.message(rsp);
    runtime.RegisterMethod(
        1, req, rsp,
        [&rd, &sd](const Message &request, Message response) {
            response.SetString(
                *sd.FindFieldByName("text"),
                request.GetString(*rd.FindFieldByName("text")));
        });

    // Pre-serialize the request wire once (client cost is not the
    // object of this bench).
    proto::Arena arena;
    Message request = Message::Create(&arena, pool, req);
    request.SetString(*rd.FindFieldByName("text"),
                      std::string(opt.payload, 'x'));
    const std::vector<uint8_t> wire = proto::Serialize(request, nullptr);
    FrameHeader header;
    header.method_id = 1;
    header.kind = FrameKind::kRequest;
    header.payload_bytes = static_cast<uint32_t>(wire.size());

    // Pre-load the whole backlog before Start(): workers then drain in
    // exact max_batch chunks, so the modeled numbers are deterministic,
    // and the wall clock times pure serving.
    for (uint32_t i = 1; i <= opt.calls; ++i) {
        header.call_id = i;
        runtime.Submit(header, wire.data());
    }
    const auto wall_start = std::chrono::steady_clock::now();
    runtime.Start();
    runtime.Drain();
    const auto wall_end = std::chrono::steady_clock::now();

    const RuntimeSnapshot snap = runtime.Snapshot();
    PA_CHECK_EQ(snap.calls, opt.calls);
    PA_CHECK_EQ(snap.failures, 0u);
    std::vector<double> lat = runtime.TakeLatencies();

    RunResult r;
    r.modeled_qps = snap.modeled_qps();
    const double wall_s =
        std::chrono::duration<double>(wall_end - wall_start).count();
    r.wall_qps = wall_s > 0 ? opt.calls / wall_s : 0;
    r.p50_us = harness::ExactPercentile(lat, 50) / 1000.0;
    r.p95_us = harness::ExactPercentile(lat, 95) / 1000.0;
    r.p99_us = harness::ExactPercentile(lat, 99) / 1000.0;
    const auto qs = accel_queue.stats();
    if (qs.total_wait_cycles + qs.total_service_cycles > 0)
        r.accel_wait_share =
            static_cast<double>(qs.total_wait_cycles) /
            static_cast<double>(qs.total_wait_cycles +
                                qs.total_service_cycles);
    return r;
}

}  // namespace

int
main(int argc, char **argv)
{
    const Options opt = ParseOptions(argc, argv);

    DescriptorPool pool;
    const auto parsed = ParseSchema(R"(
        message EchoRequest { optional string text = 1; }
        message EchoResponse { optional string text = 1; }
    )",
                                    &pool);
    PA_CHECK(parsed.ok);
    pool.Compile(proto::HasbitsMode::kSparse);
    const int req = pool.FindMessage("EchoRequest");
    const int rsp = pool.FindMessage("EchoResponse");

    std::printf(
        "RPC serving throughput: %u echo calls, %zu-byte payload\n"
        "  modeled QPS = calls / slowest worker virtual timeline; "
        "latencies are modeled per-call (protoacc rows contend for ONE "
        "shared accelerator via the doorbell/completion queue)\n"
        "  wall QPS is host-machine dependent (threads on this "
        "container may share one core)\n\n",
        opt.calls, opt.payload);
    std::printf("  %-14s %7s %6s %14s %12s %9s %9s %9s %11s\n", "system",
                "workers", "batch", "modeled-QPS", "wall-QPS",
                "p50(us)", "p95(us)", "p99(us)", "accel-wait");
    for (const char *system :
         {"riscv-boom", "riscv-boom-gen", "Xeon", "protoacc"}) {
        if (std::string(system) == "riscv-boom-gen" &&
            proto::GetGeneratedCodec(pool) == nullptr) {
            std::printf("  %-14s (no generated codec linked; row "
                        "skipped)\n\n",
                        system);
            continue;
        }
        for (const uint32_t workers : opt.threads) {
            for (const uint32_t batch : opt.batches) {
                const RunResult r = RunOne(pool, req, rsp, system,
                                           workers, batch, opt);
                std::printf("  %-14s %7u %6u %14.0f %12.0f %9.2f "
                            "%9.2f %9.2f %10.1f%%\n",
                            system, workers, batch, r.modeled_qps,
                            r.wall_qps, r.p50_us, r.p95_us, r.p99_us,
                            100.0 * r.accel_wait_share);
            }
        }
        std::printf("\n");
    }
    std::printf(
        "  software backends scale with workers (one modeled core "
        "each); the shared accelerator saturates its units, and "
        "batching trades per-call fence overhead for queueing-visible "
        "tail latency\n");
    return 0;
}
