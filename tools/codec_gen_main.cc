/**
 * @file
 * Build-time codec generator driver.
 *
 * Renders schema-specialized C++ codecs (proto/codec_gen.h) for a named
 * pool suite into a single translation unit that the build compiles
 * into pa_gen_codecs. Usage:
 *
 *     codec_gen_main --suite=hpb|aux --out=PATH [--index=N]
 *
 * --suite=hpb covers the six HyperProtoBench service schemas (the
 * fig12/fig13 workloads), each emitted for its workload's message type
 * and the types it reaches; --suite=aux covers every type of the shared
 * deterministic recipes in gen_pools.h. --index=N (a decimal) writes
 * pool N alone. Pools that fingerprint identically (e.g. the two
 * micro-varint variants if their layouts coincide) are emitted once;
 * the runtime registry would reject the duplicate anyway. Exits 2 on a
 * bad argument.
 */
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"
#include "gen_pools.h"
#include "hpb/generator.h"
#include "profile/fleet_model.h"
#include "proto/codec_gen.h"
#include "proto/codec_generated.h"

namespace {

struct SuitePool
{
    std::string name;
    const protoacc::proto::DescriptorPool *pool = nullptr;
    /// Types the codec is generated from (see GenerateCodecSource).
    std::vector<int> roots;
};

int
Run(const std::string &suite, const std::string &out_path, int index)
{
    using protoacc::proto::CodecFilePrologue;
    using protoacc::proto::GenerateCodecSource;
    using protoacc::proto::SchemaFingerprint;

    // Own the pools for the lifetime of the run; the vectors keep the
    // HPB services / aux recipes alive while we render.
    std::vector<protoacc::hpb::HpbBenchmark> hpb;
    std::vector<protoacc::genpools::NamedPool> aux;
    std::vector<SuitePool> pools;

    if (suite == "hpb") {
        protoacc::profile::Fleet fleet{protoacc::profile::FleetParams{}};
        hpb = protoacc::hpb::BuildHyperProtoBench(fleet);
        for (const auto &bench : hpb)
            pools.push_back({"hpb:" + bench.name, &bench.service->pool(),
                             {bench.workload.msg_index}});
    } else if (suite == "aux") {
        aux = protoacc::genpools::BuildAuxSuite();
        for (const auto &np : aux) {
            // Every type: rpc:echo and aux:empty serve types their root
            // does not reach.
            std::vector<int> all(np.pool->message_count());
            std::iota(all.begin(), all.end(), 0);
            pools.push_back({np.name, np.pool.get(), all});
        }
    } else {
        std::fprintf(stderr, "codec_gen_main: unknown --suite=%s\n",
                     suite.c_str());
        return 2;
    }

    // --index=i shards the suite one pool per translation unit so the
    // heavyweight HyperProtoBench codecs compile in parallel.
    if (index >= 0) {
        if (static_cast<size_t>(index) >= pools.size()) {
            std::fprintf(stderr,
                         "codec_gen_main: --index=%d out of range "
                         "(suite has %zu pools)\n",
                         index, pools.size());
            return 2;
        }
        pools = {pools[static_cast<size_t>(index)]};
    }

    std::string banner = "suite '" + suite + "'";
    std::string text = CodecFilePrologue(banner);
    std::set<uint64_t> seen;
    size_t emitted = 0;
    for (const auto &sp : pools) {
        const uint64_t fp = SchemaFingerprint(*sp.pool);
        if (!seen.insert(fp).second)
            continue;  // structurally identical pool already covered
        text += GenerateCodecSource(*sp.pool, sp.name, sp.roots);
        ++emitted;
    }

    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "codec_gen_main: cannot open %s\n",
                     out_path.c_str());
        return 1;
    }
    out << text;
    out.close();
    PA_CHECK(out.good());
    std::fprintf(stderr,
                 "codec_gen_main: %zu pool(s) -> %zu unique codec(s), "
                 "%zu bytes -> %s\n",
                 pools.size(), emitted, text.size(), out_path.c_str());
    return 0;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string suite;
    std::string out_path;
    int index = -1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--suite=", 8) == 0) {
            suite = arg + 8;
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            out_path = arg + 6;
        } else if (std::strncmp(arg, "--index=", 8) == 0) {
            const char *end = arg + std::strlen(arg);
            const auto [p, ec] = std::from_chars(arg + 8, end, index);
            if (ec != std::errc() || p != end || index < 0) {
                std::fprintf(stderr, "codec_gen_main: bad %s\n", arg);
                return 2;
            }
        } else {
            std::fprintf(stderr, "codec_gen_main: unknown arg %s\n", arg);
            return 2;
        }
    }
    if (suite.empty() || out_path.empty()) {
        std::fprintf(stderr,
                     "usage: codec_gen_main --suite=hpb|aux --out=PATH "
                     "[--index=N]\n");
        return 2;
    }
    return Run(suite, out_path, index);
}
