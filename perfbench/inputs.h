/**
 * @file
 * Seeded workload inputs.
 *
 * The seed chooses message contents, sizes and order; the schemas are
 * always the build-time recipes (genpools::BuildSkewPool(1) for the
 * serving workloads, hpb::BuildHyperProtoBench for codec_hpb), so every
 * message has an emitted generated codec and rpc.generated_fallbacks
 * stays 0.
 */
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "gen_pools.h"
#include "harness/bench_common.h"
#include "hpb/generator.h"

namespace perfbench {

/**
 * @p n encoded sizes following Fig. 3's message-size distribution,
 * restricted to buckets whose upper edge is at most @p cut_bytes (0 =
 * the full distribution; the open top bucket is capped at 256 KiB as
 * in the fleet model). Sampling is stratified: each bucket gets its
 * share of @p n (largest remainder) and sizes within a bucket are
 * spread over equal log-size strata, so two seeds give the same mix and
 * differ only in the draws inside each stratum. Returned in seeded
 * random order.
 */
std::vector<size_t> DrawFleetSizes(protoacc::Rng *rng, size_t n,
                                   size_t cut_bytes);

/// Share of Fig. 3's messages, by count, that @p cut_bytes keeps.
double FleetShareBelow(size_t cut_bytes);

/**
 * Echo requests of the skew v_N schema. Field 1 (id) carries the call
 * id and is written per call; everything else is a seeded template
 * whose canonical encoding (fields 2.. in field-number order) is kept
 * as bytes. A request's wire is therefore tag(1) varint(id) ++ rest,
 * which is also the canonical encoding of the echoed response.
 */
struct RequestSet
{
    protoacc::genpools::NamedPool schema;
    const protoacc::proto::FieldDescriptor *id_field = nullptr;
    std::vector<std::vector<uint8_t>> rest;
    /// Mean request payload bytes (id written as a 4-byte varint).
    double mean_payload_bytes = 0;
};

/// @p count templates with sizes from DrawFleetSizes(@p cut_bytes). With
/// @p window > 0 (a divisor of @p count), consecutive runs of @p window
/// templates each get the same size mix (see the definition).
RequestSet BuildRequests(uint64_t seed, size_t count, size_t cut_bytes,
                         size_t window = 0);

/// Upper bound of one encoded request with template @p rest.
inline size_t
MaxRequestBytes(const std::vector<uint8_t> &rest)
{
    return 1 + 10 + rest.size();
}

/// Write tag(1) varint(@p id) ++ @p rest into @p out; returns the size.
size_t EncodeRequest(uint64_t id, const std::vector<uint8_t> &rest,
                     uint8_t *out);

/// The six HyperProtoBench services with seeded message batches.
struct HpbInputs
{
    std::vector<protoacc::hpb::HpbBenchmark> benches;
    std::vector<std::unique_ptr<protoacc::proto::Arena>> arenas;
    /// One workload per service: @p per_service fresh messages of the
    /// service's top-level type, drawn with the seed, wires filled.
    std::vector<protoacc::harness::Workload> workloads;
};

HpbInputs BuildHpbInputs(uint64_t seed, size_t per_service);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H
