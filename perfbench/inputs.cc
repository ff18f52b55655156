#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.h"
#include "common/histogram.h"
#include "cpu/cpu_model.h"
#include "profile/distributions.h"
#include "proto/parser.h"
#include "proto/serializer.h"

namespace perfbench {

using protoacc::Rng;
using protoacc::proto::Arena;
using protoacc::proto::FieldDescriptor;
using protoacc::proto::Message;

namespace {

/// Candidate messages drawn per HPB message kept, and the largest size
/// strata pinned across seeds (see BuildHpbInputs).
constexpr size_t kHpbStrata = 8;
constexpr size_t kHpbPinnedStrata = 32;

/// Fig. 3 buckets kept by @p cut_bytes (0 = all).
size_t
KeptBuckets(size_t cut_bytes)
{
    const auto &buckets = protoacc::PaperSizeBuckets();
    size_t kept = 0;
    while (kept < buckets.size() &&
           (cut_bytes == 0 || buckets[kept].hi <= cut_bytes))
        ++kept;
    PA_CHECK(kept > 0);
    return kept;
}

std::string
RandomText(Rng *rng, size_t len)
{
    std::string s(len, ' ');
    for (char &c : s)
        c = static_cast<char>('a' + rng->NextBounded(26));
    return s;
}

size_t
VarintBytes(uint64_t v)
{
    size_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++n;
    }
    return n;
}

/// Populate one skew v_N template (every field but id) so that its
/// encoding lands near @p target bytes: seeded small fields first, then
/// a bytes blob carrying the remainder.
void
FillTemplate(Message m, Rng *rng, size_t target)
{
    const auto &d = m.descriptor();
    const FieldDescriptor &name = *d.FindFieldByName("name");
    const FieldDescriptor &score = *d.FindFieldByName("score");
    const FieldDescriptor &tags = *d.FindFieldByName("tags");
    const FieldDescriptor &sub = *d.FindFieldByName("sub");
    const FieldDescriptor &flags = *d.FindFieldByName("flags");
    const FieldDescriptor &blob = *d.FindFieldByName("blob");
    const FieldDescriptor &extras = *d.FindFieldByName("extras");
    const FieldDescriptor &count = *d.FindFieldByName("count");

    const auto size = [&m] { return protoacc::proto::ByteSize(m); };
    if (target >= 4 && rng->NextBool(0.5))
        m.SetInt64(score, static_cast<int64_t>(rng->NextBounded(1u << 20)));
    if (target >= 8 && rng->NextBool(0.5))
        m.SetUint32(flags, static_cast<uint32_t>(rng->Next()));
    if (target >= 12 && rng->NextBool(0.4))
        m.SetInt64(count, static_cast<int64_t>(rng->Next() >> 20));
    if (target >= 16 && rng->NextBool(0.4)) {
        Message inner = m.MutableMessage(sub);
        inner.SetUint32(*inner.descriptor().FindFieldByName("a"),
                        static_cast<uint32_t>(rng->NextBounded(1u << 14)));
    }
    if (target >= 24 && rng->NextBool(0.7))
        m.SetString(name, RandomText(rng, 4 + rng->NextBounded(
                                                  std::min<size_t>(
                                                      target / 6, 24))));
    if (target >= 64) {
        const uint64_t n = rng->NextBounded(4);
        for (uint64_t i = 0; i < n; ++i)
            m.AddRepeatedString(tags,
                                RandomText(rng, 3 + rng->NextBounded(10)));
    }
    if (target >= 48 && rng->NextBool(0.4)) {
        const uint64_t n = 1 + rng->NextBounded(8);
        for (uint64_t i = 0; i < n; ++i)
            m.AddRepeatedBits(extras, static_cast<uint32_t>(
                                          rng->NextRange(-5000, 5000)));
    }
    const size_t have = size();
    if (target <= have + 2)
        return;
    // blob costs tag + varint(len) + len; solve for len.
    size_t len = target - have - 2;
    while (len > 0 && 1 + VarintBytes(len) + len > target - have)
        --len;
    std::string bytes(len, '\0');
    for (char &c : bytes)
        c = static_cast<char>(rng->Next());
    m.SetString(blob, bytes);
}

}  // namespace

double
FleetShareBelow(size_t cut_bytes)
{
    const auto &pct = protoacc::profile::PaperMsgSizePct();
    double kept = 0;
    double total = 0;
    const size_t n = KeptBuckets(cut_bytes);
    for (size_t b = 0; b < pct.size(); ++b) {
        total += pct[b];
        if (b < n)
            kept += pct[b];
    }
    return kept / total;
}

std::vector<size_t>
DrawFleetSizes(Rng *rng, size_t n, size_t cut_bytes)
{
    const auto &buckets = protoacc::PaperSizeBuckets();
    const auto &pct = protoacc::profile::PaperMsgSizePct();
    const size_t kept = KeptBuckets(cut_bytes);

    // Largest-remainder apportionment of n over the kept buckets.
    double total = 0;
    for (size_t b = 0; b < kept; ++b)
        total += pct[b];
    std::vector<size_t> counts(kept);
    std::vector<std::pair<double, size_t>> remainders;
    size_t assigned = 0;
    for (size_t b = 0; b < kept; ++b) {
        const double exact = static_cast<double>(n) * pct[b] / total;
        counts[b] = static_cast<size_t>(std::floor(exact));
        assigned += counts[b];
        remainders.emplace_back(exact - std::floor(exact), b);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto &a, const auto &b) { return a.first > b.first; });
    for (size_t i = 0; assigned < n; ++i, ++assigned)
        ++counts[remainders[i % remainders.size()].second];

    std::vector<size_t> sizes;
    sizes.reserve(n);
    for (size_t b = 0; b < kept; ++b) {
        const double lo = static_cast<double>(std::max<uint64_t>(
            buckets[b].lo, 1));
        const double hi = static_cast<double>(
            buckets[b].hi == UINT64_MAX ? 256 * 1024 : buckets[b].hi);
        const double span = std::log(hi + 1) - std::log(lo);
        for (size_t k = 0; k < counts[b]; ++k) {
            const double u = (static_cast<double>(k) + rng->NextDouble()) /
                             static_cast<double>(counts[b]);
            const double s = std::floor(std::exp(std::log(lo) + u * span));
            sizes.push_back(static_cast<size_t>(std::clamp(s, lo, hi)));
        }
    }
    for (size_t i = sizes.size(); i > 1; --i)
        std::swap(sizes[i - 1], sizes[rng->NextBounded(i)]);
    return sizes;
}

RequestSet
BuildRequests(uint64_t seed, size_t count, size_t cut_bytes, size_t window)
{
    RequestSet set;
    set.schema = protoacc::genpools::BuildSkewPool(1);
    const auto &pool = *set.schema.pool;
    set.id_field = pool.message(set.schema.root).FindFieldByName("id");
    PA_CHECK(set.id_field != nullptr);

    Rng rng(seed ^ 0x5e77e57ull);
    const std::vector<size_t> sizes = DrawFleetSizes(&rng, count, cut_bytes);
    // tag(1) + a 4-byte varint id: the part of each size the template
    // does not carry.
    constexpr size_t kIdBytes = 5;
    Arena arena;
    double total = 0;
    set.rest.reserve(count);
    for (const size_t size : sizes) {
        arena.Reset();
        Message m = Message::Create(&arena, pool, set.schema.root);
        FillTemplate(m, &rng, size > kIdBytes ? size - kIdBytes : 0);
        set.rest.push_back(protoacc::proto::Serialize(m));
        total += static_cast<double>(kIdBytes + set.rest.back().size());
    }
    set.mean_payload_bytes = total / static_cast<double>(count);
    if (window == 0)
        return set;

    // Deal the templates to windows by size rank (rank r goes to window
    // r mod windows), then permute inside each window with a fixed
    // permutation: every window gets the same size mix, and the batches
    // the workers cut from a window get the same size ranks on every
    // seed. A window's modeled tail depends on which batches hold its
    // largest messages, so a seeded permutation here would move
    // modeled_p99_us between seeds by a quarter.
    PA_CHECK(count % window == 0);
    const size_t windows = count / window;
    std::vector<size_t> rank(count);
    for (size_t i = 0; i < count; ++i)
        rank[i] = i;
    std::stable_sort(rank.begin(), rank.end(), [&set](size_t a, size_t b) {
        return set.rest[a].size() < set.rest[b].size();
    });
    std::vector<std::vector<uint8_t>> dealt(count);
    for (size_t r = 0; r < count; ++r)
        dealt[(r % windows) * window + r / windows] =
            std::move(set.rest[rank[r]]);
    Rng fixed(0x5eedull);
    std::vector<size_t> perm(window);
    for (size_t i = 0; i < window; ++i)
        perm[i] = i;
    for (size_t i = window; i > 1; --i)
        std::swap(perm[i - 1], perm[fixed.NextBounded(i)]);
    for (size_t w = 0; w < windows; ++w) {
        std::vector<std::vector<uint8_t>> slots(window);
        for (size_t i = 0; i < window; ++i)
            slots[perm[i]] = std::move(dealt[w * window + i]);
        std::move(slots.begin(), slots.end(), dealt.begin() + w * window);
    }
    set.rest = std::move(dealt);
    return set;
}

size_t
EncodeRequest(uint64_t id, const std::vector<uint8_t> &rest, uint8_t *out)
{
    size_t n = 0;
    out[n++] = 0x08;  // field 1, varint
    while (id >= 0x80) {
        out[n++] = static_cast<uint8_t>(id | 0x80);
        id >>= 7;
    }
    out[n++] = static_cast<uint8_t>(id);
    if (!rest.empty())
        std::copy(rest.begin(), rest.end(), out + n);
    return n + rest.size();
}

HpbInputs
BuildHpbInputs(uint64_t seed, size_t per_service)
{
    HpbInputs in;
    // The schemas are the build recipe (default fleet and HpbParams);
    // only the message draws below follow the seed.
    const protoacc::profile::Fleet fleet{protoacc::profile::FleetParams{}};
    in.benches = protoacc::hpb::BuildHyperProtoBench(fleet);
    for (size_t b = 0; b < in.benches.size(); ++b) {
        const auto &bench = in.benches[b];
        in.arenas.push_back(std::make_unique<Arena>());
        protoacc::harness::Workload w;
        w.pool = bench.workload.pool;
        w.msg_index = bench.workload.msg_index;
        // A service's message costs are heavy-tailed: one message can
        // carry most of its bytes and parse time, so a plain seeded draw
        // swings the service's Gbit/s several-fold between seeds.
        // Instead, a fixed candidate pool (kHpbStrata candidates per kept
        // message, drawn from the recipe's own seed) is ranked by its
        // modeled BOOM parse cycles into equal-count strata; the run's
        // seed picks one candidate per stratum and the order, except in
        // the kHpbPinnedStrata costliest strata, which keep their median
        // candidate on every seed.
        Rng pool_rng(protoacc::hpb::HpbParams{}.seed + b + 1);
        Rng rng(seed * 0x9e3779b97f4a7c15ull + b + 1);
        std::vector<Message> candidates;
        for (size_t i = 0; i < per_service * kHpbStrata; ++i)
            candidates.push_back(bench.service->BuildMessage(
                w.msg_index, in.arenas.back().get(), &pool_rng));
        protoacc::cpu::CpuCostModel boom(protoacc::cpu::BoomParams());
        std::vector<std::pair<double, size_t>> by_cost;
        for (size_t i = 0; i < candidates.size(); ++i) {
            const std::vector<uint8_t> wire =
                protoacc::proto::Serialize(candidates[i]);
            Arena scratch;
            Message parsed = Message::Create(&scratch, *w.pool, w.msg_index);
            const double before = boom.cycles();
            PA_CHECK(protoacc::proto::ParseFromBuffer(
                         wire.data(), wire.size(), &parsed, &boom) ==
                     protoacc::proto::ParseStatus::kOk);
            by_cost.emplace_back(boom.cycles() - before, i);
        }
        std::sort(by_cost.begin(), by_cost.end());
        for (size_t s = 0; s < per_service; ++s) {
            const size_t pick = s + kHpbPinnedStrata >= per_service
                                    ? kHpbStrata / 2
                                    : rng.NextBounded(kHpbStrata);
            w.messages.push_back(
                candidates[by_cost[s * kHpbStrata + pick].second]);
        }
        for (size_t i = w.messages.size(); i > 1; --i)
            std::swap(w.messages[i - 1], w.messages[rng.NextBounded(i)]);
        protoacc::harness::FillWires(&w);
        in.workloads.push_back(std::move(w));
    }
    return in;
}

}  // namespace perfbench
