#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "sim/memory_system.h"
#include "sim/port.h"

namespace protoacc::sim {
namespace {

// Reference models: the first timestamp-LRU cache and scanning TLB,
// kept verbatim as the definition of the replacement policy (true LRU,
// empty ways filled before any eviction). The oracle tests below pin
// Cache, Tlb and MemorySystem to them access by access.
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &config) : config_(config)
    {
        const uint64_t lines = config.size_bytes / config.line_bytes;
        num_sets_ = static_cast<uint32_t>(lines / config.ways);
        lines_.resize(num_sets_ * config.ways);
    }

    bool
    Access(uint64_t addr, bool is_write)
    {
        ++tick_;
        const uint64_t line = addr / config_.line_bytes;
        const uint32_t set = static_cast<uint32_t>(line % num_sets_);
        const uint64_t tag = line / num_sets_;
        Line *begin = &lines_[static_cast<size_t>(set) * config_.ways];

        Line *victim = begin;
        for (uint32_t w = 0; w < config_.ways; ++w) {
            Line &entry = begin[w];
            if (entry.valid && entry.tag == tag) {
                entry.lru = tick_;
                entry.dirty |= is_write;
                ++stats_.hits;
                return true;
            }
            if (!entry.valid) {
                victim = &entry;
            } else if (victim->valid && entry.lru < victim->lru) {
                victim = &entry;
            }
        }
        ++stats_.misses;
        if (victim->valid && victim->dirty)
            ++stats_.writebacks;
        victim->valid = true;
        victim->tag = tag;
        victim->dirty = is_write;
        victim->lru = tick_;
        return false;
    }

    bool
    Contains(uint64_t addr) const
    {
        const uint64_t line = addr / config_.line_bytes;
        const uint32_t set = static_cast<uint32_t>(line % num_sets_);
        const uint64_t tag = line / num_sets_;
        const Line *begin =
            &lines_[static_cast<size_t>(set) * config_.ways];
        for (uint32_t w = 0; w < config_.ways; ++w) {
            if (begin[w].valid && begin[w].tag == tag)
                return true;
        }
        return false;
    }

    void
    Flush()
    {
        for (auto &line : lines_)
            line = Line{};
    }

    const CacheStats &stats() const { return stats_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0;
    };

    CacheConfig config_;
    uint32_t num_sets_;
    std::vector<Line> lines_;
    uint64_t tick_ = 0;
    CacheStats stats_;
};

class ReferenceTlb
{
  public:
    explicit ReferenceTlb(const TlbConfig &config) : config_(config)
    {
        entries_.resize(config.entries);
    }

    uint32_t
    Access(uint64_t addr)
    {
        ++tick_;
        const uint64_t vpn = addr / config_.page_bytes;
        Entry *victim = &entries_[0];
        for (auto &entry : entries_) {
            if (entry.valid && entry.vpn == vpn) {
                entry.lru = tick_;
                ++stats_.hits;
                return 0;
            }
            if (!entry.valid) {
                victim = &entry;
            } else if (victim->valid && entry.lru < victim->lru) {
                victim = &entry;
            }
        }
        ++stats_.misses;
        victim->valid = true;
        victim->vpn = vpn;
        victim->lru = tick_;
        return config_.walk_latency;
    }

    void
    Flush()
    {
        for (auto &entry : entries_)
            entry = Entry{};
    }

    const TlbStats &stats() const { return stats_; }

  private:
    struct Entry
    {
        uint64_t vpn = 0;
        bool valid = false;
        uint64_t lru = 0;
    };

    TlbConfig config_;
    std::vector<Entry> entries_;
    uint64_t tick_ = 0;
    TlbStats stats_;
};

// The first MemorySystem's latency arithmetic over two reference caches.
class ReferenceMemorySystem
{
  public:
    explicit ReferenceMemorySystem(const MemorySystemConfig &config)
        : config_(config), l2_(config.l2), llc_(config.llc)
    {}

    uint64_t
    ReadLatency(uint64_t addr, uint64_t size)
    {
        if (size == 0)
            return 0;
        ++stats_.reads;
        stats_.read_bytes += size;
        const uint32_t line = config_.l2.line_bytes;
        const uint64_t first_line = addr / line;
        const uint64_t last_line = (addr + size - 1) / line;
        const uint64_t latency = LineLatency(addr, false);
        for (uint64_t l = first_line + 1; l <= last_line; ++l)
            LineLatency(l * line, false);
        const uint64_t beats = CeilDiv(size, config_.bus_bytes_per_cycle);
        return latency + (beats > 0 ? beats - 1 : 0);
    }

    uint64_t
    WriteLatency(uint64_t addr, uint64_t size)
    {
        if (size == 0)
            return 0;
        ++stats_.writes;
        stats_.write_bytes += size;
        const uint32_t line = config_.l2.line_bytes;
        const uint64_t first_line = addr / line;
        const uint64_t last_line = (addr + size - 1) / line;
        for (uint64_t l = first_line; l <= last_line; ++l)
            LineLatency(l * line, true);
        return CeilDiv(size, config_.bus_bytes_per_cycle);
    }

    void
    Flush()
    {
        l2_.Flush();
        llc_.Flush();
    }

    const MemorySystemStats &stats() const { return stats_; }
    const ReferenceCache &l2() const { return l2_; }
    const ReferenceCache &llc() const { return llc_; }

  private:
    uint64_t
    LineLatency(uint64_t addr, bool is_write)
    {
        if (l2_.Access(addr, is_write))
            return config_.l2.hit_latency;
        if (llc_.Access(addr, is_write))
            return config_.llc.hit_latency;
        return config_.dram_latency;
    }

    MemorySystemConfig config_;
    ReferenceCache l2_;
    ReferenceCache llc_;
    MemorySystemStats stats_;
};

TEST(Cache, HitAfterFill)
{
    Cache cache(CacheConfig{.name = "t",
                            .size_bytes = 4096,
                            .ways = 2,
                            .line_bytes = 64,
                            .hit_latency = 10});
    EXPECT_FALSE(cache.Access(0x1000, false));  // cold miss
    EXPECT_TRUE(cache.Access(0x1000, false));   // hit
    EXPECT_TRUE(cache.Access(0x103f, false));   // same line
    EXPECT_FALSE(cache.Access(0x1040, false));  // next line
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, line 64, 2 sets (256 B total).
    Cache cache(CacheConfig{.name = "t",
                            .size_bytes = 256,
                            .ways = 2,
                            .line_bytes = 64,
                            .hit_latency = 1});
    // Three lines mapping to the same set (stride = sets * line = 128).
    cache.Access(0, false);
    cache.Access(128, false);
    cache.Access(0, false);    // touch 0 so 128 is LRU
    EXPECT_TRUE(cache.Contains(128));  // a probe does not refresh it
    cache.Access(256, false);  // evicts 128
    EXPECT_TRUE(cache.Contains(0));
    EXPECT_FALSE(cache.Contains(128));
    EXPECT_TRUE(cache.Contains(256));
}

TEST(Cache, DirtyEvictionCountsWriteback)
{
    Cache cache(CacheConfig{.name = "t",
                            .size_bytes = 128,
                            .ways = 1,
                            .line_bytes = 64,
                            .hit_latency = 1});
    cache.Access(0, true);    // dirty
    cache.Access(128, false); // evicts dirty line 0
    EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(Cache, FlushInvalidates)
{
    Cache cache(CacheConfig{.name = "t",
                            .size_bytes = 4096,
                            .ways = 2,
                            .line_bytes = 64,
                            .hit_latency = 1});
    cache.Access(0x40, false);
    cache.Flush();
    EXPECT_FALSE(cache.Contains(0x40));
}

TEST(Tlb, HitAfterWalkAndLru)
{
    Tlb tlb(TlbConfig{.entries = 2, .page_bytes = 4096,
                      .walk_latency = 50});
    EXPECT_EQ(tlb.Access(0x0000), 50u);   // walk
    EXPECT_EQ(tlb.Access(0x0fff), 0u);    // same page
    EXPECT_EQ(tlb.Access(0x1000), 50u);   // second page
    EXPECT_EQ(tlb.Access(0x0000), 0u);    // still resident
    EXPECT_EQ(tlb.Access(0x2000), 50u);   // evicts page 1 (LRU)
    EXPECT_EQ(tlb.Access(0x1000), 50u);   // page 1 was evicted
    EXPECT_EQ(tlb.stats().misses, 4u);
}

TEST(MemorySystem, LatencyOrdering)
{
    MemorySystemConfig cfg;
    MemorySystem mem(cfg);
    const uint64_t cold = mem.ReadLatency(1 << 20, 8);
    const uint64_t warm = mem.ReadLatency(1 << 20, 8);
    EXPECT_EQ(cold, cfg.dram_latency);
    EXPECT_EQ(warm, cfg.l2.hit_latency);
}

TEST(MemorySystem, LlcHitAfterL2Eviction)
{
    MemorySystemConfig cfg;
    cfg.l2.size_bytes = 4096;  // tiny L2 so we can evict easily
    cfg.l2.ways = 1;
    MemorySystem mem(cfg);
    mem.ReadLatency(0, 8);
    // Evict line 0 from the direct-mapped L2 (same set, different tag).
    mem.ReadLatency(4096, 8);
    const uint64_t lat = mem.ReadLatency(0, 8);
    EXPECT_EQ(lat, cfg.llc.hit_latency);
}

TEST(MemorySystem, StreamingReadIsBandwidthBound)
{
    MemorySystemConfig cfg;
    MemorySystem mem(cfg);
    // 1 KiB streaming read: first-line latency plus one beat per 16 B.
    const uint64_t lat = mem.ReadLatency(1 << 22, 1024);
    EXPECT_EQ(lat, cfg.dram_latency + 1024 / 16 - 1);
}

TEST(MemorySystem, PostedWritesCostOccupancyOnly)
{
    MemorySystemConfig cfg;
    MemorySystem mem(cfg);
    EXPECT_EQ(mem.WriteLatency(1 << 23, 4), 1u);
    EXPECT_EQ(mem.WriteLatency(1 << 23, 64), 4u);
}

TEST(Port, TranslationAddsWalkLatency)
{
    MemorySystemConfig cfg;
    MemorySystem mem(cfg);
    Port port("test", &mem, TlbConfig{.entries = 4,
                                      .page_bytes = 4096,
                                      .walk_latency = 60});
    alignas(64) static char buf[256];
    // Cold: page walk + DRAM fill. Warm: TLB hit + L2 hit.
    const uint64_t first = port.Read(buf, 16);
    const uint64_t second = port.Read(buf, 16);
    EXPECT_EQ(first, 60u + cfg.dram_latency);
    EXPECT_EQ(second, cfg.l2.hit_latency);
    EXPECT_EQ(port.stats().reads, 2u);
    EXPECT_EQ(port.stats().read_bytes, 32u);
}

TEST(MemorySystem, StatsAccumulate)
{
    MemorySystem mem(MemorySystemConfig{});
    mem.ReadLatency(0, 100);
    mem.WriteLatency(0, 50);
    EXPECT_EQ(mem.stats().reads, 1u);
    EXPECT_EQ(mem.stats().read_bytes, 100u);
    EXPECT_EQ(mem.stats().writes, 1u);
    EXPECT_EQ(mem.stats().write_bytes, 50u);
    mem.ResetStats();
    EXPECT_EQ(mem.stats().reads, 0u);
}

// ---- Oracle tests: Cache, Tlb and MemorySystem against the references.

constexpr uint64_t kHeapBase = 0x7f3a'1234'5000ull;  // a host-heap-like VA

struct Step
{
    enum Kind { kRead, kWrite, kProbe, kFlush } kind;
    uint64_t addr;
};

struct Stream
{
    std::string name;
    std::vector<Step> steps;
};

// Wraps @p n addresses from @p next into a stream: 30% writes, a
// Contains probe before 20% of accesses (mostly of a recently touched
// address, so probes hit lines that are not most recent), and one Flush
// two thirds of the way through.
template <typename Next>
Stream
MakeStream(std::string name, Rng &rng, size_t n, Next next)
{
    Stream stream{std::move(name), {}};
    std::vector<uint64_t> recent(64, kHeapBase);
    for (size_t i = 0; i < n; ++i) {
        if (i == n * 2 / 3)
            stream.steps.push_back({Step::kFlush, 0});
        const uint64_t addr = next(i);
        if (rng.NextBool(0.2)) {
            const uint64_t probe =
                rng.NextBool(0.2) ? addr
                                  : recent[rng.NextBounded(recent.size())];
            stream.steps.push_back({Step::kProbe, probe});
        }
        stream.steps.push_back(
            {rng.NextBool(0.3) ? Step::kWrite : Step::kRead, addr});
        recent[i % recent.size()] = addr;
    }
    return stream;
}

std::vector<Stream>
CacheStreams(const CacheConfig &cfg, uint64_t seed)
{
    Rng rng(seed);
    const uint64_t cap = cfg.size_bytes;
    const uint64_t line = cfg.line_bytes;
    const uint64_t sets = cap / line / cfg.ways;
    const uint64_t way_span = sets * line;  // same-set stride
    const uint64_t n = std::max<uint64_t>(20000, 4 * cap / line);
    // A few more distinct lines per set than it has ways.
    const uint64_t per_set = 2 * cfg.ways + 2;
    const uint64_t hot_sets = std::min<uint64_t>(sets, 3);
    std::vector<uint64_t> wide_tags(per_set);
    for (auto &t : wide_tags)
        t = rng.Next() & ~(way_span - 1);

    std::vector<Stream> streams;
    streams.push_back(MakeStream("uniform over 2x capacity", rng, n,
                                 [&](size_t) {
                                     return kHeapBase +
                                            rng.NextBounded(2 * cap);
                                 }));
    streams.push_back(MakeStream("uniform over 64x capacity", rng, n,
                                 [&](size_t) {
                                     return kHeapBase +
                                            rng.NextBounded(64 * cap);
                                 }));
    // Long enough to stream twice the capacity before the Flush.
    streams.push_back(MakeStream("24-byte stride", rng,
                                 std::max<uint64_t>(n, cap / 8),
                                 [&](size_t i) {
                                     return kHeapBase + 24 * i % (4 * cap);
                                 }));
    streams.push_back(MakeStream("same-set stride", rng, n, [&](size_t) {
        return kHeapBase + rng.NextBounded(per_set) * way_span +
               rng.NextBounded(hot_sets) * line + rng.NextBounded(line);
    }));
    const uint64_t pages = std::max<uint64_t>(64, 2 * cap / 4096);
    streams.push_back(MakeStream("page-crossing", rng, n, [&](size_t) {
        return kHeapBase + (1 + rng.NextBounded(pages)) * 4096 - 64 +
               rng.NextBounded(128);
    }));
    streams.push_back(MakeStream("full-width tags", rng, n, [&](size_t) {
        return wide_tags[rng.NextBounded(per_set)] +
               rng.NextBounded(hot_sets) * line + rng.NextBounded(line);
    }));
    return streams;
}

::testing::AssertionResult
CacheMatchesReference(const CacheConfig &cfg, const Stream &stream)
{
    Cache cache(cfg);
    ReferenceCache ref(cfg);
    for (size_t i = 0; i < stream.steps.size(); ++i) {
        const Step &step = stream.steps[i];
        bool got = false;
        bool want = false;
        switch (step.kind) {
        case Step::kRead:
        case Step::kWrite:
            got = cache.Access(step.addr, step.kind == Step::kWrite);
            want = ref.Access(step.addr, step.kind == Step::kWrite);
            break;
        case Step::kProbe:
            got = cache.Contains(step.addr);
            want = ref.Contains(step.addr);
            break;
        case Step::kFlush:
            cache.Flush();
            ref.Flush();
            break;
        }
        if (got != want) {
            return ::testing::AssertionFailure()
                   << stream.name << ": step " << i << " (kind "
                   << step.kind << ", addr 0x" << std::hex << step.addr
                   << std::dec << ") returned " << got << ", reference "
                   << want;
        }
    }
    const CacheStats &got = cache.stats();
    const CacheStats &want = ref.stats();
    if (got.hits != want.hits || got.misses != want.misses ||
        got.writebacks != want.writebacks) {
        return ::testing::AssertionFailure()
               << stream.name << ": stats " << got.hits << "/"
               << got.misses << "/" << got.writebacks << ", reference "
               << want.hits << "/" << want.misses << "/"
               << want.writebacks;
    }
    // Each stream must reach the eviction path, not only fill and hit.
    if (want.writebacks == 0) {
        return ::testing::AssertionFailure()
               << stream.name << ": no dirty line was ever evicted";
    }
    return ::testing::AssertionSuccess();
}

TEST(CacheOracle, MatchesTimestampLruReference)
{
    const MemorySystemConfig device;
    const std::vector<CacheConfig> geometries = {
        device.l2,
        device.llc,
        {.name = "direct-mapped", .size_bytes = 4096, .ways = 1},
        {.name = "one set, 16 ways", .size_bytes = 1024, .ways = 16},
        {.name = "2 sets, 2 ways", .size_bytes = 256, .ways = 2},
        // Smallest way span the tag word allows: 2 flag bits below the
        // tag, none to spare.
        {.name = "4-byte lines, one set",
         .size_bytes = 8,
         .ways = 2,
         .line_bytes = 4},
    };
    uint64_t seed = 0xCAC4E;
    for (const CacheConfig &cfg : geometries) {
        SCOPED_TRACE(cfg.name);
        for (const Stream &stream : CacheStreams(cfg, ++seed))
            EXPECT_TRUE(CacheMatchesReference(cfg, stream));
    }
}

TEST(TlbOracle, MatchesScanningReference)
{
    constexpr uint64_t kPage = 4096;
    constexpr size_t kSteps = 20000;
    uint64_t seed = 0x71B;
    for (uint32_t entries : {1u, 2u, 4u, 32u}) {
        SCOPED_TRACE("entries=" + std::to_string(entries));
        const TlbConfig cfg{.entries = entries,
                            .page_bytes = kPage,
                            .walk_latency = 60};
        const uint64_t reach = entries * kPage;
        Rng rng(++seed);
        std::vector<uint64_t> wide_pages(2 * entries + 2);
        for (auto &p : wide_pages)
            p = rng.Next() & ~(kPage - 1);

        std::vector<Stream> streams;
        streams.push_back(MakeStream("uniform over 2x reach", rng, kSteps,
                                     [&](size_t) {
                                         return kHeapBase +
                                                rng.NextBounded(2 * reach);
                                     }));
        streams.push_back(MakeStream("uniform over 64x reach", rng, kSteps,
                                     [&](size_t) {
                                         return kHeapBase +
                                                rng.NextBounded(64 * reach);
                                     }));
        streams.push_back(
            MakeStream("24-byte stride", rng, kSteps, [&](size_t i) {
                return kHeapBase + 24 * i % (4 * reach);
            }));
        streams.push_back(
            MakeStream("cycle over entries+1 pages", rng, kSteps,
                       [&](size_t i) {
                           return kHeapBase + i % (entries + 1) * kPage +
                                  rng.NextBounded(kPage);
                       }));
        streams.push_back(
            MakeStream("page-crossing", rng, kSteps, [&](size_t) {
                return kHeapBase +
                       (1 + rng.NextBounded(2 * entries)) * kPage - 8 +
                       rng.NextBounded(16);
            }));
        streams.push_back(
            MakeStream("full-width pages", rng, kSteps, [&](size_t) {
                return wide_pages[rng.NextBounded(wide_pages.size())] +
                       rng.NextBounded(kPage);
            }));

        for (const Stream &stream : streams) {
            Tlb tlb(cfg);
            ReferenceTlb ref(cfg);
            size_t mismatches = 0;
            for (const Step &step : stream.steps) {
                if (step.kind == Step::kFlush) {
                    tlb.Flush();
                    ref.Flush();
                } else if (step.kind != Step::kProbe) {
                    mismatches +=
                        tlb.Access(step.addr) != ref.Access(step.addr);
                }
            }
            EXPECT_EQ(mismatches, 0u) << stream.name;
            EXPECT_EQ(tlb.stats().hits, ref.stats().hits) << stream.name;
            EXPECT_EQ(tlb.stats().misses, ref.stats().misses)
                << stream.name;
            // More misses than two cold fills: some evicted an entry.
            EXPECT_GT(ref.stats().misses, 2u * entries) << stream.name;
        }
    }
}

TEST(MemorySystemOracle, LatenciesMatchReference)
{
    MemorySystemConfig small;
    small.l2 = {.name = "L2",
                .size_bytes = 4096,
                .ways = 2,
                .line_bytes = 32,  // the walk strides by the L2's line
                .hit_latency = 12};
    small.llc = {.name = "LLC",
                 .size_bytes = 16 * 1024,
                 .ways = 4,
                 .line_bytes = 64,
                 .hit_latency = 38};
    const uint64_t sizes[] = {0, 1, 15, 16, 63, 64, 65, 1024};
    uint64_t seed = 0x3E3;
    for (const MemorySystemConfig &cfg : {MemorySystemConfig{}, small}) {
        SCOPED_TRACE(cfg.l2.size_bytes);
        MemorySystem mem(cfg);
        ReferenceMemorySystem ref(cfg);
        Rng rng(++seed);
        const uint64_t range = 2 * cfg.llc.size_bytes;
        constexpr size_t kCalls = 60000;
        size_t mismatches = 0;
        for (size_t i = 0; i < kCalls; ++i) {
            if (i == kCalls * 2 / 3) {
                mem.Flush();
                ref.Flush();
            }
            // Odd offsets: no access starts on a line or beat boundary.
            const uint64_t addr =
                kHeapBase + (rng.NextBounded(range) | 1);
            const uint64_t size = sizes[rng.NextBounded(std::size(sizes))];
            if (rng.NextBool(0.3)) {
                mismatches += mem.WriteLatency(addr, size) !=
                              ref.WriteLatency(addr, size);
            } else {
                mismatches += mem.ReadLatency(addr, size) !=
                              ref.ReadLatency(addr, size);
            }
        }
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(mem.stats().reads, ref.stats().reads);
        EXPECT_EQ(mem.stats().writes, ref.stats().writes);
        EXPECT_EQ(mem.stats().read_bytes, ref.stats().read_bytes);
        EXPECT_EQ(mem.stats().write_bytes, ref.stats().write_bytes);
        for (const auto &[got, want] :
             {std::pair{mem.l2().stats(), ref.l2().stats()},
              std::pair{mem.llc().stats(), ref.llc().stats()}}) {
            EXPECT_EQ(got.hits, want.hits);
            EXPECT_EQ(got.misses, want.misses);
            EXPECT_EQ(got.writebacks, want.writebacks);
            EXPECT_GT(want.writebacks, 0u);
        }
    }
}

TEST(TlbDeathTest, PageSizeMustBeAPowerOfTwo)
{
    EXPECT_DEATH(Tlb(TlbConfig{.entries = 4, .page_bytes = 3000}),
                 "PA_CHECK failed");
}

TEST(CacheDeathTest, WaySpanMustHoldTheTagFlags)
{
    // One set of 2-byte lines: only one address bit below the tag.
    EXPECT_DEATH(Cache(CacheConfig{.size_bytes = 4,
                                   .ways = 2,
                                   .line_bytes = 2}),
                 "PA_CHECK failed");
}

}  // namespace
}  // namespace protoacc::sim
