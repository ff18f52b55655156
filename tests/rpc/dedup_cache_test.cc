#include "rpc/dedup_cache.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "dedup_cache_reference.h"

// Every heap allocation in this test binary goes through these
// replacements, so a test can count the allocations (and the bytes
// held) across a stretch of cache operations.
namespace {

std::atomic<uint64_t> g_heap_allocations{0};
std::atomic<int64_t> g_heap_live_bytes{0};

void *
CountedAlloc(std::size_t n)
{
    void *p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr)
        throw std::bad_alloc();
    g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
    g_heap_live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                                std::memory_order_relaxed);
    return p;
}

void
CountedFree(void *p) noexcept
{
    if (p == nullptr)
        return;
    g_heap_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                                std::memory_order_relaxed);
    std::free(p);
}

}  // namespace

void *
operator new(std::size_t n)
{
    return CountedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return CountedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    CountedFree(p);
}

void
operator delete[](void *p) noexcept
{
    CountedFree(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    CountedFree(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    CountedFree(p);
}

namespace protoacc::rpc {
namespace {

FrameHeader
ResponseHeader(uint32_t call_id, uint64_t key, size_t payload_bytes)
{
    FrameHeader h;
    h.call_id = call_id;
    h.method_id = 1;
    h.kind = FrameKind::kResponse;
    h.idempotency_key = key;
    h.payload_bytes = static_cast<uint32_t>(payload_bytes);
    return h;
}

std::vector<uint8_t>
Payload(const std::string &s)
{
    return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(DedupCacheTest, MissThenHitRoundTripsTheCommittedResponse)
{
    DedupCache cache(8);
    FrameHeader header;
    std::vector<uint8_t> payload;
    EXPECT_FALSE(cache.Lookup(42, &header, &payload));

    const std::vector<uint8_t> committed = Payload("answer");
    cache.Insert(42, ResponseHeader(7, 42, committed.size()),
                 committed.data(), committed.size());

    ASSERT_TRUE(cache.Lookup(42, &header, &payload));
    EXPECT_EQ(header.call_id, 7u);
    EXPECT_EQ(header.idempotency_key, 42u);
    EXPECT_EQ(payload, committed);

    const DedupCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(DedupCacheTest, KeyZeroIsNeverCachedAndNeverCountsAsMiss)
{
    DedupCache cache(8);
    const std::vector<uint8_t> p = Payload("x");
    cache.Insert(0, ResponseHeader(1, 0, p.size()), p.data(), p.size());
    FrameHeader header;
    std::vector<uint8_t> payload;
    EXPECT_FALSE(cache.Lookup(0, &header, &payload));
    const DedupCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.insertions, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 0u);
}

TEST(DedupCacheTest, FirstCommittedAnswerWins)
{
    DedupCache cache(8);
    const std::vector<uint8_t> first = Payload("first");
    const std::vector<uint8_t> second = Payload("second");
    cache.Insert(5, ResponseHeader(1, 5, first.size()), first.data(),
                 first.size());
    cache.Insert(5, ResponseHeader(2, 5, second.size()), second.data(),
                 second.size());

    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(cache.Lookup(5, &header, &payload));
    EXPECT_EQ(payload, first);
    EXPECT_EQ(cache.stats().insertions, 1u);
}

TEST(DedupCacheTest, FifoEvictionHoldsTheBound)
{
    DedupCache cache(2);
    const std::vector<uint8_t> p = Payload("p");
    for (uint64_t key = 1; key <= 3; ++key)
        cache.Insert(key, ResponseHeader(1, key, p.size()), p.data(),
                     p.size());

    FrameHeader header;
    std::vector<uint8_t> payload;
    // Key 1 was the oldest entry — evicted when key 3 arrived.
    EXPECT_FALSE(cache.Lookup(1, &header, &payload));
    EXPECT_TRUE(cache.Lookup(2, &header, &payload));
    EXPECT_TRUE(cache.Lookup(3, &header, &payload));

    const DedupCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.capacity, 2u);
}

TEST(DedupCacheTest, CapacityZeroDisablesTheCache)
{
    DedupCache cache(0);
    const std::vector<uint8_t> p = Payload("p");
    cache.Insert(9, ResponseHeader(1, 9, p.size()), p.data(), p.size());
    FrameHeader header;
    std::vector<uint8_t> payload;
    EXPECT_FALSE(cache.Lookup(9, &header, &payload));
    EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(DedupCacheTest, RetryHorizonExpiresDeadEntriesFirst)
{
    // Entries older than the retry horizon can never be hit again —
    // they are dropped as "expired" (no correctness exposure), not as
    // unsafe evictions, and proactively, before capacity forces it.
    DedupConfig config;
    config.capacity = 8;
    config.retry_horizon = 2;
    DedupCache cache(config);
    const std::vector<uint8_t> p = Payload("p");
    for (uint64_t key = 1; key <= 5; ++key)
        cache.Insert(key, ResponseHeader(1, key, p.size()), p.data(),
                     p.size());

    FrameHeader header;
    std::vector<uint8_t> payload;
    // Keys 1 and 2 aged past the 2-insertion horizon; 4 and 5 are
    // still inside it.
    EXPECT_FALSE(cache.Lookup(1, &header, &payload));
    EXPECT_FALSE(cache.Lookup(2, &header, &payload));
    EXPECT_TRUE(cache.Lookup(4, &header, &payload));
    EXPECT_TRUE(cache.Lookup(5, &header, &payload));

    const DedupCache::Stats stats = cache.stats();
    EXPECT_GE(stats.expired, 2u);
    // Capacity (8) was never the binding constraint: every drop was a
    // provably dead entry.
    EXPECT_EQ(stats.unsafe_evictions, 0u);
}

TEST(DedupCacheTest, IgnoredDuplicateCommitsDoNotAgeEntries)
{
    // Age is measured in insertions: a duplicate commit that the cache
    // ignores (first committed answer wins) must not advance the clock
    // and expire live entries early.
    DedupConfig config;
    config.capacity = 8;
    config.retry_horizon = 2;
    DedupCache cache(config);
    const std::vector<uint8_t> p = Payload("p");
    for (int i = 0; i < 4; ++i)
        cache.Insert(1, ResponseHeader(1, 1, p.size()), p.data(),
                     p.size());
    cache.Insert(2, ResponseHeader(2, 2, p.size()), p.data(), p.size());

    // Key 1 is one real insertion old, well inside the horizon.
    FrameHeader header;
    std::vector<uint8_t> payload;
    EXPECT_TRUE(cache.Lookup(1, &header, &payload));
    const DedupCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.insertions, 2u);
    EXPECT_EQ(stats.expired, 0u);
    EXPECT_EQ(stats.entries, 2u);
}

TEST(DedupCacheTest, CapacityEvictionInsideTheHorizonCountsUnsafe)
{
    // The opposite regime: a huge horizon and a tiny cache. Evicting
    // an entry that a client could still retry is a potential double
    // execution, and the counter says so.
    DedupConfig config;
    config.capacity = 2;
    config.retry_horizon = 1000;
    DedupCache cache(config);
    const std::vector<uint8_t> p = Payload("p");
    for (uint64_t key = 1; key <= 3; ++key)
        cache.Insert(key, ResponseHeader(1, key, p.size()), p.data(),
                     p.size());

    const DedupCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.unsafe_evictions, 1u);
    EXPECT_EQ(stats.expired, 0u);
}

TEST(DedupCacheTest, SerializeDeserializeRoundTripsEntries)
{
    DedupCache cache(8);
    const std::vector<uint8_t> a = Payload("answer-a");
    const std::vector<uint8_t> b = Payload("answer-b");
    cache.Insert(10, ResponseHeader(1, 10, a.size()), a.data(),
                 a.size());
    cache.Insert(20, ResponseHeader(2, 20, b.size()), b.data(),
                 b.size());

    const std::vector<uint8_t> image = cache.Serialize();
    EXPECT_FALSE(image.empty());

    DedupCache restored(8);
    ASSERT_TRUE(restored.Deserialize(image.data(), image.size()));
    EXPECT_TRUE(restored.stats().restored);
    EXPECT_EQ(restored.stats().entries, 2u);

    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(restored.Lookup(10, &header, &payload));
    EXPECT_EQ(header.call_id, 1u);
    EXPECT_EQ(payload, a);
    ASSERT_TRUE(restored.Lookup(20, &header, &payload));
    EXPECT_EQ(header.call_id, 2u);
    EXPECT_EQ(payload, b);
}

TEST(DedupCacheTest, RestorePreservesEntryAgesForTheHorizon)
{
    // The snapshot carries each entry's logical age: after a restore,
    // old entries expire on schedule instead of getting a fresh lease
    // on life (which would hold dead weight) or dying early (which
    // would re-execute retries still inside the window).
    DedupConfig config;
    config.capacity = 8;
    config.retry_horizon = 4;
    DedupCache cache(config);
    const std::vector<uint8_t> p = Payload("p");
    cache.Insert(1, ResponseHeader(1, 1, p.size()), p.data(), p.size());
    cache.Insert(2, ResponseHeader(2, 2, p.size()), p.data(), p.size());

    const std::vector<uint8_t> image = cache.Serialize();
    DedupCache restored(config);
    ASSERT_TRUE(restored.Deserialize(image.data(), image.size()));

    // Four more insertions age key 1 (committed at tick 1) past the
    // 4-insertion horizon; key 2 (tick 2) stays exactly inside it.
    for (uint64_t key = 3; key <= 6; ++key)
        restored.Insert(key, ResponseHeader(3, key, p.size()), p.data(),
                        p.size());
    FrameHeader header;
    std::vector<uint8_t> payload;
    EXPECT_FALSE(restored.Lookup(1, &header, &payload));
    EXPECT_TRUE(restored.Lookup(2, &header, &payload));
    EXPECT_GE(restored.stats().expired, 1u);
}

TEST(DedupCacheTest, DeserializeRejectsCorruptImagesFailClosed)
{
    DedupCache cache(8);
    const std::vector<uint8_t> p = Payload("answer");
    cache.Insert(7, ResponseHeader(1, 7, p.size()), p.data(), p.size());
    const std::vector<uint8_t> image = cache.Serialize();

    // A poisoned cache serves wrong answers, so every rejected image
    // must leave the cache EMPTY, even when it held entries before.
    const auto expect_rejected_and_empty =
        [&](const std::vector<uint8_t> &bytes) {
            DedupCache victim(8);
            victim.Insert(99, ResponseHeader(9, 99, p.size()), p.data(),
                          p.size());
            EXPECT_FALSE(victim.Deserialize(bytes.data(), bytes.size()));
            FrameHeader header;
            std::vector<uint8_t> payload;
            EXPECT_FALSE(victim.Lookup(99, &header, &payload));
            EXPECT_EQ(victim.stats().entries, 0u);
            EXPECT_FALSE(victim.stats().restored);
        };

    // Bit flip in the middle (CRC mismatch).
    std::vector<uint8_t> corrupt = image;
    corrupt[corrupt.size() / 2] ^= 0x40;
    expect_rejected_and_empty(corrupt);

    // Truncation at every prefix length.
    for (size_t len = 0; len < image.size(); len += 7)
        expect_rejected_and_empty(
            std::vector<uint8_t>(image.begin(), image.begin() + len));

    // Foreign magic.
    std::vector<uint8_t> foreign = image;
    foreign[0] = 'X';
    expect_rejected_and_empty(foreign);

    // The pristine image still restores (the helper's mutations never
    // touched it).
    DedupCache ok(8);
    EXPECT_TRUE(ok.Deserialize(image.data(), image.size()));
    EXPECT_EQ(ok.stats().entries, 1u);
}

TEST(DedupCacheTest, VersionRejectionNamesFoundAndExpectedVersions)
{
    // An old-version snapshot rejects fail-closed, and the status
    // detail must say which version it saw and which this build
    // expects — "rejected" alone is undebuggable on a fleet where
    // binaries roll at different times.
    DedupCache cache(8);
    const std::vector<uint8_t> p = Payload("answer");
    cache.Insert(7, ResponseHeader(1, 7, p.size()), p.data(), p.size());
    std::vector<uint8_t> image = cache.Serialize();
    image[4] = 2;  // the previous snapshot version

    DedupCache victim(8);
    std::string detail;
    EXPECT_FALSE(victim.Deserialize(image.data(), image.size(),
                                    &detail));
    EXPECT_NE(detail.find("version 2"), std::string::npos) << detail;
    EXPECT_NE(detail.find("expects version 3"), std::string::npos)
        << detail;

    // Every other failure class reports a non-empty detail too.
    detail.clear();
    EXPECT_FALSE(victim.Deserialize(image.data(), 3, &detail));
    EXPECT_NE(detail.find("truncated"), std::string::npos) << detail;
}

TEST(DedupCacheTest, ConcurrentInsertAndLookupAreSafe)
{
    // Many workers share one runtime-wide cache; hammer it from
    // several threads (the TSan job runs this) and check the counters
    // stay coherent.
    DedupCache cache(64);
    constexpr int kThreads = 4;
    constexpr uint64_t kKeysPerThread = 200;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&cache, t] {
            const std::vector<uint8_t> p =
                Payload("thread-" + std::to_string(t));
            for (uint64_t i = 0; i < kKeysPerThread; ++i) {
                const uint64_t key = i % 50 + 1;  // deliberate overlap
                FrameHeader header;
                std::vector<uint8_t> payload;
                if (!cache.Lookup(key, &header, &payload))
                    cache.Insert(key,
                                 ResponseHeader(1, key, p.size()),
                                 p.data(), p.size());
            }
        });
    for (auto &t : threads)
        t.join();

    const DedupCache::Stats stats = cache.stats();
    // 50 distinct keys, first committer wins, capacity never exceeded.
    EXPECT_EQ(stats.entries, 50u);
    EXPECT_EQ(stats.insertions, 50u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<uint64_t>(kThreads) * kKeysPerThread);
}

/// One call of a scripted dedup trace: look the key up and commit an
/// answer on a miss, or (lookup == false) commit without looking.
struct TraceCall
{
    uint16_t tenant = 0;
    uint64_t key = 0;
    bool lookup = true;
};

/// What one call observed: whether its lookup hit, and the answer it
/// replied with (the cached one on a hit, its own otherwise).
struct TraceOutcome
{
    bool hit = false;
    std::vector<uint8_t> answer;
    bool
    operator==(const TraceOutcome &o) const
    {
        return hit == o.hit && answer == o.answer;
    }
};

std::vector<uint8_t>
AnswerFor(size_t call, const TraceCall &c)
{
    return Payload("answer-" + std::to_string(c.tenant) + "-" +
                   std::to_string(c.key) + "-call" + std::to_string(call));
}

/// Repeats, evictions and expiries for caches of four or fewer entries
/// (plus key 0, a tenant sharing a key number, and commits of keys
/// already present).
std::vector<TraceCall>
ScriptedTrace()
{
    std::vector<TraceCall> trace;
    const uint64_t keys[] = {1, 2, 1, 3, 4, 5, 1, 2,  6,  2, 7,  8,
                             3, 9, 9, 10, 4, 11, 12, 12, 5, 13, 1, 14,
                             14, 0, 15, 16, 13, 15, 17, 1, 18, 19, 2, 17};
    for (const uint64_t key : keys)
        trace.push_back(TraceCall{0, key, true});
    trace[5].tenant = 7;        // tenant 7's key 5 ...
    trace[20].tenant = 7;       // ... repeats; tenant 0's never ran
    trace[9].lookup = false;    // commits of a key the cache holds
    trace[14].lookup = false;
    trace[19].lookup = false;   // key 12, committed twice in a row
    return trace;
}

/// The trace one call at a time through Lookup/Insert.
std::vector<TraceOutcome>
RunPerCall(const std::vector<TraceCall> &trace, DedupCache *cache)
{
    std::vector<TraceOutcome> outcomes;
    for (size_t i = 0; i < trace.size(); ++i) {
        const TraceCall &c = trace[i];
        TraceOutcome out;
        FrameHeader header;
        if (c.lookup)
            out.hit = cache->Lookup(c.tenant, c.key, &header, &out.answer);
        if (!out.hit) {
            out.answer = AnswerFor(i, c);
            cache->Insert(c.tenant, c.key,
                          ResponseHeader(static_cast<uint32_t>(i), c.key,
                                         out.answer.size()),
                          out.answer.data(), out.answer.size());
        }
        outcomes.push_back(out);
    }
    return outcomes;
}

/// The trace through views of @p batch calls each, replying into one
/// stream per batch the way a serving worker does (a hit appends the
/// cached answer; a miss appends its own and stages it).
std::vector<TraceOutcome>
RunInViews(const std::vector<TraceCall> &trace, size_t batch,
           DedupCache *cache)
{
    std::vector<TraceOutcome> outcomes;
    DedupCache::View view;
    for (size_t start = 0; start < trace.size(); start += batch) {
        const size_t end = std::min(trace.size(), start + batch);
        std::vector<DedupCache::TenantKey> keys;
        for (size_t i = start; i < end; ++i)
            keys.push_back(
                DedupCache::TenantKey{trace[i].tenant, trace[i].key});
        FrameBuffer stream;
        view.Open(cache, &stream, keys.data(), keys.size());
        for (size_t i = start; i < end; ++i) {
            const TraceCall &c = trace[i];
            TraceOutcome out;
            FrameHeader header;
            if (c.lookup)
                out.hit = view.Lookup(c.tenant, c.key, &header,
                                      &out.answer);
            if (out.hit) {
                stream.Append(header, out.answer.data());
            } else {
                out.answer = AnswerFor(i, c);
                header = ResponseHeader(static_cast<uint32_t>(i), c.key,
                                        out.answer.size());
                const size_t offset =
                    stream.bytes() + FrameHeader::kWireBytes;
                stream.Append(header, out.answer.data());
                view.Commit(c.tenant, c.key, header, offset,
                            out.answer.size());
            }
            outcomes.push_back(out);
        }
        view.Publish();
    }
    return outcomes;
}

void
ExpectSameStats(const DedupCache::Stats &a, const DedupCache::Stats &b)
{
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.insertions, b.insertions);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.unsafe_evictions, b.unsafe_evictions);
    EXPECT_EQ(a.expired, b.expired);
    EXPECT_EQ(a.entries, b.entries);
    EXPECT_EQ(a.capacity, b.capacity);
    EXPECT_EQ(a.restored, b.restored);
}

/// Run ScriptedTrace() per call and through views of 1, 3 and 8 calls,
/// each on a fresh cache of @p config; every run must observe the same
/// hits and answers and end in the same image and Stats.
/// @return the per-call run's Stats.
DedupCache::Stats
ExpectViewsMatchPerCall(const DedupConfig &config)
{
    const std::vector<TraceCall> trace = ScriptedTrace();
    DedupCache twin(config);
    const std::vector<TraceOutcome> expected = RunPerCall(trace, &twin);
    const DedupCache::Stats twin_stats = twin.stats();
    for (const size_t batch : {size_t{1}, size_t{3}, size_t{8}}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        DedupCache cache(config);
        const std::vector<TraceOutcome> outcomes =
            RunInViews(trace, batch, &cache);
        EXPECT_EQ(outcomes.size(), expected.size());
        for (size_t i = 0; i < outcomes.size() && i < expected.size(); ++i)
            EXPECT_TRUE(outcomes[i] == expected[i]) << "call " << i;
        EXPECT_EQ(cache.Serialize(), twin.Serialize());
        ExpectSameStats(cache.stats(), twin_stats);
    }
    return twin_stats;
}

TEST(DedupCacheTest, ViewsOfEveryBatchSizeMatchPerCallLookups)
{
    // A view alone on its cache must be indistinguishable from per-call
    // Lookup/Insert: same hits, same answers, same final image, even
    // when the batch's own commits expire or evict an entry the probe
    // found before a later call in the batch looks it up.
    DedupConfig horizon_bound;  // at most 4 entries are ever in horizon
    horizon_bound.capacity = 4;
    horizon_bound.retry_horizon = 3;
    const DedupCache::Stats expiring = ExpectViewsMatchPerCall(horizon_bound);
    EXPECT_GT(expiring.hits, 0u);
    EXPECT_GT(expiring.expired, 0u);

    DedupConfig capacity_bound;
    capacity_bound.capacity = 3;
    capacity_bound.retry_horizon = 5;
    const DedupCache::Stats evicting =
        ExpectViewsMatchPerCall(capacity_bound);
    EXPECT_GT(evicting.hits, 0u);
    EXPECT_GT(evicting.unsafe_evictions, 0u);
}

TEST(DedupCacheTest, ViewHitsACommitStagedEarlierInTheBatch)
{
    DedupCache cache(8);
    const DedupCache::TenantKey keys[] = {{0, 5}, {0, 5}};
    FrameBuffer stream;
    DedupCache::View view;
    view.Open(&cache, &stream, keys, 2);

    FrameHeader header;
    std::vector<uint8_t> payload;
    EXPECT_FALSE(view.Lookup(0, 5, &header, &payload));
    const std::vector<uint8_t> answer = Payload("staged");
    const FrameHeader committed = ResponseHeader(1, 5, answer.size());
    const size_t offset = stream.bytes() + FrameHeader::kWireBytes;
    stream.Append(committed, answer.data());
    view.Commit(0, 5, committed, offset, answer.size());

    ASSERT_TRUE(view.Lookup(0, 5, &header, &payload));
    EXPECT_EQ(header.call_id, 1u);
    EXPECT_EQ(payload, answer);
    // Nothing reaches the shared cache before the publish.
    EXPECT_EQ(cache.stats().insertions, 0u);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);

    view.Publish();
    const DedupCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    ASSERT_TRUE(cache.Lookup(5, &header, &payload));
    EXPECT_EQ(payload, answer);
}

/// Stage @p answer for @p key in @p view, replying into @p stream.
void
CommitAnswer(DedupCache::View *view, FrameBuffer *stream, uint64_t key,
             uint32_t call_id, const std::vector<uint8_t> &answer)
{
    const FrameHeader header = ResponseHeader(call_id, key, answer.size());
    const size_t offset = stream->bytes() + FrameHeader::kWireBytes;
    stream->Append(header, answer.data());
    view->Commit(0, key, header, offset, answer.size());
}

TEST(DedupCacheTest, AnotherViewsNextProbeHitsAPublishedCommit)
{
    DedupCache cache(8);
    const DedupCache::TenantKey key{0, 7};
    FrameHeader header;
    std::vector<uint8_t> payload;

    FrameBuffer stream_a;
    DedupCache::View a;
    a.Open(&cache, &stream_a, &key, 1);
    EXPECT_FALSE(a.Lookup(0, 7, &header, &payload));
    CommitAnswer(&a, &stream_a, 7, 1, Payload("from-a"));

    // A batch that probed before the publish does not see the commit.
    FrameBuffer stream_early;
    DedupCache::View early;
    early.Open(&cache, &stream_early, &key, 1);
    a.Publish();
    EXPECT_FALSE(early.Lookup(0, 7, &header, &payload));
    early.Publish();

    FrameBuffer stream_b;
    DedupCache::View b;
    b.Open(&cache, &stream_b, &key, 1);
    ASSERT_TRUE(b.Lookup(0, 7, &header, &payload));
    EXPECT_EQ(header.call_id, 1u);
    EXPECT_EQ(payload, Payload("from-a"));
    b.Publish();
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(DedupCacheTest, FirstPublishedAnswerWinsAcrossViews)
{
    DedupCache cache(8);
    const DedupCache::TenantKey key{0, 9};
    FrameHeader header;
    std::vector<uint8_t> payload;
    FrameBuffer stream_a;
    FrameBuffer stream_b;
    DedupCache::View a;
    DedupCache::View b;
    a.Open(&cache, &stream_a, &key, 1);
    b.Open(&cache, &stream_b, &key, 1);
    EXPECT_FALSE(a.Lookup(0, 9, &header, &payload));
    EXPECT_FALSE(b.Lookup(0, 9, &header, &payload));
    CommitAnswer(&b, &stream_b, 9, 2, Payload("from-b"));
    CommitAnswer(&a, &stream_a, 9, 1, Payload("from-a"));
    a.Publish();
    b.Publish();

    ASSERT_TRUE(cache.Lookup(9, &header, &payload));
    EXPECT_EQ(payload, Payload("from-a"));
    EXPECT_EQ(cache.stats().insertions, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(DedupCacheTest, ViewKeyZeroAndCapacityZeroBehaveAsPerCall)
{
    FrameHeader header;
    std::vector<uint8_t> payload;
    const std::vector<uint8_t> answer = Payload("x");

    // Key 0 never hits, is never cached and never counts as a miss.
    DedupCache cache(8);
    const DedupCache::TenantKey zero{0, 0};
    FrameBuffer stream;
    DedupCache::View view;
    view.Open(&cache, &stream, &zero, 1);
    EXPECT_FALSE(view.Lookup(0, 0, &header, &payload));
    CommitAnswer(&view, &stream, 0, 1, answer);
    view.Publish();
    DedupCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.insertions, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 0u);

    // Capacity 0 disables the cache.
    DedupCache disabled(0);
    const DedupCache::TenantKey key{0, 9};
    FrameBuffer stream_off;
    view.Open(&disabled, &stream_off, &key, 1);
    EXPECT_FALSE(view.Lookup(0, 9, &header, &payload));
    CommitAnswer(&view, &stream_off, 9, 1, answer);
    view.Publish();
    stats = disabled.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.insertions, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_FALSE(disabled.Lookup(9, &header, &payload));
}

TEST(DedupCacheTest, ConcurrentViewsOverOverlappingKeysAreSafe)
{
    // The serving runtime's pattern: several workers, each running
    // batches through its own view of the one shared cache. The TSan
    // job runs this.
    DedupCache cache(64);
    constexpr int kThreads = 4;
    constexpr uint64_t kKeysPerThread = 200;
    constexpr uint64_t kBatch = 8;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&cache, t] {
            const std::vector<uint8_t> answer =
                Payload("thread-" + std::to_string(t));
            DedupCache::View view;
            for (uint64_t start = 0; start < kKeysPerThread;
                 start += kBatch) {
                std::vector<DedupCache::TenantKey> keys;
                for (uint64_t i = start; i < start + kBatch; ++i)
                    keys.push_back(
                        DedupCache::TenantKey{0, (i * 7 + t) % 50 + 1});
                FrameBuffer stream;
                view.Open(&cache, &stream, keys.data(), keys.size());
                for (const DedupCache::TenantKey &k : keys) {
                    FrameHeader header;
                    std::vector<uint8_t> payload;
                    if (!view.Lookup(0, k.key, &header, &payload))
                        CommitAnswer(&view, &stream, k.key, 1, answer);
                }
                view.Publish();
            }
        });
    for (auto &t : threads)
        t.join();

    const DedupCache::Stats stats = cache.stats();
    // 50 distinct keys, first publisher wins, capacity never exceeded.
    EXPECT_EQ(stats.entries, 50u);
    EXPECT_EQ(stats.insertions, 50u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<uint64_t>(kThreads) * kKeysPerThread);
}

// ---- Oracle: DedupCache against the map+deque reference ----

using reference::ReferenceDedupCache;

/// Same Stats and the same snapshot bytes.
::testing::AssertionResult
SameState(const DedupCache &cache, const ReferenceDedupCache &ref)
{
    const DedupCache::Stats a = cache.stats();
    const ReferenceDedupCache::Stats b = ref.stats();
    if (a.hits != b.hits || a.misses != b.misses ||
        a.insertions != b.insertions || a.evictions != b.evictions ||
        a.unsafe_evictions != b.unsafe_evictions ||
        a.expired != b.expired || a.entries != b.entries ||
        a.capacity != b.capacity || a.restored != b.restored)
        return ::testing::AssertionFailure()
               << "stats differ: hits " << a.hits << "/" << b.hits
               << " misses " << a.misses << "/" << b.misses
               << " insertions " << a.insertions << "/" << b.insertions
               << " evictions " << a.evictions << "/" << b.evictions
               << " unsafe " << a.unsafe_evictions << "/"
               << b.unsafe_evictions << " expired " << a.expired << "/"
               << b.expired << " entries " << a.entries << "/"
               << b.entries << " restored " << a.restored << "/"
               << b.restored;
    if (cache.Serialize() != ref.Serialize())
        return ::testing::AssertionFailure() << "snapshot bytes differ";
    return ::testing::AssertionSuccess();
}

/// Same hit or miss, and on a hit the same header and payload.
::testing::AssertionResult
SameAnswer(bool hit, const FrameHeader &h, const std::vector<uint8_t> &p,
           bool ref_hit, const FrameHeader &ref_h,
           const std::vector<uint8_t> &ref_p)
{
    if (hit != ref_hit)
        return ::testing::AssertionFailure()
               << "hit " << hit << ", reference " << ref_hit;
    if (hit && (h.call_id != ref_h.call_id ||
                h.idempotency_key != ref_h.idempotency_key ||
                h.tenant_id != ref_h.tenant_id ||
                h.payload_bytes != ref_h.payload_bytes || p != ref_p))
        return ::testing::AssertionFailure() << "answers differ";
    return ::testing::AssertionSuccess();
}

/// Replays one seeded trace through a DedupCache and the reference:
/// per-call lookups and inserts, views of 1-16 calls, and snapshots
/// restored into caches of smaller, equal and larger capacity (or, from
/// earlier in the trace, into the live caches). Checks every answer
/// and, after every step, Stats and snapshot bytes.
void
ReplayAgainstReference(uint64_t seed, size_t capacity, uint64_t horizon,
                       size_t steps)
{
    Rng rng(seed);
    DedupConfig config{capacity, horizon};
    auto cache = std::make_unique<DedupCache>(config);
    auto ref = std::make_unique<ReferenceDedupCache>(config);
    // Enough distinct keys to hit, miss and evict; key 0 now and then.
    const uint64_t pool = capacity + 1 + rng.NextBounded(capacity + 4);
    uint32_t call_id = 0;
    const auto draw_key = [&] {
        return DedupCache::TenantKey{
            static_cast<uint16_t>(rng.NextBounded(2)),
            rng.NextBounded(40) == 0 ? 0 : 1 + rng.NextBounded(pool)};
    };
    // A fresh answer per call, now and then larger than a slot keeps.
    const auto answer = [&](const DedupCache::TenantKey &k) {
        const size_t bytes =
            rng.NextBounded(50) == 0
                ? DedupCache::kSlotKeepBytes + rng.NextBounded(512)
                : rng.NextBounded(48);
        std::vector<uint8_t> p(bytes);
        for (size_t i = 0; i < bytes; ++i)
            p[i] = static_cast<uint8_t>(call_id + k.key * 7 + i);
        return p;
    };
    const auto header_for = [&](const DedupCache::TenantKey &k,
                                size_t bytes) {
        FrameHeader h = ResponseHeader(++call_id, k.key, bytes);
        h.tenant_id = k.tenant;
        return h;
    };
    std::vector<uint8_t> saved_image = ref->Serialize();

    for (size_t step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const uint64_t op = rng.NextBounded(100);
        if (op < 35) {
            // One call: look up, commit on a miss.
            const DedupCache::TenantKey k = draw_key();
            FrameHeader h, ref_h;
            std::vector<uint8_t> p, ref_p;
            const bool hit = cache->Lookup(k.tenant, k.key, &h, &p);
            const bool ref_hit = ref->Lookup(k.tenant, k.key, &ref_h,
                                             &ref_p);
            ASSERT_TRUE(SameAnswer(hit, h, p, ref_hit, ref_h, ref_p));
            if (!hit) {
                const std::vector<uint8_t> a = answer(k);
                const FrameHeader ah = header_for(k, a.size());
                cache->Insert(k.tenant, k.key, ah, a.data(), a.size());
                ref->Insert(k.tenant, k.key, ah, a.data(), a.size());
            }
        } else if (op < 45) {
            // A commit without a lookup (a key already present is
            // ignored).
            const DedupCache::TenantKey k = draw_key();
            const std::vector<uint8_t> a = answer(k);
            const FrameHeader ah = header_for(k, a.size());
            cache->Insert(k.tenant, k.key, ah, a.data(), a.size());
            ref->Insert(k.tenant, k.key, ah, a.data(), a.size());
        } else if (op < 88) {
            // A batch of 1-16 calls through a view of each cache.
            const size_t n = 1 + rng.NextBounded(16);
            std::vector<DedupCache::TenantKey> keys;
            std::vector<ReferenceDedupCache::TenantKey> ref_keys;
            for (size_t i = 0; i < n; ++i) {
                keys.push_back(draw_key());
                ref_keys.push_back({keys.back().tenant, keys.back().key});
            }
            FrameBuffer stream, ref_stream;
            DedupCache::View view;
            ReferenceDedupCache::View ref_view;
            view.Open(cache.get(), &stream, keys.data(), n);
            ref_view.Open(ref.get(), &ref_stream, ref_keys.data(), n);
            for (const DedupCache::TenantKey &k : keys) {
                FrameHeader h, ref_h;
                std::vector<uint8_t> p, ref_p;
                bool hit = false, ref_hit = false;
                if (rng.NextBounded(5) != 0) {
                    hit = view.Lookup(k.tenant, k.key, &h, &p);
                    ref_hit = ref_view.Lookup(k.tenant, k.key, &ref_h,
                                              &ref_p);
                    ASSERT_TRUE(
                        SameAnswer(hit, h, p, ref_hit, ref_h, ref_p));
                }
                if (hit) {
                    stream.Append(h, p.data());
                    ref_stream.Append(ref_h, ref_p.data());
                    continue;
                }
                const std::vector<uint8_t> a = answer(k);
                const FrameHeader ah = header_for(k, a.size());
                const size_t at = stream.bytes() + FrameHeader::kWireBytes;
                const size_t ref_at =
                    ref_stream.bytes() + FrameHeader::kWireBytes;
                stream.Append(ah, a.data());
                ref_stream.Append(ah, a.data());
                view.Commit(k.tenant, k.key, ah, at, a.size());
                ref_view.Commit(k.tenant, k.key, ah, ref_at, a.size());
            }
            view.Publish();
            ref_view.Publish();
        } else if (op < 94) {
            // Restart: the snapshot restored into a new cache of
            // smaller, equal or larger capacity.
            const std::vector<uint8_t> image = cache->Serialize();
            ASSERT_EQ(image, ref->Serialize());
            const size_t choice = rng.NextBounded(3);
            config.capacity = choice == 0   ? std::max<size_t>(
                                                  1, capacity / 2)
                              : choice == 1 ? capacity
                                            : 2 * capacity;
            cache = std::make_unique<DedupCache>(config);
            ref = std::make_unique<ReferenceDedupCache>(config);
            ASSERT_TRUE(cache->Deserialize(image.data(), image.size()));
            ASSERT_TRUE(ref->Deserialize(image.data(), image.size()));
        } else if (op < 97) {
            saved_image = ref->Serialize();
        } else {
            // An older snapshot restored over the live caches.
            ASSERT_TRUE(
                cache->Deserialize(saved_image.data(), saved_image.size()));
            ASSERT_TRUE(
                ref->Deserialize(saved_image.data(), saved_image.size()));
        }
        ASSERT_TRUE(SameState(*cache, *ref));
    }
}

TEST(DedupCacheTest, MatchesTheMapAndDequeReferenceOnRandomTraces)
{
    Rng rng(0xDED0C);
    for (size_t capacity = 1; capacity <= 64; ++capacity) {
        const uint64_t horizon = rng.NextBounded(2 * capacity + 1);
        const uint64_t seed = rng.Next();
        SCOPED_TRACE("capacity " + std::to_string(capacity) +
                     " horizon " + std::to_string(horizon) + " seed " +
                     std::to_string(seed));
        ReplayAgainstReference(seed, capacity, horizon, 150);
        if (HasFatalFailure())
            return;
    }
}

TEST(DedupCacheTest, RestoreOfAnImageWithRepeatedKeysMatchesTheReference)
{
    // Serialize() never repeats a key, but a well-formed image from
    // elsewhere can: the first occurrence wins, as on Insert.
    DedupCache source(8);
    for (uint64_t key = 1; key <= 5; ++key) {
        const std::vector<uint8_t> p = Payload("v" + std::to_string(key));
        source.Insert(key, ResponseHeader(1, key, p.size()), p.data(),
                      p.size());
    }
    const std::vector<uint8_t> image = source.Serialize();
    // Header: magic, version, 3 reserved, tick u64, count u32; then the
    // entries; then the CRC. Repeat every entry once, with new payloads
    // so that the winner shows.
    constexpr size_t kPrefix = 20;
    std::vector<uint8_t> twice(image.begin(), image.end() - 4);
    std::vector<uint8_t> body(image.begin() + kPrefix, image.end() - 4);
    std::replace(body.begin(), body.end(), uint8_t{'v'}, uint8_t{'w'});
    twice.insert(twice.end(), body.begin(), body.end());
    twice[16] = static_cast<uint8_t>(2 * image[16]);
    const uint32_t crc = Crc32c(twice.data(), twice.size());
    for (int i = 0; i < 4; ++i)
        twice.push_back(static_cast<uint8_t>(crc >> (8 * i)));

    for (const size_t capacity : {size_t{3}, size_t{8}, size_t{16}}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        DedupCache cache(capacity);
        ReferenceDedupCache ref(capacity);
        ASSERT_TRUE(cache.Deserialize(twice.data(), twice.size()));
        ASSERT_TRUE(ref.Deserialize(twice.data(), twice.size()));
        EXPECT_TRUE(SameState(cache, ref));
        FrameHeader header;
        std::vector<uint8_t> payload;
        ASSERT_TRUE(cache.Lookup(5, &header, &payload));
        EXPECT_EQ(payload, Payload("v5"));
    }
}

/// Runs @p rounds rounds of steady serving against @p cache: a view of
/// kBatch calls (half retries of recent keys, half new keys committed
/// with a payload of at most @p max_payload bytes), then a per-call
/// insert and lookup. Everything it uses is reused across rounds.
class SteadyServing
{
  public:
    static constexpr size_t kBatch = 16;

    SteadyServing(DedupCache *cache, size_t max_payload)
        : cache_(cache), max_payload_(max_payload),
          answer_(max_payload, 0x5A)
    {
        keys_.reserve(kBatch);
        payload_.reserve(max_payload);
    }

    /// @p full: every payload is max_payload bytes (the warm-up).
    void
    Run(size_t rounds, bool full)
    {
        for (size_t r = 0; r < rounds; ++r) {
            keys_.clear();
            for (size_t i = 0; i < kBatch / 2; ++i) {
                keys_.push_back({0, next_key_ + i});
                keys_.push_back({0, next_key_ > 20 ? next_key_ - 20 + i
                                                   : next_key_ + i});
            }
            stream_.clear();
            view_.Open(cache_, &stream_, keys_.data(), keys_.size());
            for (const DedupCache::TenantKey &k : keys_) {
                if (view_.Lookup(k.tenant, k.key, &header_, &payload_)) {
                    ++hits_;
                    stream_.Append(header_, payload_.data());
                    continue;
                }
                const FrameHeader h = ResponseHeader(1, k.key, Bytes(full));
                const size_t at = stream_.bytes() + FrameHeader::kWireBytes;
                stream_.Append(h, answer_.data());
                view_.Commit(k.tenant, k.key, h, at, h.payload_bytes);
            }
            view_.Publish();
            next_key_ += kBatch / 2;
            const uint64_t key = ++next_key_;
            const FrameHeader h = ResponseHeader(2, key, Bytes(full));
            cache_->Insert(key, h, answer_.data(), h.payload_bytes);
            hits_ += cache_->Lookup(key - 3, &header_, &payload_) ? 1 : 0;
        }
    }

    uint64_t hits() const { return hits_; }

  private:
    size_t
    Bytes(bool full)
    {
        return full ? max_payload_ : 1 + (++sizes_ * 37) % max_payload_;
    }

    DedupCache *cache_;
    size_t max_payload_;
    std::vector<uint8_t> answer_;
    std::vector<DedupCache::TenantKey> keys_;
    FrameBuffer stream_;
    DedupCache::View view_;
    FrameHeader header_;
    std::vector<uint8_t> payload_;
    uint64_t next_key_ = 1;
    uint64_t sizes_ = 0;
    uint64_t hits_ = 0;
};

TEST(DedupCacheTest, SteadyStateInsertsAndViewPublishesAllocateNothing)
{
    constexpr size_t kCapacity = 256;
    constexpr size_t kMaxPayload = 200;
    // Pure FIFO (every insertion evicts) and a horizon shorter than the
    // capacity (every insertion expires an entry).
    for (const uint64_t horizon : {uint64_t{0}, uint64_t{100}}) {
        SCOPED_TRACE("horizon " + std::to_string(horizon));
        DedupCache cache(DedupConfig{kCapacity, horizon});
        SteadyServing serving(&cache, kMaxPayload);
        // Warm-up: every slot the ring grows to takes a full-size
        // payload, and the view's buffers reach their batch size.
        serving.Run(4 * kCapacity / SteadyServing::kBatch * 2, true);
        const DedupCache::Stats warm = cache.stats();
        const uint64_t warm_hits = serving.hits();

        const uint64_t before =
            g_heap_allocations.load(std::memory_order_relaxed);
        serving.Run(1200, false);
        const uint64_t allocations =
            g_heap_allocations.load(std::memory_order_relaxed) - before;

        EXPECT_EQ(allocations, 0u);
        const DedupCache::Stats stats = cache.stats();
        EXPECT_GE(stats.insertions - warm.insertions, 10000u);
        EXPECT_GT(serving.hits(), warm_hits);
        EXPECT_GE(stats.evictions - warm.evictions, 10000u);
        EXPECT_EQ(stats.expired > warm.expired, horizon > 0);
    }
}

TEST(DedupCacheTest, SlotsReleaseOutsizedPayloadBuffers)
{
    constexpr size_t kCapacity = 8;
    constexpr size_t kLarge = 16 * DedupCache::kSlotKeepBytes;
    DedupCache cache(kCapacity);
    const std::vector<uint8_t> large(kLarge, 0xAB);
    const std::vector<uint8_t> small(16, 0xCD);
    for (uint64_t key = 1; key <= kCapacity; ++key)
        cache.Insert(key, ResponseHeader(1, key, large.size()),
                     large.data(), large.size());
    const int64_t held = g_heap_live_bytes.load(std::memory_order_relaxed);
    for (uint64_t key = kCapacity + 1; key <= 2 * kCapacity; ++key)
        cache.Insert(key, ResponseHeader(2, key, small.size()),
                     small.data(), small.size());
    const int64_t released =
        held - g_heap_live_bytes.load(std::memory_order_relaxed);

    // Every slot now holds a small payload, and none kept its large
    // buffer.
    EXPECT_GE(released, static_cast<int64_t>(
                            kCapacity * (kLarge - DedupCache::kSlotKeepBytes)));
    EXPECT_EQ(cache.stats().entries, kCapacity);
    FrameHeader header;
    std::vector<uint8_t> payload;
    ASSERT_TRUE(cache.Lookup(2 * kCapacity, &header, &payload));
    EXPECT_EQ(payload, small);
}

}  // namespace
}  // namespace protoacc::rpc
