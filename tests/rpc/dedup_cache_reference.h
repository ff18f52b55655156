/**
 * @file
 * The exactly-once dedup cache as it was before its storage became a
 * ring: an unordered_map of entries plus a deque of keys in insertion
 * order, with the same View. Tests replay traces through it and through
 * rpc::DedupCache and require the same answers, Stats and snapshot
 * bytes. The code is kept as it was; only the name changed and the
 * doc comments (rpc/dedup_cache.h documents the shared semantics) are
 * dropped. Do not update it to follow the real cache.
 */
#ifndef PROTOACC_TESTS_RPC_DEDUP_CACHE_REFERENCE_H
#define PROTOACC_TESTS_RPC_DEDUP_CACHE_REFERENCE_H

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rpc/dedup_cache.h"
#include "rpc/frame.h"

namespace protoacc::rpc::reference {

class ReferenceDedupCache
{
  public:
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        uint64_t unsafe_evictions = 0;
        uint64_t expired = 0;
        size_t entries = 0;
        size_t capacity = 0;
        bool restored = false;
    };

    struct TenantKey
    {
        uint16_t tenant = 0;
        uint64_t key = 0;
        bool
        operator==(const TenantKey &o) const
        {
            return tenant == o.tenant && key == o.key;
        }
    };

    class View;

    explicit ReferenceDedupCache(size_t capacity)
        : config_{capacity, 0}
    {}
    explicit ReferenceDedupCache(const DedupConfig &config)
        : config_(config)
    {}

    bool Lookup(uint16_t tenant, uint64_t key, FrameHeader *header,
                std::vector<uint8_t> *payload);

    bool
    Lookup(uint64_t key, FrameHeader *header,
           std::vector<uint8_t> *payload)
    {
        return Lookup(0, key, header, payload);
    }

    void Insert(uint16_t tenant, uint64_t key, const FrameHeader &header,
                const uint8_t *payload, size_t payload_bytes);

    void
    Insert(uint64_t key, const FrameHeader &header,
           const uint8_t *payload, size_t payload_bytes)
    {
        Insert(0, key, header, payload, payload_bytes);
    }

    std::vector<uint8_t> Serialize() const;

    bool Deserialize(const uint8_t *data, size_t size,
                     std::string *reject_detail = nullptr);

    Stats stats() const;
    const DedupConfig &config() const { return config_; }

  private:
    struct Entry
    {
        FrameHeader header;
        std::vector<uint8_t> payload;
        uint64_t tick = 0;
    };

    struct TenantKeyHash
    {
        size_t
        operator()(const TenantKey &k) const
        {
            // splitmix64 over the concatenated bits: cheap, good
            // avalanche, and exactness lives in operator== anyway.
            uint64_t x = k.key ^ (static_cast<uint64_t>(k.tenant) << 48);
            x += 0x9e3779b97f4a7c15ull;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
            return static_cast<size_t>(x ^ (x >> 31));
        }
    };

    void InsertLocked(const TenantKey &key, const FrameHeader &header,
                      const uint8_t *payload, size_t payload_bytes);

    void EvictLocked();

    DedupConfig config_;
    mutable std::mutex mu_;
    std::unordered_map<TenantKey, Entry, TenantKeyHash> entries_;
    std::deque<TenantKey> fifo_;  ///< insertion order, for eviction
    uint64_t insert_tick_ = 0;   ///< monotone logical clock
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t insertions_ = 0;
    uint64_t evictions_ = 0;
    uint64_t unsafe_evictions_ = 0;
    uint64_t expired_ = 0;
    bool restored_ = false;
};

class ReferenceDedupCache::View
{
  public:
    void Open(ReferenceDedupCache *cache, const FrameBuffer *stream,
              const TenantKey *keys, size_t num_keys);

    bool is_open() const { return open_; }
    const FrameBuffer *stream() const { return stream_; }

    bool Lookup(uint16_t tenant, uint64_t key, FrameHeader *header,
                std::vector<uint8_t> *payload);

    void Commit(uint16_t tenant, uint64_t key, const FrameHeader &header,
                size_t payload_offset, size_t payload_bytes);

    void Publish();

  private:
    struct Probe
    {
        TenantKey key;
        bool found = false;
        FrameHeader header;
        std::vector<uint8_t> payload;
        uint64_t tick = 0;
        uint64_t newer = 0;
    };
    struct Staged
    {
        TenantKey key;
        FrameHeader header;
        size_t offset = 0;
        size_t bytes = 0;
        uint64_t seq = 0;
    };

    bool Enabled(uint64_t key) const;
    bool Holds(uint64_t age, uint64_t newer) const;
    bool Find(const TenantKey &key, const FrameHeader **header,
              const uint8_t **payload, size_t *payload_bytes) const;

    ReferenceDedupCache *cache_ = nullptr;
    const FrameBuffer *stream_ = nullptr;
    bool open_ = false;
    uint64_t probe_tick_ = 0;
    uint64_t staged_insertions_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    std::vector<Probe> probes_;
    std::vector<Staged> staged_;
};

}  // namespace protoacc::rpc::reference

#endif  // PROTOACC_TESTS_RPC_DEDUP_CACHE_REFERENCE_H
