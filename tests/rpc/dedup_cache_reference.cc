#include "dedup_cache_reference.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/crc32c.h"

namespace protoacc::rpc::reference {

namespace {

/// Snapshot image: magic, version, entry count, entries, CRC trailer.
/// Version 2 scopes every entry by tenant (a u16 between the key and
/// the tick) and stores the header's tenant_id field; v1 images are
/// rejected fail-closed — their keys are ambiguous across tenants, so
/// restoring them could replay responses across the isolation boundary.
/// Version 3 stores the header's schema fingerprint (wire v5): a
/// replayed response must carry the schema version it was produced
/// under, so a mixed-version client can tell a stale-schema replay
/// from a current one. Older images are rejected fail-closed.
constexpr uint8_t kMagic[4] = {'P', 'A', 'D', 'C'};
constexpr uint8_t kSnapshotVersion = 3;

void
Put32(std::vector<uint8_t> *out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
Put64(std::vector<uint8_t> *out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t
Get32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
Get64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/// Per-entry fixed part: key u64, tenant u16, tick u64, then the
/// FrameHeader fields (everything the response path copies back out),
/// then payload_bytes u32 + payload.
void
PutHeader(std::vector<uint8_t> *out, const FrameHeader &h)
{
    Put32(out, h.payload_bytes);
    Put32(out, h.call_id);
    out->push_back(static_cast<uint8_t>(h.method_id));
    out->push_back(static_cast<uint8_t>(h.method_id >> 8));
    out->push_back(static_cast<uint8_t>(h.kind));
    out->push_back(static_cast<uint8_t>(h.status));
    out->push_back(h.version);
    out->push_back(h.flags);
    out->push_back(static_cast<uint8_t>(h.tenant_id));
    out->push_back(static_cast<uint8_t>(h.tenant_id >> 8));
    Put64(out, h.idempotency_key);
    Put64(out, h.schema_fp);
}

constexpr size_t kHeaderBytes = 4 + 4 + 2 + 1 + 1 + 1 + 1 + 2 + 8 + 8;

FrameHeader
GetHeader(const uint8_t *p)
{
    FrameHeader h;
    h.payload_bytes = Get32(p);
    h.call_id = Get32(p + 4);
    h.method_id =
        static_cast<uint16_t>(p[8] | (static_cast<uint16_t>(p[9]) << 8));
    h.kind = static_cast<FrameKind>(p[10]);
    h.status = static_cast<StatusCode>(p[11]);
    h.version = p[12];
    h.flags = p[13];
    h.tenant_id =
        static_cast<uint16_t>(p[14] |
                              (static_cast<uint16_t>(p[15]) << 8));
    h.idempotency_key = Get64(p + 16);
    h.schema_fp = Get64(p + 24);
    return h;
}

}  // namespace

bool
ReferenceDedupCache::Lookup(uint16_t tenant, uint64_t key, FrameHeader *header,
                   std::vector<uint8_t> *payload)
{
    if (key == 0 || config_.capacity == 0)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(TenantKey{tenant, key});
    if (it == entries_.end()) {
        ++misses_;
        return false;
    }
    ++hits_;
    *header = it->second.header;
    *payload = it->second.payload;
    return true;
}

void
ReferenceDedupCache::Insert(uint16_t tenant, uint64_t key,
                   const FrameHeader &header, const uint8_t *payload,
                   size_t payload_bytes)
{
    if (key == 0 || config_.capacity == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    InsertLocked(TenantKey{tenant, key}, header, payload, payload_bytes);
}

void
ReferenceDedupCache::InsertLocked(const TenantKey &key, const FrameHeader &header,
                         const uint8_t *payload, size_t payload_bytes)
{
    const auto [it, inserted] = entries_.try_emplace(key);
    if (!inserted)
        return;  // first committed answer wins; the clock does not move
    it->second.header = header;
    it->second.payload.assign(payload, payload + payload_bytes);
    it->second.tick = ++insert_tick_;
    fifo_.push_back(key);
    ++insertions_;
    EvictLocked();
}

void
ReferenceDedupCache::EvictLocked()
{
    // Proactive expiry: entries older than the retry horizon can never
    // be hit again, so drop them regardless of occupancy.
    if (config_.retry_horizon > 0) {
        while (!fifo_.empty()) {
            auto it = entries_.find(fifo_.front());
            if (it == entries_.end()) {
                fifo_.pop_front();  // already evicted
                continue;
            }
            if (insert_tick_ - it->second.tick <= config_.retry_horizon)
                break;  // fifo_ is tick-ordered: the rest are younger
            entries_.erase(it);
            fifo_.pop_front();
            ++evictions_;
            ++expired_;
        }
    }
    // Capacity bound: oldest-first. With the expired entries already
    // gone, any eviction here hits an entry still inside the retry
    // window (or of unknown age) — a correctness exposure, counted.
    while (entries_.size() > config_.capacity) {
        if (entries_.erase(fifo_.front()) > 0) {
            ++evictions_;
            ++unsafe_evictions_;
        }
        fifo_.pop_front();
    }
}

std::vector<uint8_t>
ReferenceDedupCache::Serialize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<uint8_t> out;
    out.reserve(64);
    for (const uint8_t m : kMagic)
        out.push_back(m);
    out.push_back(kSnapshotVersion);
    out.push_back(0);  // reserved
    out.push_back(0);
    out.push_back(0);
    Put64(&out, insert_tick_);
    // Live entries in insertion order so the restored cache evicts in
    // the same order the original would have.
    uint32_t count = 0;
    for (const TenantKey &key : fifo_)
        if (entries_.count(key) > 0)
            ++count;
    Put32(&out, count);
    for (const TenantKey &key : fifo_) {
        auto it = entries_.find(key);
        if (it == entries_.end())
            continue;
        const Entry &e = it->second;
        Put64(&out, key.key);
        out.push_back(static_cast<uint8_t>(key.tenant));
        out.push_back(static_cast<uint8_t>(key.tenant >> 8));
        Put64(&out, e.tick);
        PutHeader(&out, e.header);
        Put32(&out, static_cast<uint32_t>(e.payload.size()));
        out.insert(out.end(), e.payload.begin(), e.payload.end());
    }
    Put32(&out, Crc32c(out.data(), out.size()));
    return out;
}

bool
ReferenceDedupCache::Deserialize(const uint8_t *data, size_t size,
                        std::string *reject_detail)
{
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
    fifo_.clear();
    // 4 magic + 1 version + 3 reserved + 8 tick + 4 count + 4 crc.
    constexpr size_t kMinBytes = 4 + 1 + 3 + 8 + 4 + 4;
    if (data == nullptr || size < kMinBytes) {
        if (reject_detail != nullptr)
            *reject_detail = "dedup snapshot truncated: " +
                             std::to_string(size) + " bytes, need at least " +
                             std::to_string(kMinBytes);
        return false;
    }
    if (std::memcmp(data, kMagic, 4) != 0) {
        if (reject_detail != nullptr)
            *reject_detail = "dedup snapshot magic mismatch";
        return false;
    }
    if (data[4] != kSnapshotVersion) {
        // Name both versions: a fleet rolling back after a format bump
        // hits this, and "snapshot rejected" without the versions makes
        // that indistinguishable from corruption.
        if (reject_detail != nullptr)
            *reject_detail = "dedup snapshot version " +
                             std::to_string(data[4]) +
                             " rejected, this build expects version " +
                             std::to_string(kSnapshotVersion);
        return false;
    }
    if (Crc32c(data, size - 4) != Get32(data + size - 4)) {
        if (reject_detail != nullptr)
            *reject_detail = "dedup snapshot CRC mismatch";
        return false;
    }
    const uint64_t tick = Get64(data + 8);
    const uint32_t count = Get32(data + 16);
    size_t off = 20;
    const size_t body_end = size - 4;
    for (uint32_t i = 0; i < count; ++i) {
        // key u64 + tenant u16 + tick u64 + header + payload len u32.
        if (off + 8 + 2 + 8 + kHeaderBytes + 4 > body_end) {
            entries_.clear();
            fifo_.clear();
            if (reject_detail != nullptr)
                *reject_detail = "dedup snapshot entry " +
                                 std::to_string(i) + " truncated";
            return false;
        }
        const uint64_t key = Get64(data + off);
        const uint16_t tenant = static_cast<uint16_t>(
            data[off + 8] |
            (static_cast<uint16_t>(data[off + 9]) << 8));
        const uint64_t entry_tick = Get64(data + off + 10);
        const FrameHeader header = GetHeader(data + off + 18);
        const uint32_t payload_bytes =
            Get32(data + off + 18 + kHeaderBytes);
        off += 18 + kHeaderBytes + 4;
        if (off + payload_bytes > body_end || entry_tick > tick) {
            entries_.clear();
            fifo_.clear();
            if (reject_detail != nullptr)
                *reject_detail = "dedup snapshot entry " +
                                 std::to_string(i) + " inconsistent";
            return false;
        }
        Entry entry;
        entry.header = header;
        entry.payload.assign(data + off, data + off + payload_bytes);
        entry.tick = entry_tick;
        off += payload_bytes;
        if (key == 0 || config_.capacity == 0)
            continue;
        if (entries_.emplace(TenantKey{tenant, key}, std::move(entry))
                .second)
            fifo_.push_back(TenantKey{tenant, key});
    }
    if (off != body_end) {
        entries_.clear();
        fifo_.clear();
        if (reject_detail != nullptr)
            *reject_detail = "dedup snapshot trailing bytes";
        return false;
    }
    insert_tick_ = tick > insert_tick_ ? tick : insert_tick_;
    EvictLocked();  // snapshot may exceed this instance's bounds
    restored_ = true;
    return true;
}

ReferenceDedupCache::Stats
ReferenceDedupCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.insertions = insertions_;
    s.evictions = evictions_;
    s.unsafe_evictions = unsafe_evictions_;
    s.expired = expired_;
    s.entries = entries_.size();
    s.capacity = config_.capacity;
    s.restored = restored_;
    return s;
}

void
ReferenceDedupCache::View::Open(ReferenceDedupCache *cache, const FrameBuffer *stream,
                       const TenantKey *keys, size_t num_keys)
{
    PA_CHECK(!open_);
    open_ = true;
    cache_ = cache;
    stream_ = stream;
    for (size_t i = 0; i < num_keys; ++i) {
        if (!Enabled(keys[i].key))
            continue;
        const bool seen =
            std::any_of(probes_.begin(), probes_.end(),
                        [&](const Probe &p) { return p.key == keys[i]; });
        if (!seen)
            probes_.emplace_back().key = keys[i];
    }
    if (probes_.empty())
        return;
    std::lock_guard<std::mutex> lock(cache_->mu_);
    probe_tick_ = cache_->insert_tick_;
    const std::deque<TenantKey> &fifo = cache_->fifo_;
    for (Probe &p : probes_) {
        const auto it = cache_->entries_.find(p.key);
        if (it == cache_->entries_.end())
            continue;
        p.found = true;
        p.header = it->second.header;
        p.payload = it->second.payload;
        p.tick = it->second.tick;
        // fifo_ holds exactly the live keys, in tick order: binary-
        // search the entry's position to count the entries after it.
        size_t lo = 0;
        size_t hi = fifo.size();
        while (lo < hi) {
            const size_t mid = lo + (hi - lo) / 2;
            if (cache_->entries_.find(fifo[mid])->second.tick < p.tick)
                lo = mid + 1;
            else
                hi = mid;
        }
        p.newer = fifo.size() - lo - 1;
    }
}

bool
ReferenceDedupCache::View::Enabled(uint64_t key) const
{
    return key != 0 && cache_ != nullptr && cache_->config_.capacity > 0;
}

bool
ReferenceDedupCache::View::Holds(uint64_t age, uint64_t newer) const
{
    // The cache's eviction rules (EvictLocked) both drop from the old
    // end: an entry survives while it is inside the retry horizon and
    // among the newest `capacity` entries.
    const DedupConfig &config = cache_->config_;
    return (config.retry_horizon == 0 || age <= config.retry_horizon) &&
           newer < config.capacity;
}

bool
ReferenceDedupCache::View::Find(const TenantKey &key, const FrameHeader **header,
                       const uint8_t **payload,
                       size_t *payload_bytes) const
{
    const auto probe =
        std::find_if(probes_.begin(), probes_.end(),
                     [&](const Probe &p) { return p.key == key; });
    PA_CHECK(probe != probes_.end());
    // The newest staged commit of the key decides: anything older was
    // inserted, and so is dropped, before it.
    for (auto s = staged_.rbegin(); s != staged_.rend(); ++s) {
        if (!(s->key == key))
            continue;
        const uint64_t age = staged_insertions_ - s->seq;
        if (!Holds(age, age))
            return false;
        *header = &s->header;
        *payload = stream_->data() + s->offset;
        *payload_bytes = s->bytes;
        return true;
    }
    if (!probe->found ||
        !Holds(probe_tick_ + staged_insertions_ - probe->tick,
               probe->newer + staged_insertions_))
        return false;
    *header = &probe->header;
    *payload = probe->payload.data();
    *payload_bytes = probe->payload.size();
    return true;
}

bool
ReferenceDedupCache::View::Lookup(uint16_t tenant, uint64_t key,
                         FrameHeader *header,
                         std::vector<uint8_t> *payload)
{
    if (!Enabled(key))
        return false;
    const FrameHeader *found_header = nullptr;
    const uint8_t *found_payload = nullptr;
    size_t found_bytes = 0;
    if (!Find(TenantKey{tenant, key}, &found_header, &found_payload,
              &found_bytes)) {
        ++misses_;
        return false;
    }
    ++hits_;
    *header = *found_header;
    payload->assign(found_payload, found_payload + found_bytes);
    return true;
}

void
ReferenceDedupCache::View::Commit(uint16_t tenant, uint64_t key,
                         const FrameHeader &header, size_t payload_offset,
                         size_t payload_bytes)
{
    if (!Enabled(key))
        return;
    const TenantKey tk{tenant, key};
    const FrameHeader *found_header = nullptr;
    const uint8_t *found_payload = nullptr;
    size_t found_bytes = 0;
    if (Find(tk, &found_header, &found_payload, &found_bytes))
        return;  // first committed answer wins
    PA_CHECK_LE(payload_offset + payload_bytes, stream_->bytes());
    staged_.push_back(Staged{tk, header, payload_offset, payload_bytes,
                             ++staged_insertions_});
}

void
ReferenceDedupCache::View::Publish()
{
    PA_CHECK(open_);
    if (hits_ + misses_ > 0 || !staged_.empty()) {
        std::lock_guard<std::mutex> lock(cache_->mu_);
        cache_->hits_ += hits_;
        cache_->misses_ += misses_;
        for (const Staged &s : staged_)
            cache_->InsertLocked(s.key, s.header,
                                 stream_->data() + s.offset, s.bytes);
    }
    open_ = false;
    cache_ = nullptr;
    stream_ = nullptr;
    staged_insertions_ = 0;
    hits_ = 0;
    misses_ = 0;
    probes_.clear();
    staged_.clear();
}

}  // namespace protoacc::rpc::reference
