/**
 * @file
 * Bounded server-side dedup/response cache: the exactly-once half of
 * the retry story.
 *
 * PR 3's client retries transient failures, but a retry whose original
 * request *did* execute (the reply was lost, not the request)
 * re-executes the handler — observable double execution for any
 * non-idempotent method. The fix is the classic one: the client stamps
 * every logical call with an idempotency key that is stable across its
 * retries, and the server remembers the committed response for recent
 * keys. A retried key is answered from the cache without touching the
 * handler.
 *
 * The cache is bounded (eviction) because an unbounded map keyed by
 * every call ever served is a memory leak with a goatee. The bound is
 * a correctness window, not just a size knob: a retry arriving after
 * its entry was evicted will re-execute. Two refinements over plain
 * FIFO close the gap between the size bound and the correctness
 * window:
 *
 *   - **Retry-horizon-aware eviction.** The client's retry policy
 *     bounds how long after commit a retry can still arrive; an entry
 *     older than that horizon can never be hit again and is dead
 *     weight. Age is measured in *insertions* (a monotone logical
 *     clock every config already controls), so with retry_horizon = H,
 *     entries more than H insertions old are expired first — and
 *     proactively, so a burst of fresh traffic does not have to
 *     displace them one capacity miss at a time. Only when no expired
 *     entry exists does eviction fall back to oldest-first, and such
 *     an eviction is *unsafe* (the entry was still inside the retry
 *     window) and counted separately so operators can see when
 *     capacity — not the horizon — is the binding constraint.
 *
 *   - **Snapshot/restore.** A serving process that restarts loses the
 *     cache, and every in-flight retry of an already-committed call
 *     re-executes — exactly the double execution the cache exists to
 *     prevent. Serialize() emits a self-verifying image (magic,
 *     version, CRC32C trailer) of the live entries; Deserialize()
 *     rebuilds the cache from one, rejecting corrupt or foreign bytes
 *     fail-closed (an empty cache re-executes some calls; a poisoned
 *     one serves wrong answers).
 *
 * Serving workers reach the cache through a DedupCache::View, which
 * takes the shared lock twice per batch of calls (one probe, one
 * publish) instead of twice per call.
 *
 * Storage is what the policy already is, a FIFO of at most `capacity`
 * entries: a ring of slots in insertion order and an open-addressed
 * (tenant, key) -> slot index. Expiry and eviction advance the ring's
 * head; an insertion reuses the slot after the newest entry and its
 * payload buffer, so once the ring has grown (geometrically, as
 * entries arrive) nothing under the lock allocates or frees.
 */
#ifndef PROTOACC_RPC_DEDUP_CACHE_H
#define PROTOACC_RPC_DEDUP_CACHE_H

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "rpc/frame.h"

namespace protoacc::rpc {

/// Sizing and eviction policy of a DedupCache.
struct DedupConfig
{
    /// Maximum live entries; 0 disables the cache entirely.
    size_t capacity = 0;
    /// Retry horizon in insertions: an entry more than this many
    /// insertions old is outside every client's retry window and is
    /// expired first (and proactively). 0 = unknown horizon — pure
    /// oldest-first FIFO, the pre-snapshot behavior.
    uint64_t retry_horizon = 0;
};

/**
 * Thread-safe bounded cache: (tenant, idempotency key) -> committed
 * response frame (header + payload bytes). Shared by all workers of a
 * runtime so a retry that hashes to a different worker still hits;
 * scoped by tenant so colliding keys from different tenants can never
 * replay each other's responses.
 */
class DedupCache
{
  public:
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        /// Evictions of entries still inside the retry horizon (or any
        /// eviction when the horizon is unknown): each one is a
        /// potential double execution if its call retries late.
        uint64_t unsafe_evictions = 0;
        /// Entries dropped because they aged past the retry horizon
        /// (provably dead — no correctness exposure).
        uint64_t expired = 0;
        size_t entries = 0;
        size_t capacity = 0;
        /// True when the cache was rebuilt from a snapshot.
        bool restored = false;
    };

    /// Exact composite key: the 64-bit idempotency key is only unique
    /// *within* a tenant, so the map key carries both halves verbatim
    /// (no mixing — a hash blend could collide across tenants, which is
    /// the very bug tenant scoping fixes).
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

    /// A slot keeps a payload buffer of up to this many bytes when a
    /// smaller payload replaces its own, and releases a larger one.
    static constexpr size_t kSlotKeepBytes = 4096;

    explicit DedupCache(size_t capacity) : config_{capacity, 0} {}
    explicit DedupCache(const DedupConfig &config) : config_(config) {}

    /**
     * Look up @p key within @p tenant's scope. On a hit, copies the
     * cached response header and payload out and returns true. Key 0
     * (no idempotency key) never hits and is not counted as a miss.
     *
     * Keys are scoped per tenant: the idempotency key is
     * session_id<<32|call_id, and session/call counters are assigned
     * client-side, so two *different tenants* can legitimately present
     * the same 64-bit key. Before tenant scoping that collision
     * replayed one tenant's cached response to the other — a
     * cross-tenant data leak, fixed by making (tenant, key) the cache
     * key.
     */
    bool Lookup(uint16_t tenant, uint64_t key, FrameHeader *header,
                std::vector<uint8_t> *payload);

    /// Default-tenant lookup (single-tenant callers).
    bool
    Lookup(uint64_t key, FrameHeader *header,
           std::vector<uint8_t> *payload)
    {
        return Lookup(0, key, header, payload);
    }

    /**
     * Remember the committed response for @p key in @p tenant's scope.
     * Key 0 and keys already present are ignored (a racing duplicate
     * execution keeps the first committed answer) and do not advance
     * the insertion clock. Expires entries beyond the retry horizon,
     * then evicts oldest-first beyond capacity.
     */
    void Insert(uint16_t tenant, uint64_t key, const FrameHeader &header,
                const uint8_t *payload, size_t payload_bytes);

    /// Default-tenant insert (single-tenant callers).
    void
    Insert(uint64_t key, const FrameHeader &header,
           const uint8_t *payload, size_t payload_bytes)
    {
        Insert(0, key, header, payload, payload_bytes);
    }

    /**
     * Snapshot the live entries (insertion order, ages preserved) into
     * a self-verifying byte image for crash-restart durability.
     */
    std::vector<uint8_t> Serialize() const;

    /**
     * Rebuild the cache from a Serialize() image, replacing current
     * contents. Fail-closed: returns false and leaves the cache empty
     * when the image is truncated, corrupt (CRC mismatch), or a
     * foreign format. Entries beyond this cache's capacity or retry
     * horizon are dropped during the rebuild (the snapshot may come
     * from a differently sized instance).
     *
     * On rejection @p reject_detail (when non-null) receives a
     * human-readable cause; a version rejection names both the found
     * and the expected snapshot version, so an operator can tell a
     * rollback-after-format-bump from corruption.
     */
    bool Deserialize(const uint8_t *data, size_t size,
                     std::string *reject_detail = nullptr);

    Stats stats() const;
    const DedupConfig &config() const { return config_; }

  private:
    /// A ring slot; outside the live span, a spare awaiting reuse.
    struct Slot
    {
        TenantKey key;
        FrameHeader header;
        std::vector<uint8_t> payload;
        /// Value of insert_tick_ when this entry was committed.
        uint64_t tick = 0;
    };

    /// Index cell: the upper half of the key's hash, checked before the
    /// slot is read, and the slot's index + 1 (0: an empty cell).
    struct Cell
    {
        uint32_t hash = 0;
        uint32_t slot = 0;
    };

    static uint32_t Hash(const TenantKey &k);

    /// Slot holding @p key, or kNoSlot. (*Locked: the caller holds mu_.)
    size_t FindLocked(const TenantKey &key) const;
    /// Enter live slot @p slot in the index.
    void IndexLocked(size_t slot);
    /// Insert's body for a nonzero key.
    void InsertLocked(const TenantKey &key, const FrameHeader &header,
                      const uint8_t *payload, size_t payload_bytes);
    /// Append an entry after the newest one (the caller made room),
    /// growing the ring when every slot is live.
    void PushLocked(const TenantKey &key, const FrameHeader &header,
                    const uint8_t *payload, size_t payload_bytes,
                    uint64_t tick);
    /// Drop the oldest entry.
    void PopLocked();
    /// Lay the ring out oldest-first in more slots; rebuild the index.
    void GrowLocked();

    static constexpr size_t kNoSlot = ~size_t{0};

    DedupConfig config_;
    mutable std::mutex mu_;
    /// Live entries are slots head_, head_ + 1, ... (wrapping), live_
    /// of them, oldest first. A deque grows without freeing a large
    /// array, whose release would raise glibc's trim threshold.
    std::deque<Slot> slots_;
    size_t head_ = 0;
    size_t live_ = 0;
    /// Linear probing over a power of two of cells, at most half full;
    /// deletion shifts later cells back (no tombstones).
    std::vector<Cell> index_;
    uint64_t insert_tick_ = 0;   ///< monotone logical clock
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t insertions_ = 0;
    uint64_t evictions_ = 0;
    uint64_t unsafe_evictions_ = 0;
    uint64_t expired_ = 0;
    bool restored_ = false;
};

/**
 * Worker-local staging view of a shared DedupCache, for one batch of
 * calls at a time: Open() probes every key of the batch under one
 * lock, Lookup() and Commit() run lock-free against the view, and
 * Publish() applies the batch's commits and hit/miss counts to the
 * cache under one more lock.
 *
 * Lookup() answers from the commits staged earlier in the batch first,
 * then from the probe's hits. Commit() stages a response as an offset
 * and length into the stream its frame was written to, so the payload
 * is copied once, at Publish(), exactly as Insert() would copy it.
 *
 * A view alone on its cache is exact: any sequence of lookups and
 * commits leaves the same cache image and Stats whether it runs
 * through views of any batch size or through Lookup()/Insert() one
 * call at a time. The view applies the cache's own expiry and capacity
 * rules to the batch's staged commits, so an entry that per-call
 * inserts would have dropped before a lookup misses in the view too.
 * Views of different workers see each other's commits at batch
 * boundaries only: a published commit hits every later probe, while a
 * duplicate running concurrently on another worker may execute as
 * well (its commit is then ignored; the first published answer stays).
 */
class DedupCache::View
{
  public:
    /**
     * Open a batch over @p cache (nullptr: a view that never hits and
     * counts nothing) whose commits will be staged in @p stream, which
     * must not be cleared, truncated or destroyed before Publish().
     * Probes the nonzero keys of @p keys under one lock; every key
     * later passed to Lookup() or Commit() must be among them.
     */
    void Open(DedupCache *cache, const FrameBuffer *stream,
              const TenantKey *keys, size_t num_keys);

    bool is_open() const { return open_; }
    const FrameBuffer *stream() const { return stream_; }

    /// DedupCache::Lookup() against the view: copies the response out
    /// (the caller may then append it to the stream, which can move the
    /// stream's bytes).
    bool Lookup(uint16_t tenant, uint64_t key, FrameHeader *header,
                std::vector<uint8_t> *payload);

    /// DedupCache::Insert() against the view: stage the response whose
    /// @p payload_bytes of payload sit at @p payload_offset in the
    /// stream.
    void Commit(uint16_t tenant, uint64_t key, const FrameHeader &header,
                size_t payload_offset, size_t payload_bytes);

    /// Insert the staged commits in order and add the hit and miss
    /// counts, under one lock; closes the view.
    void Publish();

  private:
    /// One probed key, with the cache's entry when the probe found one.
    struct Probe
    {
        TenantKey key;
        bool found = false;
        FrameHeader header;
        /// The entry's payload, copied into probe_bytes_.
        size_t offset = 0;
        size_t bytes = 0;
        uint64_t tick = 0;
        /// Entries the cache held that were inserted after this one.
        uint64_t newer = 0;
    };
    struct Staged
    {
        TenantKey key;
        FrameHeader header;
        size_t offset = 0;
        size_t bytes = 0;
        /// Position among the batch's staged insertions (1-based).
        uint64_t seq = 0;
    };

    /// False for key 0 and for a view without a (nonzero-capacity)
    /// cache: such lookups miss uncounted and such commits are dropped.
    bool Enabled(uint64_t key) const;
    /// Would the cache, after this batch's staged insertions so far,
    /// still hold an entry @p age insertions old with @p newer entries
    /// inserted after it?
    bool Holds(uint64_t age, uint64_t newer) const;
    /// The cache's answer for @p key as of the batch's staged
    /// insertions so far; false when it holds none.
    bool Find(const TenantKey &key, const FrameHeader **header,
              const uint8_t **payload, size_t *payload_bytes) const;

    DedupCache *cache_ = nullptr;
    const FrameBuffer *stream_ = nullptr;
    bool open_ = false;
    /// The cache's insertion clock at the probe.
    uint64_t probe_tick_ = 0;
    /// Commits staged so far (each one a real insertion at Publish()
    /// when the view is alone on its cache).
    uint64_t staged_insertions_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    /// The probes_, staged_ and probe_bytes_ buffers keep their
    /// capacity from batch to batch.
    std::vector<Probe> probes_;
    std::vector<Staged> staged_;
    std::vector<uint8_t> probe_bytes_;
};

}  // namespace protoacc::rpc

#endif  // PROTOACC_RPC_DEDUP_CACHE_H
