/**
 * @file
 * Set-associative cache timing model.
 *
 * Used to model the shared L2 and LLC that all accelerator memory
 * accesses traverse (Figure 8: "all memory accesses made by the
 * accelerator go through the L2 and LLC, which are shared with the
 * application core"). The model tracks tags only (data correctness is
 * handled by operating on real host memory); Access() returns hit/miss
 * and maintains LRU state and statistics.
 */
#ifndef PROTOACC_SIM_CACHE_H
#define PROTOACC_SIM_CACHE_H

#include <cstdint>
#include <string>
#include <vector>

namespace protoacc::sim {

/// Configuration of one cache level. line_bytes and the set count
/// (size_bytes / line_bytes / ways) must be powers of two, and one
/// way's span (size_bytes / ways) at least 4 bytes.
struct CacheConfig
{
    std::string name = "cache";
    uint64_t size_bytes = 512 * 1024;
    uint32_t ways = 8;
    uint32_t line_bytes = 64;
    /// Latency of a hit in this level, in accelerator cycles.
    uint32_t hit_latency = 20;
};

/// Hit/miss counters for one cache level.
struct CacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

    double
    hit_rate() const
    {
        const uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/**
 * Tag-array model of one set-associative, write-back, true-LRU cache
 * level. A miss fills an empty way before it evicts anything.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up the line containing @p addr, allocating it on miss.
     *
     * @param is_write marks the line dirty on hit/fill.
     * @return true on hit.
     */
    bool Access(uint64_t addr, bool is_write);

    /// Probe without modifying state (recency included).
    bool Contains(uint64_t addr) const;

    /// Invalidate all lines (e.g. between benchmark phases).
    void Flush();

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void ResetStats() { stats_ = CacheStats{}; }

  private:
    /// A tag word is the line's address with its set-index and offset
    /// bits cleared; these two flags live in the cleared bits. An empty
    /// way holds 0.
    static constexpr uint64_t kValid = 1;
    static constexpr uint64_t kDirty = 2;

    /// The clean tag word of a line holding @p addr.
    uint64_t Key(uint64_t addr) const { return (addr & tag_mask_) | kValid; }
    size_t
    SetBase(uint64_t addr) const
    {
        return static_cast<size_t>((addr >> line_shift_) & set_mask_) *
               config_.ways;
    }

    CacheConfig config_;
    int line_shift_ = 0;
    uint64_t set_mask_ = 0;
    uint64_t tag_mask_ = 0;
    /// ways tag words per set, set-major. Each set is ordered most
    /// recently used first, with its empty ways (if any) last.
    std::vector<uint64_t> words_;
    CacheStats stats_;
};

}  // namespace protoacc::sim

#endif  // PROTOACC_SIM_CACHE_H
