#include "sim/cache.h"

#include <algorithm>

#include "common/bits.h"
#include "common/check.h"

namespace protoacc::sim {

Cache::Cache(const CacheConfig &config) : config_(config)
{
    PA_CHECK(IsPow2(config.line_bytes));
    PA_CHECK_GE(config.ways, 1u);
    const uint64_t lines = config.size_bytes / config.line_bytes;
    PA_CHECK_GE(lines, config.ways);
    const uint64_t num_sets = lines / config.ways;
    PA_CHECK(IsPow2(num_sets));
    // The address bits below the tag hold a word's two flags.
    const uint64_t way_span = num_sets * config.line_bytes;
    PA_CHECK_GE(way_span, 4u);
    line_shift_ = Log2Floor(config.line_bytes);
    set_mask_ = num_sets - 1;
    tag_mask_ = ~(way_span - 1);
    words_.resize(num_sets * config.ways);
}

bool
Cache::Access(uint64_t addr, bool is_write)
{
    const uint64_t key = Key(addr);
    const uint64_t dirty = is_write ? kDirty : 0;
    uint64_t *set = &words_[SetBase(addr)];
    const uint32_t ways = config_.ways;
    uint32_t w = 0;
    for (; w < ways && set[w] != 0; ++w) {
        if ((set[w] & ~kDirty) == key) {
            const uint64_t word = set[w] | dirty;
            std::copy_backward(set, set + w, set + w + 1);
            set[0] = word;
            ++stats_.hits;
            return true;
        }
    }
    ++stats_.misses;
    // Fill the first empty way, or evict the least recently used line.
    if (w == ways) {
        --w;
        if (set[w] & kDirty)
            ++stats_.writebacks;
    }
    std::copy_backward(set, set + w, set + w + 1);
    set[0] = key | dirty;
    return false;
}

bool
Cache::Contains(uint64_t addr) const
{
    const uint64_t key = Key(addr);
    const uint64_t *set = &words_[SetBase(addr)];
    for (uint32_t w = 0; w < config_.ways && set[w] != 0; ++w) {
        if ((set[w] & ~kDirty) == key)
            return true;
    }
    return false;
}

void
Cache::Flush()
{
    std::fill(words_.begin(), words_.end(), 0);
}

}  // namespace protoacc::sim
