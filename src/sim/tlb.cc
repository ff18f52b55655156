#include "sim/tlb.h"

#include <algorithm>

#include "common/bits.h"
#include "common/check.h"

namespace protoacc::sim {

Tlb::Tlb(const TlbConfig &config) : config_(config)
{
    PA_CHECK_GE(config.entries, 1u);
    PA_CHECK(IsPow2(config.page_bytes));
    page_shift_ = Log2Floor(config.page_bytes);
    pages_.resize(config.entries);
}

uint32_t
Tlb::Access(uint64_t addr)
{
    const uint64_t page = addr >> page_shift_;
    uint64_t *pages = pages_.data();
    for (uint32_t i = 0; i < used_; ++i) {
        if (pages[i] == page) {
            std::copy_backward(pages, pages + i, pages + i + 1);
            pages[0] = page;
            ++stats_.hits;
            return 0;
        }
    }
    ++stats_.misses;
    // Take a free entry, or evict the least recently used one.
    if (used_ < config_.entries)
        ++used_;
    std::copy_backward(pages, pages + used_ - 1, pages + used_);
    pages[0] = page;
    return config_.walk_latency;
}

void
Tlb::Flush()
{
    used_ = 0;
}

}  // namespace protoacc::sim
