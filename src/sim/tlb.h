/**
 * @file
 * TLB model for the accelerator's memory-interface wrappers.
 *
 * §4.1: "These maintain TLBs and interact with the page-table walker
 * (PTW) to perform translation and thus allow the accelerator to use
 * virtual addresses." We model a small fully-associative LRU TLB; a miss
 * charges a fixed page-walk latency (the PTW itself hits in the cache
 * hierarchy, folded into the constant).
 */
#ifndef PROTOACC_SIM_TLB_H
#define PROTOACC_SIM_TLB_H

#include <cstdint>
#include <vector>

namespace protoacc::sim {

/// TLB configuration. page_bytes must be a power of two.
struct TlbConfig
{
    uint32_t entries = 32;
    uint32_t page_bytes = 4096;
    /// Page-walk latency charged on a miss, in cycles.
    uint32_t walk_latency = 60;
};

struct TlbStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
};

/**
 * Fully-associative LRU TLB. Access() returns the translation latency
 * contribution (0 on hit, walk_latency on miss).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    /// Translate the page of @p addr; returns added latency in cycles.
    uint32_t Access(uint64_t addr);

    void Flush();

    const TlbConfig &config() const { return config_; }
    const TlbStats &stats() const { return stats_; }
    void ResetStats() { stats_ = TlbStats{}; }

  private:
    TlbConfig config_;
    int page_shift_ = 0;
    /// Page numbers of the resident translations, most recently used
    /// first; only the first used_ are valid.
    std::vector<uint64_t> pages_;
    uint32_t used_ = 0;
    TlbStats stats_;
};

}  // namespace protoacc::sim

#endif  // PROTOACC_SIM_TLB_H
