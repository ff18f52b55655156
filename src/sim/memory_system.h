/**
 * @file
 * The accelerator-visible memory hierarchy: shared L2, LLC and DRAM
 * behind a 128-bit (16 B/cycle) TileLink-like system bus (Figure 8,
 * §4.1).
 *
 * ReadLatency/WriteLatency return the cycles for one access of up to a
 * full bus beat per line touched; multi-line accesses are charged the
 * first-line latency plus one pipelined beat per further line (the bus
 * supports multiple outstanding requests, §4.1, so streaming units see
 * bandwidth-bound behaviour after the first miss).
 */
#ifndef PROTOACC_SIM_MEMORY_SYSTEM_H
#define PROTOACC_SIM_MEMORY_SYSTEM_H

#include <cstdint>

#include "sim/cache.h"
#include "sim/tlb.h"

namespace protoacc::sim {

/// Full hierarchy configuration.
struct MemorySystemConfig
{
    CacheConfig l2 = {.name = "L2",
                      .size_bytes = 512 * 1024,
                      .ways = 8,
                      .line_bytes = 64,
                      .hit_latency = 12};
    CacheConfig llc = {.name = "LLC",
                       .size_bytes = 4 * 1024 * 1024,
                       .ways = 16,
                       .line_bytes = 64,
                       .hit_latency = 38};
    /// DRAM access latency (cycles at the modeled 2 GHz clock).
    uint32_t dram_latency = 140;
    /// System-bus width: 128-bit TileLink (§4.1).
    uint32_t bus_bytes_per_cycle = 16;
    TlbConfig tlb;
};

struct MemorySystemStats
{
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t read_bytes = 0;
    uint64_t write_bytes = 0;
};

/**
 * Timing model of the L2 + LLC + DRAM hierarchy with per-port TLBs
 * handled by the caller (see Port). Thread-compatible; not thread-safe.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemorySystemConfig &config);

    /// Latency in cycles to read @p size bytes at @p addr.
    uint64_t ReadLatency(uint64_t addr, uint64_t size);

    /// Latency in cycles to write @p size bytes at @p addr. Writes are
    /// posted through a store queue: the issuing unit pays the bus
    /// occupancy, not the fill latency.
    uint64_t WriteLatency(uint64_t addr, uint64_t size);

    /// Drop all cached state (tags only; host memory is untouched).
    void Flush();
    void ResetStats();

    const MemorySystemConfig &config() const { return config_; }
    const MemorySystemStats &stats() const { return stats_; }
    const Cache &l2() const { return l2_; }
    const Cache &llc() const { return llc_; }

  private:
    /// Latency of bringing the single line containing @p addr close.
    uint64_t LineLatency(uint64_t addr, bool is_write);

    MemorySystemConfig config_;
    Cache l2_;
    Cache llc_;
    /// log2 of the L2 line size, the stride multi-line accesses walk.
    int line_shift_;
    MemorySystemStats stats_;
};

}  // namespace protoacc::sim

#endif  // PROTOACC_SIM_MEMORY_SYSTEM_H
