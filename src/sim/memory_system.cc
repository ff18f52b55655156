#include "sim/memory_system.h"

#include "common/bits.h"

namespace protoacc::sim {

MemorySystem::MemorySystem(const MemorySystemConfig &config)
    : config_(config),
      l2_(config.l2),
      llc_(config.llc),
      line_shift_(Log2Floor(config.l2.line_bytes))
{}

uint64_t
MemorySystem::LineLatency(uint64_t addr, bool is_write)
{
    if (l2_.Access(addr, is_write))
        return config_.l2.hit_latency;
    if (llc_.Access(addr, is_write))
        return config_.llc.hit_latency;
    return config_.dram_latency;
}

uint64_t
MemorySystem::ReadLatency(uint64_t addr, uint64_t size)
{
    if (size == 0)
        return 0;
    ++stats_.reads;
    stats_.read_bytes += size;

    const uint64_t first_line = addr >> line_shift_;
    const uint64_t last_line = (addr + size - 1) >> line_shift_;

    uint64_t latency = LineLatency(addr, false);
    // Further lines stream behind the first: the wrappers keep multiple
    // requests outstanding, so each extra line costs one bus beat per
    // bus-width chunk (bandwidth bound), not full latency.
    for (uint64_t l = first_line + 1; l <= last_line; ++l)
        LineLatency(l << line_shift_, false);  // keep tags warm/accurate
    const uint64_t beats = CeilDiv(size, config_.bus_bytes_per_cycle);
    return latency + (beats > 0 ? beats - 1 : 0);
}

uint64_t
MemorySystem::WriteLatency(uint64_t addr, uint64_t size)
{
    if (size == 0)
        return 0;
    ++stats_.writes;
    stats_.write_bytes += size;

    const uint64_t first_line = addr >> line_shift_;
    const uint64_t last_line = (addr + size - 1) >> line_shift_;
    for (uint64_t l = first_line; l <= last_line; ++l)
        LineLatency(l << line_shift_, true);
    // Posted write: occupancy is one bus beat per bus-width chunk.
    return CeilDiv(size, config_.bus_bytes_per_cycle);
}

void
MemorySystem::Flush()
{
    l2_.Flush();
    llc_.Flush();
}

void
MemorySystem::ResetStats()
{
    stats_ = MemorySystemStats{};
    l2_.ResetStats();
    llc_.ResetStats();
}

}  // namespace protoacc::sim
