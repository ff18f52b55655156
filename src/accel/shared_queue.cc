#include "accel/shared_queue.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace protoacc::accel {

namespace {

/// Wedge hang bound when no watchdog budget is configured (mirrors the
/// device model's command-router last-resort timeout).
constexpr uint64_t kWedgeHangCycles = 1'000'000;

/// Cycles to stream a @p table_bytes descriptor-table image into a
/// unit's local table memory during an epoch swap, at the memloader
/// width the device model already uses: 16 B/cycle.
uint64_t
TableLoadCycles(uint64_t table_bytes)
{
    return (table_bytes + 15) / 16;
}

}  // namespace

SharedAccelQueue::SharedAccelQueue(const SharedQueueConfig &config)
    : config_(config)
{
    PA_CHECK_GE(config_.num_units, 1u);
    unit_free_.assign(config_.num_units, 0);
    unit_epoch_.assign(config_.num_units, 0);
    unit_fenced_.assign(config_.num_units, false);
    unit_probation_.assign(config_.num_units, false);
    unit_injectors_.assign(config_.num_units, nullptr);
    stats_.unit_batches.assign(config_.num_units, 0);
    stats_.unit_watchdog_resets.assign(config_.num_units, 0);
}

uint32_t
SharedAccelQueue::PickUnitLocked()
{
    // Earliest-free arbitration over the in-service units only: a
    // fenced (or maintenance-blocked) unit simply never wins, which is
    // how live traffic routes around a quarantined one. A probation
    // unit competes with its free time pushed out by the bias, so a
    // fully-trusted unit that is nearly as free takes the work while
    // the probationer re-earns trust on the remainder.
    const uint64_t bias = config_.probation_bias_cycles;
    uint32_t unit = config_.num_units;      // biased winner
    uint32_t unbiased = config_.num_units;  // would-be winner, no bias
    uint64_t best_score = 0;
    for (uint32_t u = 0; u < config_.num_units; ++u) {
        // The epoch fence: a unit whose table memory lags the fleet
        // epoch must never serve — its descriptors describe the wrong
        // schema version. Excluded exactly like a fenced unit.
        if (unit_fenced_[u] || unit_epoch_[u] != current_epoch_)
            continue;
        const uint64_t score =
            unit_free_[u] + (unit_probation_[u] ? bias : 0);
        if (unit == config_.num_units || score < best_score) {
            unit = u;
            best_score = score;
        }
        if (unbiased == config_.num_units ||
            unit_free_[u] < unit_free_[unbiased])
            unbiased = u;
    }
    PA_CHECK_LT(unit, config_.num_units);  // last unit is unfenceable
    if (unit != unbiased)
        ++stats_.probation_deflections;
    return unit;
}

SharedAccelQueue::Completion
SharedAccelQueue::SubmitBatch(uint64_t arrival_cycle, uint32_t jobs,
                              uint64_t service_cycles)
{
    PA_CHECK_GE(jobs, 1u);
    std::lock_guard<std::mutex> lock(mu_);

    // The requester's core issues the doorbell instruction pairs
    // before any unit can start.
    const uint64_t ready =
        arrival_cycle +
        static_cast<uint64_t>(config_.dispatch_cycles_per_job) * jobs;

    // The host-driven path blocks on the completion fence, which
    // occupies the unit until the requester returns.
    return FinishBatchLocked(PickUnitLocked(), ready, jobs,
                             service_cycles, config_.fence_cycles, 0);
}

SharedAccelQueue::Completion
SharedAccelQueue::SubmitOffloadBatch(uint64_t arrival_cycle,
                                     const OffloadBatch &batch)
{
    PA_CHECK_GE(batch.jobs, 1u);
    std::lock_guard<std::mutex> lock(mu_);

    const double freq = config_.freq_ghz;
    const uint32_t calls = std::max<uint32_t>(batch.calls, 1);
    const double n = static_cast<double>(calls);

    // The device pulls the batch from a descriptor ring: one doorbell,
    // however many jobs. RoCC models it as a single instruction-pair
    // issue; PCIe as the MMIO doorbell write.
    const uint64_t doorbell =
        config_.transfer.placement == Placement::kRoCC
            ? static_cast<uint64_t>(kRoccDispatchCycles)
            : config_.transfer.DoorbellCycles(freq);
    const uint64_t ready = arrival_cycle + doorbell;

    // Pipelined makespan over the batch's calls: the frame engine,
    // deserializer and serializer (and, PCIe-attached, the DMA engine)
    // are independent stages, so steady-state throughput is set by the
    // slowest stage and only the first call pays the full stage sum.
    // With uniform per-call stage times t_j this is the classic
    // (n - 1) * max_j(t_j) + sum_j(t_j).
    const uint64_t dma = config_.transfer.TransferCycles(
        batch.wire_bytes, freq);
    const double stages[] = {
        static_cast<double>(batch.frame_cycles),
        static_cast<double>(batch.deser_cycles),
        static_cast<double>(batch.ser_cycles),
        static_cast<double>(dma),
    };
    double total = 0;
    double slowest = 0;
    for (const double s : stages) {
        total += s;
        slowest = std::max(slowest, s);
    }
    const uint64_t makespan = static_cast<uint64_t>(
        std::llround((n - 1.0) * slowest / n + total / n));

    // No completion fence occupies the unit (the egress frame IS the
    // completion); PCIe delays only the requester's observation of it.
    const uint64_t completion_tail =
        config_.transfer.CompletionCycles(freq);
    const Completion c = FinishBatchLocked(
        PickUnitLocked(), ready, batch.jobs, makespan, 0,
        completion_tail);

    ++stats_.offload_batches;
    stats_.offload_frame_cycles += batch.frame_cycles;
    stats_.offload_wire_bytes += batch.wire_bytes;
    stats_.transfer_cycles += doorbell + dma + completion_tail;
    return c;
}

SharedAccelQueue::Completion
SharedAccelQueue::FinishBatchLocked(uint32_t unit, uint64_t ready,
                                    uint32_t jobs,
                                    uint64_t service_cycles,
                                    uint64_t occupancy_tail,
                                    uint64_t completion_tail)
{
    const bool contended = unit_free_[unit] > ready;
    const uint64_t start = contended ? unit_free_[unit] : ready;

    // Correctness tripwire, not a control path: the epoch fence in
    // PickUnitLocked makes a stale-table dispatch impossible, and the
    // skew soak asserts this counter stays 0.
    if (unit_epoch_[unit] != current_epoch_)
        ++stats_.stale_epoch_dispatches;

    // Injected unit faults on the serving unit: a bounded stall
    // inflates this batch's service time; a wedge (or a kill — on the
    // timing-only shared model both wedge the FSM) hangs until the
    // watchdog budget.
    uint64_t effective_service = service_cycles;
    bool injected_wedge = false;
    if (unit_injectors_[unit] != nullptr) {
        const sim::UnitFault fault =
            unit_injectors_[unit]->SampleUnitFault();
        if (fault.kind == sim::UnitFaultKind::kStall)
            effective_service += fault.stall_cycles;
        else if (fault.kind != sim::UnitFaultKind::kNone)
            injected_wedge = true;
    }

    // Watchdog: a batch blowing its cycle budget models a wedged unit —
    // the budget elapses, the unit resets, then the batch replays clean.
    uint64_t penalty = 0;
    bool watchdog_fired = false;
    if (config_.watchdog_budget_cycles > 0 &&
        (injected_wedge ||
         effective_service > config_.watchdog_budget_cycles)) {
        penalty = config_.watchdog_budget_cycles +
                  config_.watchdog_reset_cycles;
        watchdog_fired = true;
        ++stats_.watchdog_resets;
        ++stats_.unit_watchdog_resets[unit];
        stats_.watchdog_wasted_cycles += penalty;
    } else if (injected_wedge) {
        // No watchdog armed: the wedge hangs the unit to the coarse
        // last-resort timeout before the batch replays.
        penalty = kWedgeHangCycles;
    }
    const uint64_t busy_end =
        start + penalty + effective_service + occupancy_tail;
    unit_free_[unit] = busy_end;

    Completion c;
    c.start_cycle = start;
    c.done_cycle = busy_end + completion_tail;
    c.wait_cycles = start - ready;
    c.unit = unit;
    c.watchdog_fired = watchdog_fired;

    ++stats_.batches;
    ++stats_.unit_batches[unit];
    stats_.jobs += jobs;
    stats_.total_wait_cycles += c.wait_cycles;
    stats_.total_service_cycles += service_cycles;
    if (contended)
        ++stats_.contended_batches;
    stats_.busy_until_cycle =
        std::max(stats_.busy_until_cycle, busy_end);
    return c;
}

void
SharedAccelQueue::SetUnitFaultInjector(uint32_t unit,
                                       sim::FaultInjector *injector)
{
    std::lock_guard<std::mutex> lock(mu_);
    PA_CHECK_LT(unit, config_.num_units);
    unit_injectors_[unit] = injector;
}

uint64_t
SharedAccelQueue::BlockUnit(uint32_t unit, uint64_t cycles)
{
    std::lock_guard<std::mutex> lock(mu_);
    PA_CHECK_LT(unit, config_.num_units);
    unit_free_[unit] += cycles;
    stats_.health_blocked_cycles += cycles;
    stats_.busy_until_cycle =
        std::max(stats_.busy_until_cycle, unit_free_[unit]);
    return unit_free_[unit];
}

bool
SharedAccelQueue::SetUnitFenced(uint32_t unit, bool fenced)
{
    std::lock_guard<std::mutex> lock(mu_);
    PA_CHECK_LT(unit, config_.num_units);
    if (fenced && !unit_fenced_[unit]) {
        // Refuse to fence the last in-service unit: the fleet must
        // keep serving, so the final survivor stays on probation.
        uint32_t available = 0;
        for (const bool f : unit_fenced_)
            if (!f)
                ++available;
        if (available <= 1)
            return false;
    }
    if (unit_fenced_[unit] != fenced) {
        unit_fenced_[unit] = fenced;
        stats_.fenced_units += fenced ? 1u : -1u;
    }
    return true;
}

bool
SharedAccelQueue::unit_fenced(uint32_t unit) const
{
    std::lock_guard<std::mutex> lock(mu_);
    PA_CHECK_LT(unit, config_.num_units);
    return unit_fenced_[unit];
}

void
SharedAccelQueue::SetUnitProbation(uint32_t unit, bool probation)
{
    std::lock_guard<std::mutex> lock(mu_);
    PA_CHECK_LT(unit, config_.num_units);
    unit_probation_[unit] = probation;
}

bool
SharedAccelQueue::unit_probation(uint32_t unit) const
{
    std::lock_guard<std::mutex> lock(mu_);
    PA_CHECK_LT(unit, config_.num_units);
    return unit_probation_[unit];
}

uint32_t
SharedAccelQueue::available_units() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t available = 0;
    for (const bool f : unit_fenced_)
        if (!f)
            ++available;
    return available;
}

uint64_t
SharedAccelQueue::earliest_free_cycle() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t earliest = 0;
    bool any = false;
    for (uint32_t u = 0; u < config_.num_units; ++u) {
        if (unit_fenced_[u] || unit_epoch_[u] != current_epoch_)
            continue;
        if (!any || unit_free_[u] < earliest)
            earliest = unit_free_[u];
        any = true;
    }
    return earliest;
}

uint32_t
SharedAccelQueue::SampleUnitFaults(uint32_t unit, uint32_t n)
{
    sim::FaultInjector *injector;
    {
        std::lock_guard<std::mutex> lock(mu_);
        PA_CHECK_LT(unit, config_.num_units);
        injector = unit_injectors_[unit];
    }
    if (injector == nullptr)
        return 0;
    uint32_t faulted = 0;
    for (uint32_t i = 0; i < n; ++i)
        if (injector->SampleUnitFault().kind !=
            sim::UnitFaultKind::kNone)
            ++faulted;
    return faulted;
}

uint64_t
SharedAccelQueue::LoadTableLocked(uint32_t unit, uint64_t start_cycle,
                                  uint64_t load_cycles)
{
    // The load begins when the unit drains its in-flight work: those
    // batches dispatched under the old epoch and complete against it.
    const uint64_t begin = std::max(unit_free_[unit], start_cycle);
    const uint64_t end = begin + load_cycles;
    unit_free_[unit] = end;
    stats_.table_load_cycles += load_cycles;
    stats_.busy_until_cycle = std::max(stats_.busy_until_cycle, end);
    return end;
}

SharedAccelQueue::TableSwap
SharedAccelQueue::BeginTableSwap(uint64_t start_cycle,
                                 uint64_t table_bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    ++current_epoch_;
    ++stats_.table_swaps;

    const uint64_t load_cycles = TableLoadCycles(table_bytes);

    TableSwap swap;
    swap.epoch = current_epoch_;

    // In-service units only: a fenced unit (or one stranded stale by
    // an earlier aborted load) is the health policy's problem — it
    // rejoins through scrub + self-test + RetryTableLoad.
    std::vector<uint32_t> fleet;
    for (uint32_t u = 0; u < config_.num_units; ++u)
        if (!unit_fenced_[u] && unit_epoch_[u] + 1 == current_epoch_)
            fleet.push_back(u);

    for (size_t i = 0; i < fleet.size(); ++i) {
        const uint32_t u = fleet[i];
        bool killed = false;
        if (unit_injectors_[u] != nullptr)
            killed = unit_injectors_[u]->SampleUnitFault().kind !=
                     sim::UnitFaultKind::kNone;
        const bool last_hope =
            swap.loads_committed == 0 && i + 1 == fleet.size();
        if (killed) {
            // Mid-load kill: half the image streamed, then the unit
            // died. A partially-written table must never serve, so the
            // unit keeps its old epoch and is fenced for quarantine.
            LoadTableLocked(u, start_cycle, load_cycles / 2);
            ++stats_.table_loads_aborted;
            ++swap.loads_aborted;
            if (!last_hope) {
                if (!unit_fenced_[u]) {
                    unit_fenced_[u] = true;
                    ++stats_.fenced_units;
                }
                continue;
            }
            // The fleet must keep serving: the final survivor pays a
            // full clean reload on top of the aborted half and commits.
        }
        const uint64_t end = LoadTableLocked(u, start_cycle, load_cycles);
        unit_epoch_[u] = current_epoch_;
        ++stats_.table_loads_committed;
        ++swap.loads_committed;
        swap.done_cycle = std::max(swap.done_cycle, end);
    }
    return swap;
}

bool
SharedAccelQueue::RetryTableLoad(uint32_t unit, uint64_t start_cycle,
                                 uint64_t table_bytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    PA_CHECK_LT(unit, config_.num_units);
    if (unit_epoch_[unit] == current_epoch_)
        return true;  // nothing to reload

    const uint64_t load_cycles = TableLoadCycles(table_bytes);
    bool killed = false;
    if (unit_injectors_[unit] != nullptr)
        killed = unit_injectors_[unit]->SampleUnitFault().kind !=
                 sim::UnitFaultKind::kNone;
    if (killed) {
        LoadTableLocked(unit, start_cycle, load_cycles / 2);
        ++stats_.table_loads_aborted;
        return false;  // still stale — caller keeps the fence up
    }
    LoadTableLocked(unit, start_cycle, load_cycles);
    unit_epoch_[unit] = current_epoch_;
    ++stats_.table_loads_committed;
    return true;
}

uint64_t
SharedAccelQueue::current_epoch() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return current_epoch_;
}

uint64_t
SharedAccelQueue::unit_epoch(uint32_t unit) const
{
    std::lock_guard<std::mutex> lock(mu_);
    PA_CHECK_LT(unit, config_.num_units);
    return unit_epoch_[unit];
}

SharedAccelQueue::Stats
SharedAccelQueue::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
SharedAccelQueue::Reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    unit_free_.assign(config_.num_units, 0);
    const uint32_t fenced = stats_.fenced_units;
    stats_ = Stats{};
    stats_.unit_batches.assign(config_.num_units, 0);
    stats_.unit_watchdog_resets.assign(config_.num_units, 0);
    stats_.fenced_units = fenced;
}

}  // namespace protoacc::accel
