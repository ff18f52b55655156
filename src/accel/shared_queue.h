/**
 * @file
 * Shared-accelerator queue model: the doorbell/completion contention
 * layer in front of the (de)serializer units.
 *
 * The device model (accelerator.h) prices one requester's batch in
 * isolation — service time only. In the serving scenario the paper
 * motivates (§1, "datacenter tax"), K cores contend for one accelerator
 * instance: each worker rings a doorbell with a batch of
 * {deser_info, do_proto_deser} / {ser_info, do_proto_ser} pairs (§4.4.1,
 * §4.5.2) and blocks on the completion fence, so modeled latency under
 * load is queueing delay *plus* service, not service alone.
 *
 * This class arbitrates a shared virtual timeline: submissions carry an
 * arrival cycle (the requester's own clock) and a service-cycle cost
 * (measured on the requester's device model); the queue assigns each
 * batch the earliest-free unit at or after its arrival and returns the
 * completion cycle. Per-job doorbell issue cost and the per-batch fence
 * come from the RoCC constants the rest of the model already uses, so a
 * lone uncontended batch costs exactly its isolated-model latency plus
 * those fixed overheads — the queue only ever *adds* wait under
 * contention, leaving single-call figure benches untouched.
 *
 * Thread-safe: serving-runtime workers submit concurrently.
 */
#ifndef PROTOACC_ACCEL_SHARED_QUEUE_H
#define PROTOACC_ACCEL_SHARED_QUEUE_H

#include <cstdint>
#include <mutex>
#include <vector>

#include "accel/placement.h"
#include "accel/rocc.h"
#include "sim/fault.h"

namespace protoacc::accel {

/// Configuration of the shared queue.
struct SharedQueueConfig
{
    /// Accelerator instances behind the doorbell (each one full
    /// deserializer + serializer pair, Figure 8).
    uint32_t num_units = 1;
    /// Cycles to issue one job's RoCC instruction pair from the core
    /// (deser_info + do_proto_deser, or ser_info + do_proto_ser).
    uint32_t dispatch_cycles_per_job = 2 * kRoccDispatchCycles;
    /// Cycles for the blocking block_for_*_completion fence, paid once
    /// per batch (§3.5 batching amortizes it).
    uint32_t fence_cycles = kFenceCycles;

    /// Per-batch watchdog budget on the shared units; 0 disables. A
    /// batch whose service time blows the budget is treated as a
    /// wedged unit: the watchdog fires at the budget, resets the unit
    /// (reset_cycles) and the batch replays — so its completion is
    /// budget + reset + service later than a clean run, and the unit
    /// stays occupied for that whole window.
    uint64_t watchdog_budget_cycles = 0;
    uint64_t watchdog_reset_cycles = 512;

    /// Clock of the shared timeline, used to convert the transfer
    /// model's nanosecond costs into cycles (matches
    /// accel::AccelConfig::freq_ghz by default).
    double freq_ghz = 2.0;
    /// Interconnect placement of the units (RoCC-integrated vs
    /// PCIe-attached). Only the offload submit path consults it: the
    /// classic host-driven path is RoCC by construction (its dispatch
    /// cycles ARE the RoCC instruction pairs).
    TransferModel transfer;
    /// Health-aware dispatch: a probation-state unit (reintegrated
    /// after scrub + self-test, reduced trust) only wins arbitration
    /// when it is free this many cycles earlier than the best
    /// fully-trusted unit — fresh work prefers units without an error
    /// history while the probationer re-earns trust. 0 disables the
    /// bias.
    uint32_t probation_bias_cycles = 64;
};

/**
 * One offloaded batch: the full RPC pipeline (frame engine -> deser ->
 * handler -> ser -> frame engine) runs device-side, so the stage
 * totals arrive separately and the unit models them as a pipeline over
 * the batch's calls instead of a host-fenced serial sum.
 */
struct OffloadBatch
{
    /// Codec jobs that ran on the device (deser + ser count).
    uint32_t jobs = 0;
    /// Deserializer-side unit cycles for the whole batch.
    uint64_t deser_cycles = 0;
    /// Serializer-side unit cycles for the whole batch.
    uint64_t ser_cycles = 0;
    /// Frame-engine stage cycles (header parse/stamp, CRC verify and
    /// stamp, dedup probes, error synthesis) for the whole batch.
    uint64_t frame_cycles = 0;
    /// Request + response bytes crossing the interconnect (PCIe DMA
    /// pays latency + bandwidth for them; RoCC moves them through the
    /// cache hierarchy for free at this layer).
    uint64_t wire_bytes = 0;
    /// Calls in the batch — the pipelined item count.
    uint32_t calls = 1;
};

/**
 * Arbitrates batches of accelerator jobs from concurrent requesters
 * onto num_units shared units along a virtual cycle timeline.
 */
class SharedAccelQueue
{
  public:
    /// Outcome of one batch submission on the shared timeline.
    struct Completion
    {
        uint64_t start_cycle = 0;  ///< when a unit began the batch
        uint64_t done_cycle = 0;   ///< fence return (completion)
        uint64_t wait_cycles = 0;  ///< queueing delay (start - ready)
        /// Unit that served the batch — the identity the health
        /// subsystem tracks error history against.
        uint32_t unit = 0;
        /// The watchdog fired on this batch (blown budget, or an
        /// injected wedge on the serving unit): one incident for the
        /// unit's health domain.
        bool watchdog_fired = false;
    };

    /// Aggregate counters (monotonic until Reset).
    struct Stats
    {
        uint64_t batches = 0;
        uint64_t jobs = 0;
        uint64_t total_wait_cycles = 0;
        uint64_t total_service_cycles = 0;
        /// Batches that found every unit busy on arrival.
        uint64_t contended_batches = 0;
        /// Latest completion on the shared timeline.
        uint64_t busy_until_cycle = 0;
        /// Watchdog firings (budget blown => unit reset + replay).
        uint64_t watchdog_resets = 0;
        /// Cycles burned on blown budgets + resets.
        uint64_t watchdog_wasted_cycles = 0;
        /// Offloaded-datapath batches (SubmitOffloadBatch).
        uint64_t offload_batches = 0;
        /// Frame-engine stage cycles carried by offloaded batches.
        uint64_t offload_frame_cycles = 0;
        /// Bytes offloaded batches moved across the interconnect.
        uint64_t offload_wire_bytes = 0;
        /// Interconnect cycles the placement added (doorbell + DMA +
        /// completion delivery; 0 under RoCC).
        uint64_t transfer_cycles = 0;
        /// Dispatches steered away from a probation unit that was
        /// nominally earliest-free (health-aware arbitration).
        uint64_t probation_deflections = 0;
        /// Per-unit batch and watchdog-reset counts (indexed by unit).
        std::vector<uint64_t> unit_batches;
        std::vector<uint64_t> unit_watchdog_resets;
        /// Cycles units spent blocked for health maintenance
        /// (scrub + self-test windows, via BlockUnit).
        uint64_t health_blocked_cycles = 0;
        /// Units currently fenced out of arbitration.
        uint32_t fenced_units = 0;
        /// Descriptor-table epoch swaps begun (BeginTableSwap).
        uint64_t table_swaps = 0;
        /// Per-unit table loads that committed their epoch.
        uint64_t table_loads_committed = 0;
        /// Loads killed mid-stream (unit left on its old epoch and
        /// fenced for quarantine — fail-closed).
        uint64_t table_loads_aborted = 0;
        /// Unit cycles spent streaming table images (committed loads,
        /// aborted half-loads and forced clean retries alike).
        uint64_t table_load_cycles = 0;
        /// Batches that started on a unit whose table epoch lagged the
        /// current one. The epoch fence makes this impossible by
        /// construction; the counter exists so soaks can assert it
        /// stays 0.
        uint64_t stale_epoch_dispatches = 0;
    };

    /// Outcome of one epoch-fenced descriptor-table swap.
    struct TableSwap
    {
        uint64_t epoch = 0;           ///< the new table epoch
        uint32_t loads_committed = 0; ///< units now serving the epoch
        uint32_t loads_aborted = 0;   ///< killed mid-load, quarantined
        uint64_t done_cycle = 0;      ///< last committed load's landing
    };

    explicit SharedAccelQueue(const SharedQueueConfig &config = {});

    /**
     * Submit a batch of @p jobs jobs totalling @p service_cycles of
     * unit time, arriving at @p arrival_cycle on the shared timeline.
     * Jobs in a batch run back-to-back on one unit (the device model's
     * batching contract) and complete together at the fence.
     */
    Completion SubmitBatch(uint64_t arrival_cycle, uint32_t jobs,
                           uint64_t service_cycles);

    /// Single-job convenience wrapper.
    Completion
    Submit(uint64_t arrival_cycle, uint64_t service_cycles)
    {
        return SubmitBatch(arrival_cycle, 1, service_cycles);
    }

    /**
     * Submit one offloaded batch (see OffloadBatch). Differences from
     * the host-driven SubmitBatch:
     *
     *  - The device pulls work from a descriptor ring: one doorbell
     *    per batch (RoCC: a single instruction-pair; PCIe: the MMIO
     *    write) instead of per-job instruction pairs.
     *  - The frame-engine, deserializer and serializer stages overlap
     *    across the batch's calls (call k serializes while call k+1
     *    deserializes), so unit occupancy is the pipelined makespan —
     *    (n-1) * max-stage + one call through every stage — not the
     *    serial stage sum the blocking host fences force.
     *  - Completion is the egress frame / completion record itself:
     *    no block_for_*_completion fence occupies the unit. A PCIe
     *    placement instead delays the *requester* by the completion
     *    delivery latency, and pays the batch's DMA as one more
     *    pipeline stage.
     *
     * Watchdog budget, per-unit fault injection, fencing and
     * maintenance windows apply exactly as on SubmitBatch — offloaded
     * frames keep the whole health story.
     */
    Completion SubmitOffloadBatch(uint64_t arrival_cycle,
                                  const OffloadBatch &batch);

    Stats stats() const;
    const SharedQueueConfig &config() const { return config_; }

    // ---- health-domain hooks (driven by rpc/health.h via the
    //      serving runtime's deterministic replay) ----

    /**
     * Attach a fault injector to unit @p unit (nullptr detaches; not
     * owned). Each batch the unit serves draws one sample: a wedge (or
     * a stall beyond the watchdog budget) fires the watchdog — the
     * batch completes late and the completion reports watchdog_fired —
     * and a bounded stall inflates service time. Self-test verdicts for
     * the unit draw from the same injector (SampleUnitFaults), so an
     * injected permanent fault keeps failing self-tests until the
     * health policy fences the unit.
     */
    void SetUnitFaultInjector(uint32_t unit,
                              sim::FaultInjector *injector);

    /**
     * Occupy @p unit for @p cycles of health maintenance (state scrub +
     * self-test) starting when the unit is next free: live traffic
     * routes around it to the other units for the duration — the
     * dispatcher simply never finds it earliest-free.
     *
     * @return the cycle at which the maintenance window ends.
     */
    uint64_t BlockUnit(uint32_t unit, uint64_t cycles);

    /**
     * Fence @p unit out of arbitration (or lift the fence). The last
     * in-service unit cannot be fenced — a fleet must keep serving, so
     * the final survivor stays on indefinite probation instead.
     *
     * @return false when the fence was refused (last available unit).
     */
    bool SetUnitFenced(uint32_t unit, bool fenced);
    bool unit_fenced(uint32_t unit) const;
    /// Units currently in arbitration.
    uint32_t available_units() const;

    /**
     * Earliest cycle at which any in-service unit becomes free — the
     * contention horizon. A batch arriving at or before this cycle
     * will wait for a unit; one arriving after it finds a unit idle.
     * The serving runtime's replay arbiter uses this to decide whether
     * contending batches need weighted-fair scheduling or plain
     * arrival-order dispatch suffices. Thread-safe.
     */
    uint64_t earliest_free_cycle() const;

    /**
     * Mark @p unit as probation-state (reintegrated with reduced
     * trust) or clear the mark. A probation unit stays in arbitration
     * but the dispatcher biases against it by probation_bias_cycles —
     * it serves when it is the clearly better choice (or the only
     * one), not merely the momentarily earliest-free one.
     */
    void SetUnitProbation(uint32_t unit, bool probation);
    bool unit_probation(uint32_t unit) const;

    /// Draw @p n unit-fault samples from @p unit's injector (the
    /// self-test verdict source). @return how many faulted; 0 when no
    /// injector is attached (a unit with no fault source passes).
    uint32_t SampleUnitFaults(uint32_t unit, uint32_t n);

    // ---- epoch-fenced descriptor-table swap ----

    /**
     * Swap the fleet's descriptor tables to a new epoch: every
     * in-service unit streams the @p table_bytes image into its table
     * memory (at the memloader's 16 B/cycle) starting when it is
     * next free at or after @p start_cycle — so in-flight batches
     * complete against the epoch they dispatched under, and new
     * dispatches fence behind the load (the unit's free time IS the
     * load commit point).
     *
     * Each unit's load draws one sample from its fault injector: a
     * kill or wedge mid-load aborts it — the unit burns half the load,
     * keeps its OLD epoch (a partially-written table never serves) and
     * is fenced out of arbitration for the health policy to quarantine.
     * Fail-closed with one exception: the fleet must keep serving, so
     * if every unit's load would abort, the last one pays the abort
     * and then a full clean reload, and commits.
     *
     * Units already fenced (or on a stale epoch from a previous aborted
     * load) are skipped — RetryTableLoad reintegrates them.
     */
    TableSwap BeginTableSwap(uint64_t start_cycle, uint64_t table_bytes);

    /**
     * Re-run the priced table load on a unit stranded on a stale epoch
     * by an aborted load (after the health lifecycle's scrub +
     * self-test, before the fence lifts). Draws a fault sample like
     * BeginTableSwap: a faulted retry burns half the load and leaves
     * the unit stale — the caller must keep it fenced.
     *
     * @return true when the load committed the current epoch.
     */
    bool RetryTableLoad(uint32_t unit, uint64_t start_cycle,
                        uint64_t table_bytes);

    /// Fleet-wide table epoch (0 until the first swap).
    uint64_t current_epoch() const;
    /// Epoch @p unit's table memory holds.
    uint64_t unit_epoch(uint32_t unit) const;

    /// Clear the timeline and counters (units all free at cycle 0);
    /// fences, probation marks and injectors are preserved.
    void Reset();

  private:
    /// Earliest-free arbitration over in-service units with the
    /// probation bias applied. Caller holds mu_.
    uint32_t PickUnitLocked();
    /// Common completion path: injected faults, watchdog, occupancy
    /// update and stats. @p occupancy_tail extends the unit's busy
    /// window past the service (the host-path fence);
    /// @p completion_tail delays only the requester's observed
    /// completion (PCIe completion delivery). Caller holds mu_.
    Completion FinishBatchLocked(uint32_t unit, uint64_t ready,
                                 uint32_t jobs, uint64_t service_cycles,
                                 uint64_t occupancy_tail,
                                 uint64_t completion_tail);

    /// Priced table-image stream onto one unit starting when it is
    /// next free at or after @p start_cycle. Caller holds mu_.
    /// @return the cycle the load (or half-load) ends.
    uint64_t LoadTableLocked(uint32_t unit, uint64_t start_cycle,
                             uint64_t load_cycles);

    SharedQueueConfig config_;
    mutable std::mutex mu_;
    /// Cycle at which each unit next becomes free.
    std::vector<uint64_t> unit_free_;
    /// Fleet-wide descriptor-table epoch; bumped by BeginTableSwap.
    uint64_t current_epoch_ = 0;
    /// Epoch each unit's table memory holds. A unit lagging
    /// current_epoch_ never wins arbitration (epoch fence).
    std::vector<uint64_t> unit_epoch_;
    /// Units fenced out of arbitration by the health policy.
    std::vector<bool> unit_fenced_;
    /// Units on reduced-trust probation (biased against, still serving).
    std::vector<bool> unit_probation_;
    /// Per-unit fault sources (not owned; nullptr = fault-free).
    std::vector<sim::FaultInjector *> unit_injectors_;
    Stats stats_;
};

}  // namespace protoacc::accel

#endif  // PROTOACC_ACCEL_SHARED_QUEUE_H
