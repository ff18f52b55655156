/**
 * @file
 * Device health domains: lifecycle management of fallible accelerator
 * state between requests.
 *
 * The serving stack already *detects* device failures (watchdog resets,
 * injected unit kills/wedges, CRC rejects) and replays the victim job —
 * but a reset unit used to go straight back into rotation with dirty
 * internal state and no memory of its error history. This module treats
 * every accelerator (each worker's private device, and each unit behind
 * the shared doorbell queue) as a managed health domain:
 *
 *     healthy → suspect → quarantined → scrubbing → self-test
 *                    ↘ (single incidents just replay)   ↙        ↘
 *                      probation ← (test passed)               fenced
 *                          ↓ (clean ops)                   (test failed
 *                       healthy                             repeatedly)
 *
 * Transitions are driven by an EWMA error rate over per-operation
 * observations (watchdog resets, unit faults, downstream CRC failures):
 * a single incident replays exactly as before, but a repeat offender is
 * *quarantined* instead of being reset forever. Quarantine triggers a
 * modeled full-state scrub — ADT response buffers, on-chip context
 * stacks, the DRAM spill region, memloader/memwriter buffers — with
 * per-structure cycle accounting, so a reset can never leak one
 * request's bytes into the next. A background self-test then runs
 * golden serialize/deserialize vectors through the unit while live
 * traffic routes around it; passing units reintegrate on reduced-trust
 * probation (any incident re-quarantines immediately), failing units
 * stay fenced and the runtime degrades to surviving units or the
 * software codec.
 *
 * Fail-closed contract: the only path out of quarantine runs through a
 * *completed* scrub and a *passed* self-test. Any interruption — a
 * worker crash mid-scrub, a shutdown mid-self-test — leaves the domain
 * in kScrubbing/kSelfTest, which InService() reports as fenced.
 */
#ifndef PROTOACC_RPC_HEALTH_H
#define PROTOACC_RPC_HEALTH_H

#include <array>
#include <cstdint>

#include "accel/accelerator.h"
#include "proto/message.h"

namespace protoacc::rpc {

/// Lifecycle state of one accelerator health domain.
enum class HealthState : uint8_t {
    kHealthy = 0,
    /// Elevated error rate; still serving, watched closely.
    kSuspect,
    /// Fenced from traffic; scrub not yet started.
    kQuarantined,
    /// Fenced; modeled state scrub in progress.
    kScrubbing,
    /// Fenced; golden-vector self-test in progress.
    kSelfTest,
    /// Back in service with reduced trust: any incident re-quarantines
    /// immediately, and a run of clean ops is required to fully
    /// reintegrate as kHealthy.
    kProbation,
    /// Permanently out of service (self-test failed too many times).
    kFenced,
    kNumHealthStates,
};

const char *HealthStateName(HealthState state);

/// Device-attributable error classes feeding the health EWMA.
enum class IncidentKind : uint8_t {
    /// The unit blew its cycle budget and was reset (wedge or runaway
    /// stall caught by the watchdog).
    kWatchdogReset = 0,
    /// The unit died mid-job (injected kill; op fell back to software).
    kUnitFault,
    /// Downstream integrity failure attributed to this device (e.g. a
    /// client rejected this worker's response frame CRC).
    kCrcFailure,
    kNumIncidentKinds,
};

constexpr size_t kNumIncidentKinds =
    static_cast<size_t>(IncidentKind::kNumIncidentKinds);

const char *IncidentKindName(IncidentKind kind);

/// Knobs of the health state machine and the scrub/self-test models.
/// Lives in RuntimeConfig next to AccelConfig/SharedQueueConfig.
struct HealthConfig
{
    /// Master switch; disabled keeps the pre-health behavior (every
    /// incident replays, nothing is ever quarantined).
    bool enabled = false;

    // ---- error-rate tracking ----

    /// EWMA weight of the newest observation (1.0 = only the latest op
    /// matters, small = long memory).
    double ewma_alpha = 0.25;
    /// EWMA error rate at or above which a domain becomes kSuspect.
    double suspect_threshold = 0.10;
    /// EWMA error rate at or above which a domain is quarantined.
    double quarantine_threshold = 0.45;
    /// Observations required before the thresholds are trusted (a
    /// single early incident must replay, not quarantine).
    uint64_t min_observations = 4;

    // ---- scrub cost model (per-structure cycle accounting) ----

    /// Cycles to invalidate/zero one ADT response-buffer entry.
    uint32_t scrub_cycles_per_adt_entry = 2;
    /// Cycles to clear one on-chip context-stack entry (deser metadata
    /// stack and ser context stack are both covered).
    uint32_t scrub_cycles_per_stack_entry = 1;
    /// Cycles to overwrite one spilled stack entry in the DRAM spill
    /// region (a memory write, far costlier than a register clear).
    uint32_t scrub_cycles_per_spill_entry = 8;
    /// Entries the DRAM spill region is provisioned for (state beyond
    /// the on-chip depth). Scrub must assume the region is dirty to its
    /// provisioned size — the dirty extent cannot be trusted after a
    /// wedge.
    uint32_t spill_region_entries = 128;
    /// Streaming-buffer bytes in the memloader / memwriter frontends.
    uint32_t memloader_buffer_bytes = 64;
    uint32_t memwriter_buffer_bytes = 64;
    /// Width at which the streaming buffers are cleared.
    uint32_t scrub_bytes_per_cycle = 16;

    // ---- self-test ----

    /// Golden serialize+deserialize vectors run through the unit.
    uint32_t self_test_vectors = 4;
    /// Consecutive failed self-tests before the domain is permanently
    /// fenced (a failing test re-queues scrub + self-test until then).
    uint32_t max_self_test_failures = 2;
    /// Modeled cycles per golden vector for domains with no functional
    /// device behind them (shared-queue units are timing-only; worker
    /// devices measure the real modeled cost instead).
    uint64_t self_test_cycles_per_vector = 4000;

    // ---- probation ----

    /// Clean operations required in kProbation before the domain
    /// reintegrates as kHealthy.
    uint64_t probation_ops = 32;
};

/// Per-structure breakdown of one modeled state scrub.
struct ScrubCost
{
    uint64_t adt_buffer_cycles = 0;
    uint64_t context_stack_cycles = 0;
    uint64_t spill_region_cycles = 0;
    uint64_t memloader_cycles = 0;
    uint64_t memwriter_cycles = 0;

    uint64_t
    total() const
    {
        return adt_buffer_cycles + context_stack_cycles +
               spill_region_cycles + memloader_cycles +
               memwriter_cycles;
    }
};

/**
 * Price a full state scrub from the device's actual structure sizes:
 * both units' ADT response buffers, both on-chip context stacks, the
 * DRAM spill region, and the streaming buffers.
 */
ScrubCost ComputeScrubCost(const accel::AccelConfig &accel,
                           const HealthConfig &config);

/// Scrub cost for a domain whose structure sizes are unknown (e.g. a
/// shared-queue unit, which is timing-only): uses a default-configured
/// device's sizes.
ScrubCost ComputeScrubCost(const HealthConfig &config);

/// Observable state of one health domain.
struct HealthSnapshot
{
    HealthState state = HealthState::kHealthy;
    /// EWMA error rate over the most recent observations.
    double error_ewma = 0;
    uint64_t observations = 0;
    /// Error history bucketed by incident kind.
    std::array<uint64_t, kNumIncidentKinds> incidents{};
    uint64_t quarantines = 0;
    uint64_t scrubs_completed = 0;
    uint64_t scrub_cycles = 0;
    uint64_t self_tests_passed = 0;
    uint64_t self_tests_failed = 0;
    uint64_t self_test_cycles = 0;
    uint64_t reintegrations = 0;
    /// Clean ops still required to leave probation (0 elsewhere).
    uint64_t probation_ops_remaining = 0;
    /// True when the domain is not serving traffic (quarantined,
    /// scrubbing, self-testing, or permanently fenced).
    bool fenced_from_traffic = false;

    uint64_t
    total_incidents() const
    {
        uint64_t n = 0;
        for (const uint64_t k : incidents)
            n += k;
        return n;
    }
};

/**
 * The health state machine for one accelerator domain. Not internally
 * synchronized: each domain has a single owner (the worker thread for a
 * private device; the quiescent replay loop for a shared-queue unit),
 * matching the ownership discipline of the other per-worker counters.
 */
class DeviceHealth
{
  public:
    explicit DeviceHealth(const HealthConfig &config) : config_(config) {}

    HealthState state() const { return state_; }

    /// True while the domain may serve traffic (healthy, suspect, or
    /// probation). Everything else is fenced — including a scrub or
    /// self-test that never completed (fail closed).
    bool
    InService() const
    {
        return state_ == HealthState::kHealthy ||
               state_ == HealthState::kSuspect ||
               state_ == HealthState::kProbation;
    }

    /// Observe one clean operation. Decays the EWMA, advances
    /// probation, and may reintegrate kProbation → kHealthy.
    void OnSuccess();

    /**
     * Observe one device-attributable incident.
     *
     * @return true when the domain must be quarantined *now* (the
     *         caller fences it and schedules scrub + self-test); false
     *         when the incident is absorbed (replay-as-usual).
     *         In kProbation any incident quarantines immediately —
     *         that is the reduced-trust contract.
     */
    bool OnIncident(IncidentKind kind);

    /// kQuarantined → kScrubbing. The scrub has *started*; until
    /// CompleteScrub the domain reports fenced (fail closed).
    void BeginScrub();

    /// kScrubbing → kSelfTest, charging the modeled scrub cycles.
    void CompleteScrub(const ScrubCost &cost);

    /**
     * Deliver the self-test verdict (kSelfTest → ...).
     *
     * Pass: kProbation with probation_ops of reduced trust ahead.
     * Fail: kQuarantined again (another scrub + self-test round), or
     * kFenced permanently once max_self_test_failures is reached.
     *
     * @return the new state.
     */
    HealthState CompleteSelfTest(bool passed, uint64_t cycles);

    HealthSnapshot snapshot() const;

    const HealthConfig &config() const { return config_; }

  private:
    void Observe(double error);

    HealthConfig config_;
    HealthState state_ = HealthState::kHealthy;
    double ewma_ = 0;
    uint64_t observations_ = 0;
    std::array<uint64_t, kNumIncidentKinds> incidents_{};
    uint64_t quarantines_ = 0;
    uint64_t scrubs_completed_ = 0;
    uint64_t scrub_cycles_ = 0;
    uint64_t self_tests_passed_ = 0;
    uint64_t self_tests_failed_ = 0;
    uint64_t consecutive_self_test_failures_ = 0;
    uint64_t self_test_cycles_ = 0;
    uint64_t reintegrations_ = 0;
    uint64_t probation_ops_done_ = 0;
};

class AcceleratedBackend;

/**
 * Golden-vector self-test: deterministic request messages are
 * serialized and re-parsed through a device engine and checked against
 * the reference software codec, so a unit that corrupts data (or faults
 * under its injected failure class) is caught before reintegration.
 * Stateless per Run() call — safe to share across workers.
 */
class SelfTester
{
  public:
    /// @p msg_type: pool index of the message type used for vectors
    /// (typically a registered method's request type, so the vectors
    /// exercise the ADTs live traffic uses).
    SelfTester(const proto::DescriptorPool *pool, int msg_type);

    /**
     * Run @p vectors golden round trips through @p device (for a
     * hybrid backend its accel_engine(), so the test exercises the unit
     * and not the software fallback).
     *
     * @param[out] cycles modeled device cycles the test consumed.
     * @return true when every vector serialized byte-identically to the
     *         reference codec and re-parsed to an equivalent message.
     */
    bool Run(AcceleratedBackend *device, uint32_t vectors,
             uint64_t *cycles) const;

  private:
    const proto::DescriptorPool *pool_;
    int msg_type_;
};

}  // namespace protoacc::rpc

#endif  // PROTOACC_RPC_HEALTH_H
