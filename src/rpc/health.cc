#include "rpc/health.h"

#include <vector>

#include "common/check.h"
#include "proto/schema_random.h"
#include "proto/serializer.h"
#include "rpc/codec_backend.h"

namespace protoacc::rpc {

const char *
HealthStateName(HealthState state)
{
    switch (state) {
      case HealthState::kHealthy: return "healthy";
      case HealthState::kSuspect: return "suspect";
      case HealthState::kQuarantined: return "quarantined";
      case HealthState::kScrubbing: return "scrubbing";
      case HealthState::kSelfTest: return "self-test";
      case HealthState::kProbation: return "probation";
      case HealthState::kFenced: return "fenced";
      case HealthState::kNumHealthStates: break;
    }
    return "?";
}

const char *
IncidentKindName(IncidentKind kind)
{
    switch (kind) {
      case IncidentKind::kWatchdogReset: return "watchdog-reset";
      case IncidentKind::kUnitFault: return "unit-fault";
      case IncidentKind::kCrcFailure: return "crc-failure";
      case IncidentKind::kNumIncidentKinds: break;
    }
    return "?";
}

namespace {

/// Cycles to clear a byte-addressed streaming buffer at scrub width.
uint64_t
BufferScrubCycles(uint32_t bytes, uint32_t bytes_per_cycle)
{
    const uint32_t width = bytes_per_cycle == 0 ? 1 : bytes_per_cycle;
    return (bytes + width - 1) / width;
}

ScrubCost
ScrubCostFromSizes(const HealthConfig &config, uint32_t adt_entries,
                   uint32_t stack_entries)
{
    ScrubCost cost;
    cost.adt_buffer_cycles =
        static_cast<uint64_t>(adt_entries) *
        config.scrub_cycles_per_adt_entry;
    cost.context_stack_cycles =
        static_cast<uint64_t>(stack_entries) *
        config.scrub_cycles_per_stack_entry;
    cost.spill_region_cycles =
        static_cast<uint64_t>(config.spill_region_entries) *
        config.scrub_cycles_per_spill_entry;
    cost.memloader_cycles = BufferScrubCycles(
        config.memloader_buffer_bytes, config.scrub_bytes_per_cycle);
    cost.memwriter_cycles = BufferScrubCycles(
        config.memwriter_buffer_bytes, config.scrub_bytes_per_cycle);
    return cost;
}

}  // namespace

ScrubCost
ComputeScrubCost(const accel::AccelConfig &accel,
                 const HealthConfig &config)
{
    // Both units' ADT response buffers and both context stacks must be
    // scrubbed: after a wedge neither side's state can be trusted.
    return ScrubCostFromSizes(
        config,
        accel.deser.adt_buffer_entries + accel.ser.adt_buffer_entries,
        accel.deser.on_chip_stack_depth + accel.ser.on_chip_stack_depth);
}

ScrubCost
ComputeScrubCost(const HealthConfig &config)
{
    return ComputeScrubCost(accel::AccelConfig{}, config);
}

void
DeviceHealth::Observe(double error)
{
    ++observations_;
    ewma_ = config_.ewma_alpha * error +
            (1.0 - config_.ewma_alpha) * ewma_;
}

void
DeviceHealth::OnSuccess()
{
    if (!config_.enabled || !InService())
        return;
    Observe(0.0);
    if (state_ == HealthState::kSuspect &&
        ewma_ < config_.suspect_threshold) {
        state_ = HealthState::kHealthy;
    } else if (state_ == HealthState::kProbation) {
        if (++probation_ops_done_ >= config_.probation_ops) {
            state_ = HealthState::kHealthy;
            ++reintegrations_;
        }
    }
}

bool
DeviceHealth::OnIncident(IncidentKind kind)
{
    if (!config_.enabled)
        return false;
    ++incidents_[static_cast<size_t>(kind)];
    if (!InService())
        return false;  // already fenced; nothing new to decide
    Observe(1.0);
    if (state_ == HealthState::kProbation) {
        // Reduced trust: a domain fresh out of self-test gets no
        // benefit of the doubt — any incident re-quarantines.
        state_ = HealthState::kQuarantined;
        ++quarantines_;
        return true;
    }
    if (observations_ >= config_.min_observations &&
        ewma_ >= config_.quarantine_threshold) {
        state_ = HealthState::kQuarantined;
        ++quarantines_;
        return true;
    }
    if (ewma_ >= config_.suspect_threshold)
        state_ = HealthState::kSuspect;
    return false;
}

void
DeviceHealth::BeginScrub()
{
    PA_CHECK(state_ == HealthState::kQuarantined);
    state_ = HealthState::kScrubbing;
}

void
DeviceHealth::CompleteScrub(const ScrubCost &cost)
{
    PA_CHECK(state_ == HealthState::kScrubbing);
    scrub_cycles_ += cost.total();
    ++scrubs_completed_;
    state_ = HealthState::kSelfTest;
}

HealthState
DeviceHealth::CompleteSelfTest(bool passed, uint64_t cycles)
{
    PA_CHECK(state_ == HealthState::kSelfTest);
    self_test_cycles_ += cycles;
    if (passed) {
        ++self_tests_passed_;
        consecutive_self_test_failures_ = 0;
        probation_ops_done_ = 0;
        // Reintegrate with the error memory partially forgiven: the
        // EWMA restarts below the suspect line so probation successes
        // (not the stale pre-quarantine history) decide what follows.
        ewma_ = 0;
        state_ = HealthState::kProbation;
    } else {
        ++self_tests_failed_;
        if (++consecutive_self_test_failures_ >=
            config_.max_self_test_failures) {
            state_ = HealthState::kFenced;
        } else {
            // Another scrub + self-test round.
            state_ = HealthState::kQuarantined;
            ++quarantines_;
        }
    }
    return state_;
}

HealthSnapshot
DeviceHealth::snapshot() const
{
    HealthSnapshot snap;
    snap.state = state_;
    snap.error_ewma = ewma_;
    snap.observations = observations_;
    snap.incidents = incidents_;
    snap.quarantines = quarantines_;
    snap.scrubs_completed = scrubs_completed_;
    snap.scrub_cycles = scrub_cycles_;
    snap.self_tests_passed = self_tests_passed_;
    snap.self_tests_failed = self_tests_failed_;
    snap.self_test_cycles = self_test_cycles_;
    snap.reintegrations = reintegrations_;
    snap.probation_ops_remaining =
        state_ == HealthState::kProbation
            ? config_.probation_ops - probation_ops_done_
            : 0;
    snap.fenced_from_traffic = !InService();
    return snap;
}

SelfTester::SelfTester(const proto::DescriptorPool *pool, int msg_type)
    : pool_(pool), msg_type_(msg_type)
{
    PA_CHECK_GE(msg_type, 0);
}

bool
SelfTester::Run(AcceleratedBackend *device, uint32_t vectors,
                uint64_t *cycles) const
{
    PA_CHECK(device != nullptr);
    const double cycles_before = device->codec_cycles();
    bool passed = true;
    for (uint32_t v = 0; v < vectors && passed; ++v) {
        // Deterministic golden vector: the seed depends only on the
        // vector index, so every run of the test (and every unit in the
        // fleet) sees the same inputs.
        Rng rng(0x5E1F7E57u + v);
        proto::Arena arena;
        proto::Message golden =
            proto::Message::Create(&arena, *pool_, msg_type_);
        proto::MessageGenOptions gen;
        gen.field_present_prob = 1.0;  // exercise every ADT entry
        proto::PopulateRandomMessage(golden, &rng, gen);
        const std::vector<uint8_t> expect =
            proto::Serialize(golden, nullptr);

        // Serialize through the unit: must match the reference codec
        // byte for byte (a faulted or corrupting unit fails here).
        const std::vector<uint8_t> got = device->Serialize(golden);
        if (!StatusOk(device->last_status()) || got != expect) {
            passed = false;
            break;
        }

        // Deserialize through the unit, then canonicalize with the
        // reference serializer: a unit that drops or mangles fields
        // fails the round trip.
        proto::Message parsed =
            proto::Message::Create(&arena, *pool_, msg_type_);
        if (!StatusOk(
                device->Deserialize(expect.data(), expect.size(),
                                    &parsed)) ||
            proto::Serialize(parsed, nullptr) != expect) {
            passed = false;
        }
    }
    *cycles = static_cast<uint64_t>(device->codec_cycles() -
                                    cycles_before);
    return passed;
}

}  // namespace protoacc::rpc
