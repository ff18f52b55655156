/**
 * @file
 * Pluggable serialization backends for the RPC substrate.
 *
 * A CodecBackend turns Message objects into wire bytes and back while
 * accounting modeled time — either on a CPU cost model (the software
 * protobuf library on riscv-boom / Xeon) or on the protobuf
 * accelerator. Swapping the backend is the experiment of the paper:
 * same application, same RPC framing, different serialization engine.
 */
#ifndef PROTOACC_RPC_CODEC_BACKEND_H
#define PROTOACC_RPC_CODEC_BACKEND_H

#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "cpu/cpu_model.h"
#include "proto/serializer.h"
#include "proto/software_codec.h"
#include "proto/stream_codec.h"

namespace protoacc::rpc {

class AcceleratedBackend;

/// Ops a backend ran on a slower engine than the one it was built
/// for, by cause. Every silent downgrade is counted here.
struct FallbackCounters
{
    /// Hybrid: a device op failed (e.g. an injected unit kill) and was
    /// re-run in software.
    uint64_t accel_fault = 0;
    /// Hybrid: saturation-driven degraded mode — ops executed in
    /// software because the accelerator path was forced off.
    uint64_t forced = 0;
    /// Generated engine: ops run on the table engine because no
    /// emitted codec matched the pool's fingerprint (a schema drifted
    /// from its build-time recipe). Looks like correct behavior, costs
    /// host wall-clock.
    uint64_t generated = 0;
};

/**
 * Abstract serialization engine with cycle accounting. The seam has
 * three groups:
 *
 *  - codec calls: Deserialize, SerializedSize, SerializeTo (Serialize
 *    is their composition), parse limits, last_status and
 *    CreateStreamDecoder;
 *  - accounting: codec_cycles, freq_ghz, host_cost_sink, name and
 *    fallback_counters;
 *  - the device facet: accel_engine(), the accelerator behind the
 *    backend (nullptr for software backends), through which the
 *    runtime reads device state and runs scrubs and self-tests, and
 *    SetForceSoftware.
 */
class CodecBackend
{
  public:
    virtual ~CodecBackend() = default;

    // ---- codec calls ----

    /// Parse @p size bytes at @p data into @p msg. Returns the specific
    /// failure class (common/status.h); StatusCode::kOk on success.
    virtual StatusCode Deserialize(const uint8_t *data, size_t size,
                                   proto::Message *msg) = 0;

    /**
     * Encoded size of @p msg. Charges no modeled cycles: SerializeTo
     * re-runs (and prices) the sizing pass itself, so SerializedSize +
     * SerializeTo is charged exactly what SerializeTo alone is.
     */
    virtual size_t
    SerializedSize(const proto::Message &msg)
    {
        return proto::ByteSize(msg, nullptr);
    }

    /**
     * Serialize @p msg directly into [buf, buf+cap) — the zero-copy
     * response path. Returns bytes written, or 0 when @p cap is
     * insufficient or the engine failed (see last_status()).
     */
    virtual size_t SerializeTo(const proto::Message &msg, uint8_t *buf,
                               size_t cap) = 0;

    /// Serialize @p msg into a fresh buffer: SerializedSize +
    /// SerializeTo, so it costs exactly what they cost. Empty when the
    /// engine failed.
    std::vector<uint8_t>
    Serialize(const proto::Message &msg)
    {
        std::vector<uint8_t> out(SerializedSize(msg));
        out.resize(SerializeTo(msg, out.data(), out.size()));
        return out;
    }

    /// Hostile-input resource bounds applied to every Deserialize.
    /// Zero-valued fields mean unlimited / codec default.
    virtual void SetParseLimits(const ParseLimits &limits)
    {
        limits_ = limits;
    }
    const ParseLimits &parse_limits() const { return limits_; }

    /**
     * Specific failure class of the most recent codec operation, for
     * engines that can fail out-of-band of their return value (the
     * accelerator's serialize path reports 0 bytes and records the
     * cause here); kOk for engines that cannot fail that way.
     */
    StatusCode last_status() const { return last_status_; }

    /**
     * Open an incremental decoder over this backend's software engine
     * for the chunked streaming datapath (rpc/stream.h): wire bytes of
     * one logical message arrive in fixed-budget chunks and complete
     * top-level fields are delivered to @p sink as they finish, so
     * peak memory never scales with the message. Decoded records price
     * their cycles through the backend's cost model exactly like a
     * whole-buffer Deserialize of the same bytes.
     *
     * Returns nullptr for engines with no incremental path — the
     * device-only backend, whose modeled FSU consumes whole in-memory
     * buffers (§3.4's context stack spills to DRAM, it does not
     * stream); the serving runtime routes streams to the software
     * engine there, the same degraded-mode route forced fallback uses.
     */
    virtual std::unique_ptr<proto::StreamDecoder>
    CreateStreamDecoder(const proto::DescriptorPool & /*pool*/,
                        int /*type*/,
                        const proto::StreamCodecLimits & /*limits*/,
                        proto::StreamSink * /*sink*/)
    {
        return nullptr;
    }

    // ---- accounting ----

    /// Modeled cycles spent in serialization/deserialization so far.
    virtual double codec_cycles() const = 0;

    /// Clock for converting cycles to time.
    virtual double freq_ghz() const = 0;

    /**
     * Cost sink pricing host-side per-frame work (the CRC32C integrity
     * check runs on the host core even when the codec proper runs on
     * the device). Software backends expose their CPU model; the
     * accelerated backend returns nullptr — its device computes the
     * frame CRC inline with the streaming (de)serialization, where the
     * added datapath cost is hidden behind the memory reads the FSMs
     * already perform.
     */
    virtual proto::CostSink *host_cost_sink() { return nullptr; }

    virtual const char *name() const = 0;

    /// Downgraded ops by cause; zeros for backends that never degrade.
    virtual FallbackCounters fallback_counters() const { return {}; }

    /// Portion of codec_cycles() spent on the accelerator device (same
    /// clock domain), and its deserializer/serializer split; zeros
    /// without a device. The serving runtime charges the rest to the
    /// worker core instead of the shared accelerator timeline.
    double accel_cycles() const;
    double accel_deser_cycles() const;
    double accel_ser_cycles() const;

    // ---- device facet ----

    /**
     * The accelerator behind this backend: the accelerated backend
     * itself, the device half of a hybrid, nullptr for software-only
     * backends (nothing to health-manage). Device maintenance — state
     * scrubs, golden-vector self-tests, watchdog and job counters —
     * goes through it, never through a hybrid's fallback logic.
     */
    AcceleratedBackend *accel_engine() const { return accel_engine_; }

    /// Degraded mode: route every op to software (saturation shedding
    /// of the accelerator path). No-op for non-hybrid backends.
    virtual void SetForceSoftware(bool /*force*/) {}

  protected:
    explicit CodecBackend(AcceleratedBackend *accel_engine = nullptr)
        : accel_engine_(accel_engine)
    {}

    ParseLimits limits_;
    StatusCode last_status_ = StatusCode::kOk;

  private:
    AcceleratedBackend *accel_engine_ = nullptr;
};

/**
 * Software codec on a CPU cost model.
 *
 * The engine is resolved once, at construction, against the pool the
 * backend serves (proto/software_codec.h): the pool's codec tables or
 * generated codec are built up front, so the first RPC does not pay
 * the one-time cost and the backend never touches lazily built pool
 * state while serving. A generated engine with no emitted code for
 * some type of the pool serves on the table engine instead, and counts
 * every op through the miss (FallbackCounters::generated).
 */
class SoftwareBackend : public CodecBackend
{
  public:
    SoftwareBackend(const cpu::CpuParams &params,
                    const proto::DescriptorPool &pool,
                    proto::SoftwareCodecEngine engine =
                        proto::SoftwareCodecEngine::kTable)
        : model_(params),
          codec_(proto::ResolveSoftwareCodec(engine, pool)),
          downgraded_(codec_.engine != engine),
          name_(model_.params().name +
                proto::SoftwareCodecFor(engine).backend_suffix)
    {}

    StatusCode
    Deserialize(const uint8_t *data, size_t size,
                proto::Message *msg) override
    {
        if (downgraded_)
            ++fallbacks_.generated;
        return proto::ToStatusCode(
            codec_.parse(data, size, msg, &model_, &limits_));
    }

    size_t
    SerializedSize(const proto::Message &msg) override
    {
        return codec_.byte_size(msg, nullptr);
    }

    size_t
    SerializeTo(const proto::Message &msg, uint8_t *buf,
                size_t cap) override
    {
        if (downgraded_)
            ++fallbacks_.generated;
        return codec_.serialize_to(msg, buf, cap, &model_);
    }

    std::unique_ptr<proto::StreamDecoder>
    CreateStreamDecoder(const proto::DescriptorPool &pool, int type,
                        const proto::StreamCodecLimits &limits,
                        proto::StreamSink *sink) override
    {
        return std::make_unique<proto::StreamDecoder>(
            pool, type, codec_, limits, limits_, sink, &model_);
    }

    double codec_cycles() const override { return model_.cycles(); }
    double freq_ghz() const override
    {
        return model_.params().freq_ghz;
    }
    proto::CostSink *host_cost_sink() override { return &model_; }
    const char *name() const override { return name_.c_str(); }
    FallbackCounters fallback_counters() const override
    {
        return fallbacks_;
    }

  private:
    cpu::CpuCostModel model_;
    const proto::SoftwareCodec &codec_;
    /// The generated engine was asked for but the pool has no emitted
    /// codec: every op counts one generated fallback.
    const bool downgraded_;
    std::string name_;
    FallbackCounters fallbacks_;
};

/// The accelerator as a codec engine (one device per endpoint).
class AcceleratedBackend : public CodecBackend
{
  public:
    AcceleratedBackend(const proto::DescriptorPool &pool,
                       const accel::AccelConfig &config = {});

    StatusCode Deserialize(const uint8_t *data, size_t size,
                           proto::Message *msg) override;
    size_t SerializeTo(const proto::Message &msg, uint8_t *buf,
                       size_t cap) override;

    void
    SetParseLimits(const ParseLimits &limits) override
    {
        limits_ = limits;
        device_.deserializer().SetLimits(limits);
    }

    double codec_cycles() const override
    {
        return static_cast<double>(deser_cycles_ + ser_cycles_);
    }
    double freq_ghz() const override { return device_.config().freq_ghz; }
    const char *name() const override { return "riscv-boom-accel"; }

    // ---- the device, reached through CodecBackend::accel_engine() ----

    /// Device jobs issued so far (doorbell occupancy for the shared
    /// accelerator queue replay).
    uint64_t jobs() const { return jobs_; }
    /// Deserializer- and serializer-unit cycles so far; the offloaded
    /// datapath pipelines the two units across a batch's calls, so its
    /// queueing model needs the per-stage totals, not just the sum.
    uint64_t deser_cycles() const { return deser_cycles_; }
    uint64_t ser_cycles() const { return ser_cycles_; }
    /// Device configuration — sizes the modeled state scrub.
    const accel::AccelConfig &config() const { return device_.config(); }
    /// Device watchdog activity (unit resets, replayed jobs).
    accel::WatchdogStats watchdog_stats() const
    {
        return device_.watchdog_stats();
    }
    /**
     * Health-domain state scrub: drop queued jobs and clear all
     * cross-request unit state (ADT response buffers, pipeline
     * context). The modeled cycle cost is charged by the health
     * subsystem (rpc/health.h ComputeScrubCost), not here.
     */
    void ScrubDeviceState() { device_.ScrubUnits(); }

    /// Attach a fault injector to the underlying device (nullptr
    /// detaches); injected unit kills surface as kAccelFault.
    void SetFaultInjector(sim::FaultInjector *injector)
    {
        device_.SetFaultInjector(injector);
    }

    accel::ProtoAccelerator &device() { return device_; }

  private:
    const proto::DescriptorPool &pool_;
    sim::MemorySystem memory_;
    accel::ProtoAccelerator device_;
    proto::Arena adt_arena_;
    accel::AdtBuilder adts_;
    proto::Arena deser_arena_;
    accel::SerArena ser_arena_;
    uint64_t deser_cycles_ = 0;
    uint64_t ser_cycles_ = 0;
    uint64_t jobs_ = 0;
};

/**
 * Degradation-aware engine: the accelerator is primary, the software
 * codec is the fallback. An op falls back when the device faults
 * mid-op (injected unit kill — the op is transparently re-run in
 * software) or when the accelerator path is forced off (saturation
 * shedding via SetForceSoftware). Deterministic parse rejections do NOT
 * fall back: all engines keep identical accept/reject verdicts, so a
 * software retry of malformed input would only burn cycles to reach the
 * same answer.
 *
 * Cycle accounting: codec_cycles() is reported in the accelerator's
 * clock domain; software-fallback cycles are converted by frequency
 * ratio so ns equivalence holds across the mix.
 */
class HybridCodecBackend : public CodecBackend
{
  public:
    HybridCodecBackend(std::unique_ptr<AcceleratedBackend> accel,
                       std::unique_ptr<SoftwareBackend> software)
        : CodecBackend(accel.get()),
          accel_(std::move(accel)),
          software_(std::move(software))
    {}

    StatusCode Deserialize(const uint8_t *data, size_t size,
                           proto::Message *msg) override;
    size_t SerializeTo(const proto::Message &msg, uint8_t *buf,
                       size_t cap) override;

    void
    SetParseLimits(const ParseLimits &limits) override
    {
        limits_ = limits;
        accel_->SetParseLimits(limits);
        software_->SetParseLimits(limits);
    }

    /// Streams run on the hybrid's software half (the device FSU has
    /// no incremental mode), the same route forced fallback takes.
    std::unique_ptr<proto::StreamDecoder>
    CreateStreamDecoder(const proto::DescriptorPool &pool, int type,
                        const proto::StreamCodecLimits &limits,
                        proto::StreamSink *sink) override
    {
        return software_->CreateStreamDecoder(pool, type, limits, sink);
    }

    /// Software cycles converted into the accelerator clock domain, so
    /// cycles / freq_ghz() is the modeled time of the mixed execution.
    double
    codec_cycles() const override
    {
        return accel_->codec_cycles() +
               software_->codec_cycles() *
                   (accel_->freq_ghz() / software_->freq_ghz());
    }
    double freq_ghz() const override { return accel_->freq_ghz(); }

    /// Frame CRCs on the hybrid run on the host core (the fallback's
    /// CPU model prices them); only codec ops ride the device.
    proto::CostSink *host_cost_sink() override
    {
        return software_->host_cost_sink();
    }
    const char *name() const override { return "hybrid-accel-sw"; }

    FallbackCounters
    fallback_counters() const override
    {
        FallbackCounters counters = fallbacks_;
        counters.generated = software_->fallback_counters().generated;
        return counters;
    }

    void SetForceSoftware(bool force) override
    {
        force_software_ = force;
    }

  private:
    std::unique_ptr<AcceleratedBackend> accel_;
    std::unique_ptr<SoftwareBackend> software_;
    FallbackCounters fallbacks_;
    bool force_software_ = false;
};

inline double
CodecBackend::accel_cycles() const
{
    return accel_engine_ != nullptr ? accel_engine_->codec_cycles() : 0;
}

inline double
CodecBackend::accel_deser_cycles() const
{
    return accel_engine_ != nullptr
               ? static_cast<double>(accel_engine_->deser_cycles())
               : 0;
}

inline double
CodecBackend::accel_ser_cycles() const
{
    return accel_engine_ != nullptr
               ? static_cast<double>(accel_engine_->ser_cycles())
               : 0;
}

}  // namespace protoacc::rpc

#endif  // PROTOACC_RPC_CODEC_BACKEND_H
