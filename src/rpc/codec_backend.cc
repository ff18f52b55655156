#include "rpc/codec_backend.h"

#include <algorithm>

namespace protoacc::rpc {

AcceleratedBackend::AcceleratedBackend(const proto::DescriptorPool &pool,
                                       const accel::AccelConfig &config)
    : CodecBackend(this),
      pool_(pool),
      memory_(sim::MemorySystemConfig{}),
      device_(&memory_, config),
      adts_(pool, &adt_arena_),
      ser_arena_(16 << 20)
{
    device_.DeserAssignArena(&deser_arena_);
    device_.SerAssignArena(&ser_arena_);
}

size_t
AcceleratedBackend::SerializeTo(const proto::Message &msg, uint8_t *buf,
                                size_t cap)
{
    if (ser_arena_.bytes_used() > ser_arena_.capacity() / 2) {
        // Applications recycle ser arenas between batches (§4.3); the
        // backend does so when the region fills.
        ser_arena_.Reset();
    }
    const size_t outputs_before = ser_arena_.output_count();
    ++jobs_;
    device_.EnqueueSer(accel::MakeSerJob(
        adts_, msg.descriptor().pool_index(), pool_, msg.raw()));
    uint64_t cycles = 0;
    const accel::AccelStatus st = device_.BlockForSerCompletion(&cycles);
    ser_cycles_ += cycles;
    last_status_ = accel::ToStatusCode(st);
    // A killed unit may retire the job without producing an output
    // region; a degraded device must not abort the process.
    if (st != accel::AccelStatus::kOk ||
        ser_arena_.output_count() == outputs_before)
        return 0;
    // The device writes into its assigned ser arena (§4.3); the single
    // copy out of it stands in for the transport's DMA read of the
    // completed output region.
    const accel::SerArena::Output &out =
        ser_arena_.output(ser_arena_.output_count() - 1);
    if (out.size > cap)
        return 0;
    std::copy_n(out.data, out.size, buf);
    return out.size;
}

StatusCode
AcceleratedBackend::Deserialize(const uint8_t *data, size_t size,
                                proto::Message *msg)
{
    ++jobs_;
    device_.EnqueueDeser(accel::MakeDeserJob(
        adts_, msg->descriptor().pool_index(), pool_, msg->raw(), data,
        size));
    uint64_t cycles = 0;
    const accel::AccelStatus st =
        device_.BlockForDeserCompletion(&cycles);
    deser_cycles_ += cycles;
    last_status_ = accel::ToStatusCode(st);
    return last_status_;
}

size_t
HybridCodecBackend::SerializeTo(const proto::Message &msg, uint8_t *buf,
                                size_t cap)
{
    if (!force_software_) {
        const size_t written = accel_->SerializeTo(msg, buf, cap);
        if (StatusOk(accel_->last_status())) {
            last_status_ = StatusCode::kOk;
            return written;
        }
        ++fallbacks_.accel_fault;
    } else {
        ++fallbacks_.forced;
    }
    last_status_ = StatusCode::kOk;
    return software_->SerializeTo(msg, buf, cap);
}

StatusCode
HybridCodecBackend::Deserialize(const uint8_t *data, size_t size,
                                proto::Message *msg)
{
    if (!force_software_) {
        const StatusCode st = accel_->Deserialize(data, size, msg);
        if (st != StatusCode::kAccelFault) {
            // Success, or a deterministic rejection every engine agrees
            // on — no point re-parsing in software.
            last_status_ = st;
            return st;
        }
        // The unit died mid-job with the destination untouched: re-run
        // the parse on the software codec.
        ++fallbacks_.accel_fault;
    } else {
        ++fallbacks_.forced;
    }
    last_status_ = software_->Deserialize(data, size, msg);
    return last_status_;
}

}  // namespace protoacc::rpc
