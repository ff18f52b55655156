/**
 * @file
 * Frame engine: the on-device framing/CRC/dedup stage of the offloaded
 * RPC datapath.
 *
 * With the host-path serving stack, the accelerator only does proto
 * (de)serialization; every request still burns host cycles on frame
 * header parsing, CRC32C verify/stamp, dedup-key probing and
 * error-frame synthesis. This engine models the RPCAcc-style fix: a
 * hardware stage sitting between the wire and the (de)serializer units
 * that performs that framing work on the device — header fields are
 * extracted combinationally, the CRC runs over a wide datapath inline
 * with the streaming bytes, and the dedup probe hits a device-resident
 * mirror of the response cache's key set.
 *
 * Functionally nothing changes: the same FrameBuffer code parses and
 * stamps the same bytes, and the same DedupCache answers the same
 * probes — the engine is a proto::CostSink, so attaching it to the
 * ingress/reply buffers *reprices* the framing work at device rates
 * (and into device time) instead of host cycles. That keeps the
 * differential guarantee trivial to state: the offload path is
 * byte-identical on the wire because it runs the identical functional
 * code; only the cost accounting and the queueing model move.
 *
 * Single-owner, like the per-worker counters it sits next to: each
 * runtime worker owns one engine (its shard of the frame-engine
 * pipeline), so accumulation needs no synchronization.
 */
#ifndef PROTOACC_ACCEL_FRAME_ENGINE_H
#define PROTOACC_ACCEL_FRAME_ENGINE_H

#include <cstddef>
#include <cstdint>

#include "proto/cost_sink.h"

namespace protoacc::accel {

/// Cycle rates of the frame-engine datapath (device clock domain — the
/// same clock as AccelConfig::freq_ghz).
struct FrameEngineTiming
{
    /// Header parse or stamp: the 28-byte fixed header is one
    /// combinational field extract/insert plus the version/kind/length
    /// checks — a single pipeline stage, vs the branchy byte-poking a
    /// core does.
    uint32_t header_cycles = 1;
    /// CRC32C datapath priming per frame (one fold-register load).
    uint32_t crc_setup_cycles = 1;
    /// Wide folded CRC32C datapath, bytes per cycle: a 512-bit slice,
    /// the width line-rate NIC MACs run their FCS at (cores with CRC32
    /// instructions manage ~8 bytes/cycle).
    double crc_bytes_per_cycle = 64.0;
    /// Probe of the device-resident dedup-key mirror (hash + one
    /// single-cycle SRAM/CAM read), or the insert updating it on the
    /// commit path.
    uint32_t dedup_probe_cycles = 2;
    /// Error-frame synthesis premium for reject paths (status lookup +
    /// detail-string fetch), on top of the header/CRC the error frame
    /// pays like any other frame.
    uint32_t error_frame_cycles = 4;
    /// Stream bookkeeping per v4 stream frame: subheader extract,
    /// offset/window compare, running-CRC fold-register swap. One extra
    /// stage over a unary frame — the chunk payload CRC itself still
    /// rides the wide crc_bytes_per_cycle datapath.
    uint32_t stream_ctrl_cycles = 2;
};

/**
 * Accumulates modeled device cycles for the framing work routed
 * through it. Attach to a FrameBuffer (SetCostSink) and to the
 * server's dedup probes; read cycles() deltas per batch to ride the
 * frame-engine time on the device timeline.
 */
class FrameEngine : public proto::CostSink
{
  public:
    struct Stats
    {
        uint64_t frame_headers = 0;
        uint64_t crc_ops = 0;
        uint64_t crc_bytes = 0;
        uint64_t dedup_probes = 0;
        uint64_t error_frames = 0;
        /// v4 stream data chunks priced through the engine.
        uint64_t stream_chunks = 0;
        uint64_t stream_chunk_bytes = 0;
        /// v4 stream control frames (BEGIN/END/CANCEL/CREDIT).
        uint64_t stream_ctrl_frames = 0;
    };

    void
    OnCrc(size_t bytes) override
    {
        cycles_ += timing_.crc_setup_cycles +
                   static_cast<double>(bytes) /
                       timing_.crc_bytes_per_cycle;
        ++stats_.crc_ops;
        stats_.crc_bytes += bytes;
    }
    void
    OnFrameHeader() override
    {
        cycles_ += timing_.header_cycles;
        ++stats_.frame_headers;
    }
    void
    OnDedupProbe() override
    {
        cycles_ += timing_.dedup_probe_cycles;
        ++stats_.dedup_probes;
    }

    /// Price one inbound frame of @p frame_bytes (header + payload) as
    /// the engine pulls it off the wire: header parse/validate plus
    /// the streaming CRC verify. Used when the ingress scan's
    /// functional verify ran elsewhere (the submitter) but the work
    /// belongs on the device.
    void
    ChargeIngressFrame(size_t frame_bytes)
    {
        OnFrameHeader();
        OnCrc(frame_bytes);
    }

    /// One reject-path error frame was synthesized (its header/CRC
    /// charges arrive via the sink hooks like any frame; this adds the
    /// synthesis premium).
    void
    ChargeErrorFrame()
    {
        cycles_ += timing_.error_frame_cycles;
        ++stats_.error_frames;
    }

    /// Price one v4 stream data chunk of @p chunk_bytes payload: the
    /// ingress header/CRC work plus the stream-bookkeeping stage
    /// (offset check, window update, running-CRC fold).
    void
    ChargeStreamChunk(size_t chunk_bytes)
    {
        ChargeIngressFrame(chunk_bytes);
        cycles_ += timing_.stream_ctrl_cycles;
        ++stats_.stream_chunks;
        stats_.stream_chunk_bytes += chunk_bytes;
    }

    /// Price one v4 stream control frame (BEGIN/END/CANCEL/CREDIT) of
    /// @p subheader_bytes payload.
    void
    ChargeStreamControl(size_t subheader_bytes)
    {
        ChargeIngressFrame(subheader_bytes);
        cycles_ += timing_.stream_ctrl_cycles;
        ++stats_.stream_ctrl_frames;
    }

    /// Accumulated device cycles.
    double cycles() const { return cycles_; }
    const Stats &stats() const { return stats_; }

    void
    Reset()
    {
        cycles_ = 0;
        stats_ = Stats{};
    }

  private:
    FrameEngineTiming timing_;
    double cycles_ = 0;
    Stats stats_;
};

}  // namespace protoacc::accel

#endif  // PROTOACC_ACCEL_FRAME_ENGINE_H
