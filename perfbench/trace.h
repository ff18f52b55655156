/**
 * @file
 * Benchmark-side spans for the traced run.
 *
 * Spans are recorded by benchmark code only — the driver around
 * SubmitFromStream and Drain, the handler, and the probe backends
 * around Deserialize / SerializedSize / SerializeTo — into
 * preallocated per-thread buffers that are written out as Chrome
 * trace-event JSON when the run ends. A span carries the call id it
 * belongs to (0 for driver-level spans), its start, its end and its
 * parent. Every call's stages hang off one root span per call whose id
 * is derived from the call id, so spans recorded on different threads
 * join without a lookup table.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanKind : uint8_t {
    kCall,     ///< root: submit start to response serialized
    kIngress,  ///< driver: SubmitFromStream
    kDeser,    ///< worker: backend Deserialize
    kHandler,  ///< worker: the method handler
    kSize,     ///< worker: backend SerializedSize
    kSer,      ///< worker: backend SerializeTo
    kDrain,    ///< driver: Drain
    kWindow,   ///< driver: one preloaded serve_accel window
};

const char *SpanName(SpanKind kind);

struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 for a root span
    uint32_t call_id = 0;
    SpanKind kind = SpanKind::kCall;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
};

/// Id of call @p call_id's root span (disjoint from buffer-issued ids).
inline uint64_t
CallSpanId(uint32_t call_id)
{
    return (uint64_t{1} << 63) | call_id;
}

/**
 * One thread's span store. The capacity is reserved up front so
 * recording never allocates; spans past it are counted, not kept.
 */
class SpanBuffer
{
  public:
    SpanBuffer(uint32_t thread, size_t capacity);

    /// Record a span; returns its id (0 when the buffer is full).
    uint64_t Record(SpanKind kind, uint32_t call_id, uint64_t start_ns,
                    uint64_t end_ns, uint64_t parent);
    /// Record a span under a caller-chosen id (call roots).
    void RecordWithId(uint64_t id, SpanKind kind, uint32_t call_id,
                      uint64_t start_ns, uint64_t end_ns, uint64_t parent);

    uint32_t thread() const { return thread_; }
    const std::vector<Span> &spans() const { return spans_; }
    uint64_t dropped() const { return dropped_; }

  private:
    uint32_t thread_;
    size_t capacity_;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
};

/**
 * Self time of @p span: its duration minus the part of that interval
 * its children cover (overlapping children are counted once, parts
 * outside the parent are ignored).
 */
uint64_t SelfTimeNs(const Span &span, const std::vector<Span> &children);

/**
 * Write @p buffers as Chrome trace-event JSON ("X" events, one track
 * per thread, times relative to @p origin_ns). Returns false when the
 * file cannot be written.
 */
bool WriteChromeTrace(const std::string &path,
                      const std::vector<const SpanBuffer *> &buffers,
                      uint64_t origin_ns);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
