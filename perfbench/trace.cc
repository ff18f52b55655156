#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

const char *
SpanName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::kCall:
        return "call";
    case SpanKind::kIngress:
        return "rpc.ingress";
    case SpanKind::kDeser:
        return "deserialize";
    case SpanKind::kHandler:
        return "handler";
    case SpanKind::kSize:
        return "serialized_size";
    case SpanKind::kSer:
        return "serialize";
    case SpanKind::kDrain:
        return "rpc.drain";
    case SpanKind::kWindow:
        return "window";
    }
    return "?";
}

SpanBuffer::SpanBuffer(uint32_t thread, size_t capacity)
    : thread_(thread), capacity_(capacity)
{
    spans_.reserve(capacity);
}

uint64_t
SpanBuffer::Record(SpanKind kind, uint32_t call_id, uint64_t start_ns,
                   uint64_t end_ns, uint64_t parent)
{
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return 0;
    }
    // Thread in the high half, 1-based index in the low half: never 0
    // and never a call-root id (bit 63 stays clear).
    const uint64_t id = (uint64_t{thread_} << 32) | (spans_.size() + 1);
    spans_.push_back(Span{id, parent, call_id, kind, start_ns, end_ns});
    return id;
}

void
SpanBuffer::RecordWithId(uint64_t id, SpanKind kind, uint32_t call_id,
                         uint64_t start_ns, uint64_t end_ns,
                         uint64_t parent)
{
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    spans_.push_back(Span{id, parent, call_id, kind, start_ns, end_ns});
}

uint64_t
SelfTimeNs(const Span &span, const std::vector<Span> &children)
{
    const uint64_t duration =
        span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
    std::vector<std::pair<uint64_t, uint64_t>> parts;
    for (const Span &c : children) {
        const uint64_t lo = std::max(c.start_ns, span.start_ns);
        const uint64_t hi = std::min(c.end_ns, span.end_ns);
        if (hi > lo)
            parts.emplace_back(lo, hi);
    }
    std::sort(parts.begin(), parts.end());
    uint64_t covered = 0;
    uint64_t cursor = span.start_ns;
    for (const auto &[lo, hi] : parts) {
        const uint64_t from = std::max(lo, cursor);
        if (hi > from) {
            covered += hi - from;
            cursor = hi;
        }
    }
    return duration - std::min(duration, covered);
}

bool
WriteChromeTrace(const std::string &path,
                 const std::vector<const SpanBuffer *> &buffers,
                 uint64_t origin_ns)
{
    std::unique_ptr<FILE, int (*)(FILE *)> f(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
    if (f == nullptr)
        return false;
    std::fprintf(f.get(), "{\"traceEvents\": [\n");
    bool first = true;
    for (const SpanBuffer *buf : buffers) {
        for (const Span &s : buf->spans()) {
            const double ts =
                static_cast<double>(s.start_ns - origin_ns) / 1e3;
            const double dur =
                static_cast<double>(s.end_ns - s.start_ns) / 1e3;
            std::fprintf(f.get(),
                         "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"call\": %u, \"id\": \"%llx\", "
                         "\"parent\": \"%llx\"}}",
                         first ? "" : ",\n", SpanName(s.kind), buf->thread(),
                         ts, dur, s.call_id,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent));
            first = false;
        }
    }
    std::fprintf(f.get(), "\n]}\n");
    return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
