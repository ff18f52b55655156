#include "rpc/rpc.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace protoacc::rpc {

namespace {

double
CyclesToNs(double cycles, double freq_ghz)
{
    return cycles / freq_ghz;
}

/// Append an error frame carrying @p code and a human-readable detail
/// payload; returns @p code so call sites can `return AppendError(...)`.
/// @p detail defaults to the code's name; pass a richer string when
/// the failure has call-specific context (e.g. which schema
/// fingerprint was rejected).
StatusCode
AppendError(FrameBuffer *reply, FrameHeader header, StatusCode code,
            const char *detail = nullptr)
{
    if (detail == nullptr)
        detail = StatusCodeName(code);
    header.kind = FrameKind::kError;
    header.status = code;
    header.payload_bytes =
        static_cast<uint32_t>(std::strlen(detail));
    reply->Append(header, reinterpret_cast<const uint8_t *>(detail));
    return code;
}

/// splitmix64 finalizer: the backoff-jitter hash. Counter-based (pure
/// function of its input) so jitter never depends on how many draws
/// other calls or sessions made before this one.
uint64_t
Mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace

void
RpcServer::OpenDedupBatch(const DedupCache::TenantKey *keys,
                          size_t num_keys, const FrameBuffer *reply)
{
    if (dedup_ != nullptr)
        dedup_view_.Open(dedup_, reply, keys, num_keys);
}

void
RpcServer::PublishDedupBatch()
{
    if (dedup_view_.is_open())
        dedup_view_.Publish();
}

StatusCode
RpcServer::HandleFrame(const Frame &frame, FrameBuffer *reply)
{
    if (dedup_ == nullptr || dedup_view_.is_open())
        return Serve(frame, reply);
    // A call outside an open batch (an RpcSession's) is a batch of one.
    const DedupCache::TenantKey key{frame.header.tenant_id,
                                    frame.header.idempotency_key};
    OpenDedupBatch(&key, 1, reply);
    const StatusCode status = Serve(frame, reply);
    PublishDedupBatch();
    return status;
}

StatusCode
RpcServer::Serve(const Frame &frame, FrameBuffer *reply)
{
    PA_CHECK(dedup_ == nullptr || dedup_view_.stream() == reply);
    // Steady-state resource reuse: the previous call's request/response
    // objects are dead (their serialized reply left the arena before
    // this call), so reclaim the blocks instead of growing forever.
    arena_.Reset();

    auto it = methods_.find(frame.header.method_id);
    FrameHeader out_header;
    out_header.call_id = frame.header.call_id;
    out_header.method_id = frame.header.method_id;
    out_header.tenant_id = frame.header.tenant_id;
    out_header.idempotency_key = frame.header.idempotency_key;
    out_header.schema_fp = schema_fp_;

    // Schema negotiation (wire v5): a sender announcing a schema
    // version this server's registry has never seen must get a
    // structured rejection *before* any parse or dedup work — decoding
    // bytes against the wrong schema could misparse silently, which is
    // strictly worse than failing. Fingerprint 0 (legacy,
    // non-negotiating sender) is accepted as the server's own version.
    if (schemas_ != nullptr && frame.header.schema_fp != 0 &&
        !schemas_->Knows(frame.header.schema_fp)) {
        ++schema_rejects_;
        const std::string detail =
            "unknown schema fingerprint " +
            SchemaFingerprintName(frame.header.schema_fp) + " (" +
            std::to_string(schemas_->size()) +
            " versions registered); re-negotiate schema version";
        return AppendError(reply, out_header,
                           StatusCode::kFailedPrecondition,
                           detail.c_str());
    }

    // Exactly-once: a retry of an already-committed call replays the
    // cached response instead of re-executing the handler. Only
    // committed successes are cached (below), so transient failures
    // still re-execute on retry — that is the retry's whole point.
    if (dedup_ != nullptr &&
        frame.header.kind == FrameKind::kRequest &&
        frame.header.idempotency_key != 0) {
        // The probe is priced on whatever sink frames this call's reply
        // — the host model on the software path, the device frame
        // engine when the datapath is offloaded.
        if (reply->cost_sink() != nullptr)
            reply->cost_sink()->OnDedupProbe();
        FrameHeader cached_header;
        std::vector<uint8_t> cached_payload;
        if (dedup_view_.Lookup(frame.header.tenant_id,
                               frame.header.idempotency_key,
                               &cached_header, &cached_payload)) {
            // Re-stamp with this attempt's call id so the client's
            // reply matching works; everything else is the committed
            // answer byte for byte.
            cached_header.call_id = frame.header.call_id;
            reply->Append(cached_header, cached_payload.data());
            return StatusCode::kOk;
        }
    }

    if (it == methods_.end())
        return AppendError(reply, out_header, StatusCode::kUnknownMethod);
    const Method &method = it->second;

    proto::Message request =
        proto::Message::Create(&arena_, *pool_, method.request_type);
    const StatusCode parse_status = backend_->Deserialize(
        frame.payload, frame.header.payload_bytes, &request);
    if (!StatusOk(parse_status))
        return AppendError(reply, out_header, parse_status);

    proto::Message response =
        proto::Message::Create(&arena_, *pool_, method.response_type);
    if (exec_observer_)
        exec_observer_(frame.header.tenant_id,
                       frame.header.idempotency_key);
    method.handler(request, response);

    // Zero-copy response: reserve the frame in the reply stream and
    // serialize straight into it; CommitFrame backpatches
    // payload_bytes.
    const size_t size = backend_->SerializedSize(response);
    out_header.kind = FrameKind::kResponse;
    const size_t reply_start = reply->bytes();
    uint8_t *dst = reply->ReserveFrame(out_header, size);
    const size_t written = backend_->SerializeTo(response, dst, size);
    if (written != size) {
        // The engine failed mid-serialization (e.g. an injected unit
        // kill): withdraw the half-built frame and report the cause.
        reply->CancelFrame();
        StatusCode cause = backend_->last_status();
        if (StatusOk(cause))
            cause = StatusCode::kInternal;
        return AppendError(reply, out_header, cause);
    }
    reply->CommitFrame(written);
    if (dedup_ != nullptr && out_header.idempotency_key != 0) {
        // Remember the committed answer for this key: the payload sits
        // in the reply stream right where we reserved it, and stays
        // there until the batch publishes.
        if (reply->cost_sink() != nullptr)
            reply->cost_sink()->OnDedupProbe();
        out_header.payload_bytes = static_cast<uint32_t>(written);
        dedup_view_.Commit(out_header.tenant_id,
                           out_header.idempotency_key, out_header,
                           reply_start + FrameHeader::kWireBytes, written);
    }
    return StatusCode::kOk;
}

bool
RpcSession::ApplyChannelFault(FrameBuffer *buf)
{
    if (fault_injector_ == nullptr)
        return true;
    switch (fault_injector_->SampleChannelFault()) {
      case sim::ChannelFaultKind::kDrop:
        return false;
      case sim::ChannelFaultKind::kTruncate:
        buf->Truncate(fault_injector_->TruncatedLength(buf->bytes()));
        return true;
      case sim::ChannelFaultKind::kCorrupt:
        fault_injector_->CorruptBytes(buf->mutable_data(), buf->bytes());
        return true;
      case sim::ChannelFaultKind::kNone:
        break;
    }
    return true;
}

StatusCode
RpcSession::CallOnce(uint16_t method_id, uint32_t call_id,
                     uint64_t idempotency_key,
                     const proto::Message &request,
                     proto::Message *response)
{
    ++breakdown_.attempts;

    // Client serializes and frames the request; the frame CRC is
    // stamped by Append and charged (OnCrc) to the client's host cost
    // model inside the same measurement window as the codec work.
    const double client_before = backend_->codec_cycles();
    const std::vector<uint8_t> payload = backend_->Serialize(request);
    if (!StatusOk(backend_->last_status())) {
        breakdown_.client_codec_ns +=
            CyclesToNs(backend_->codec_cycles() - client_before,
                       backend_->freq_ghz());
        return backend_->last_status();
    }

    FrameBuffer to_server;
    to_server.set_crc_enabled(crc_enabled_);
    to_server.SetCostSink(backend_->host_cost_sink());
    FrameHeader header;
    header.call_id = call_id;
    header.method_id = method_id;
    header.kind = FrameKind::kRequest;
    header.payload_bytes = static_cast<uint32_t>(payload.size());
    header.tenant_id = tenant_id_;
    header.idempotency_key = idempotency_key;
    header.schema_fp = schema_fp_;
    to_server.Append(header, payload.data());
    breakdown_.client_codec_ns +=
        CyclesToNs(backend_->codec_cycles() - client_before,
                   backend_->freq_ghz());
    breakdown_.network_ns += channel_.TransferNs(to_server.bytes());
    if (!ApplyChannelFault(&to_server))
        return StatusCode::kUnavailable;  // request lost in flight

    // Server scans the stream — CRC verification happens here, priced
    // on the server's host model — and handles the frame. A mangled
    // stream either fails the integrity check (detected corruption,
    // kDataLoss) or never parses into a frame (from the server's view
    // the request simply never arrived).
    CodecBackend &server_backend = server_->mutable_backend();
    to_server.SetCostSink(server_backend.host_cost_sink());
    const double server_before = server_backend.codec_cycles();
    size_t offset = 0;
    StatusCode scan_error = StatusCode::kOk;
    const std::optional<Frame> frame =
        to_server.Next(&offset, &scan_error);
    if (!frame.has_value()) {
        breakdown_.server_codec_ns +=
            CyclesToNs(server_backend.codec_cycles() - server_before,
                       server_backend.freq_ghz());
        if (scan_error == StatusCode::kDataLoss)
            ++breakdown_.integrity_rejects;
        return StatusOk(scan_error) ? StatusCode::kUnavailable
                                    : scan_error;
    }
    FrameBuffer to_client;
    to_client.set_crc_enabled(crc_enabled_);
    to_client.SetCostSink(server_backend.host_cost_sink());
    (void)server_->HandleFrame(*frame, &to_client);
    breakdown_.server_codec_ns +=
        CyclesToNs(server_backend.codec_cycles() - server_before,
                   server_backend.freq_ghz());
    breakdown_.network_ns += channel_.TransferNs(to_client.bytes());
    if (!ApplyChannelFault(&to_client))
        return StatusCode::kUnavailable;  // reply lost in flight

    // Client decodes the reply frame — verifying its CRC on the client
    // host model — and the structured status on error frames tells it
    // exactly why the call failed (and whether a retry can help).
    to_client.SetCostSink(backend_->host_cost_sink());
    const double deser_before = backend_->codec_cycles();
    size_t reply_offset = 0;
    StatusCode reply_scan_error = StatusCode::kOk;
    const std::optional<Frame> reply =
        to_client.Next(&reply_offset, &reply_scan_error);
    if (!reply.has_value()) {
        breakdown_.client_codec_ns +=
            CyclesToNs(backend_->codec_cycles() - deser_before,
                       backend_->freq_ghz());
        if (reply_scan_error == StatusCode::kDataLoss) {
            ++breakdown_.integrity_rejects;
            if (crc_reject_reporter_)
                crc_reject_reporter_();
        }
        return StatusOk(reply_scan_error) ? StatusCode::kUnavailable
                                          : reply_scan_error;
    }
    if (reply->header.kind == FrameKind::kError) {
        return StatusOk(reply->header.status) ? StatusCode::kInternal
                                              : reply->header.status;
    }
    if (reply->header.kind != FrameKind::kResponse ||
        reply->header.call_id != call_id) {
        return StatusCode::kUnavailable;  // corrupted in flight
    }
    const StatusCode decode_status = backend_->Deserialize(
        reply->payload, reply->header.payload_bytes, response);
    breakdown_.client_codec_ns +=
        CyclesToNs(backend_->codec_cycles() - deser_before,
                   backend_->freq_ghz());
    return decode_status;
}

StatusCode
RpcSession::Call(uint16_t method_id, const proto::Message &request,
                 proto::Message *response)
{
    ++breakdown_.calls;
    // One logical call = one call id = one idempotency key, however
    // many wire attempts it takes: the key (session id in the high
    // half, so concurrent sessions sharing a server never collide) is
    // what the dedup cache recognizes a retry by.
    const uint32_t call_id = next_call_id_++;
    const uint64_t idempotency_key =
        (static_cast<uint64_t>(session_id_) << 32) | call_id;
    const uint32_t max_attempts =
        std::max<uint32_t>(retry_policy_.max_attempts, 1);
    // Retry budget: each completed call earns a fractional token, each
    // retry spends a whole one, so at steady state retries add at most
    // retry_budget_ratio extra load — the client half of retry-storm
    // containment (the server half is the circuit breaker).
    if (retry_policy_.retry_budget_ratio > 0)
        retry_tokens_ =
            std::min(retry_policy_.retry_budget_cap,
                     retry_tokens_ + retry_policy_.retry_budget_ratio);
    double backoff = retry_policy_.initial_backoff_ns;
    StatusCode status = StatusCode::kInternal;
    for (uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
        if (attempt > 0) {
            if (retry_policy_.retry_budget_ratio > 0) {
                if (retry_tokens_ < 1.0) {
                    ++breakdown_.retries_suppressed;
                    break;  // budget empty: fail rather than amplify
                }
                retry_tokens_ -= 1.0;
            }
            // Exponential backoff with uniform jitter: modeled sleep,
            // accumulated into the breakdown rather than slept. The
            // jitter is a counter-based hash of (seed, key, attempt) —
            // deterministic per call, independent of every other
            // call's retry behavior.
            ++breakdown_.retries;
            const uint64_t h = Mix64(
                jitter_seed_ ^ Mix64(idempotency_key + attempt));
            const double unit =
                static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
            const double jitter =
                1.0 +
                retry_policy_.jitter_fraction * (2.0 * unit - 1.0);
            double delay = backoff * jitter;
            if (retry_policy_.max_backoff_ns > 0)
                delay = std::min(delay, retry_policy_.max_backoff_ns);
            breakdown_.backoff_ns += delay;
            backoff *= retry_policy_.backoff_multiplier;
        }
        status = CallOnce(method_id, call_id, idempotency_key, request,
                          response);
        if (StatusOk(status) || !StatusIsRetryable(status))
            break;
    }
    last_error_ = status;
    if (!StatusOk(status))
        ++breakdown_.failures;
    return status;
}

}  // namespace protoacc::rpc
