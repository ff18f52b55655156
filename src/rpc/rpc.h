/**
 * @file
 * A minimal protobuf-RPC substrate: method registry, client/server
 * endpoints with pluggable codec backends, and a simulated network
 * channel — enough to measure, end to end, how much of an RPC's time
 * is serialization (the "datacenter tax" the paper attacks) and what
 * accelerating it buys.
 */
#ifndef PROTOACC_RPC_RPC_H
#define PROTOACC_RPC_RPC_H

#include <atomic>
#include <functional>
#include <map>
#include <memory>

#include "common/rng.h"
#include "rpc/codec_backend.h"
#include "rpc/dedup_cache.h"
#include "rpc/frame.h"
#include "rpc/schema_registry.h"
#include "sim/fault.h"

namespace protoacc::rpc {

/**
 * Simulated network: fixed one-way latency plus bandwidth-limited
 * transfer. Times are nanoseconds so endpoints at different clocks
 * compose.
 */
struct SimulatedChannel
{
    double latency_ns = 10'000;      ///< ~10 µs datacenter RTT/2
    double bytes_per_ns = 12.5;      ///< ~100 Gbit/s

    double
    TransferNs(size_t bytes) const
    {
        return latency_ns + static_cast<double>(bytes) / bytes_per_ns;
    }
};

/// A method's application logic.
using Handler =
    std::function<void(const proto::Message &request,
                       proto::Message response)>;

/**
 * Server endpoint: methods keyed by id, each with request/response
 * message types and a handler. Owns its codec backend.
 */
class RpcServer
{
  public:
    RpcServer(const proto::DescriptorPool *pool,
              std::unique_ptr<CodecBackend> backend)
        : pool_(pool), backend_(std::move(backend))
    {}

    void
    RegisterMethod(uint16_t method_id, int request_type,
                   int response_type, Handler handler)
    {
        methods_[method_id] =
            Method{request_type, response_type, std::move(handler)};
    }

    /**
     * Handle one request frame: deserialize, run the handler,
     * serialize the response in place into @p reply (via
     * ReserveFrame/CommitFrame — no intermediate payload copy).
     *
     * The server arena is Reset() at the start of every call, so
     * request/response objects (and anything a handler stores in them)
     * are valid only for the duration of the call, and steady-state
     * serving performs no per-call arena construction.
     *
     * @return the specific failure class on error (an error frame
     *         carrying the code and a detail string is appended instead
     *         of a response); StatusCode::kOk on success.
     */
    StatusCode HandleFrame(const Frame &frame, FrameBuffer *reply);

    /**
     * Attach a dedup/response cache (nullptr detaches). With a cache,
     * request frames carrying a nonzero idempotency key are looked up
     * before the handler runs: a hit replays the committed response
     * (re-stamped with the retry's call id) without re-executing, and
     * every committed success is inserted. The cache may be shared by
     * many servers (one per runtime worker) — it locks internally.
     */
    void SetDedupCache(DedupCache *cache) { dedup_ = cache; }

    /**
     * Serve the following HandleFrame calls as one dedup batch: probe
     * the cache for @p keys (the batch's frames' tenant and
     * idempotency keys) under one lock, answer the batch's lookups and
     * stage its commits in a DedupCache::View, and publish them with
     * PublishDedupBatch() under one more lock. Every frame of the
     * batch must reply into @p reply, which must keep its bytes until
     * the publish. A call outside a batch is a batch of its own. No-op
     * without a cache.
     */
    void OpenDedupBatch(const DedupCache::TenantKey *keys, size_t num_keys,
                        const FrameBuffer *reply);
    void PublishDedupBatch();

    /**
     * Attach the schema-version registry (nullptr detaches, accepting
     * every fingerprint — the pre-negotiation behavior). With a
     * registry, request frames carrying a nonzero schema fingerprint
     * the registry does not know are rejected kFailedPrecondition
     * before any parse or dedup work: an unknown schema version must
     * become a structured error, never a silent misparse. Fingerprint
     * 0 (non-negotiating legacy sender) is always accepted.
     */
    void SetSchemaRegistry(const SchemaRegistry *registry)
    {
        schemas_ = registry;
    }

    /// Fingerprint of the schema this server itself speaks; stamped
    /// into every response/error frame it writes (0 = unversioned).
    void set_schema_fingerprint(uint64_t fp) { schema_fp_ = fp; }
    uint64_t schema_fingerprint() const { return schema_fp_; }

    /// Requests rejected for an unknown schema fingerprint.
    uint64_t schema_rejects() const { return schema_rejects_; }

    /// Observer invoked once per *handler execution* with the call's
    /// (tenant, idempotency key), after dedup lookup and parse but
    /// before the handler runs. Dedup hits and failed parses do not
    /// fire it, which makes it ground truth for duplicate-execution
    /// detection: a soak harness counting executions per key proves
    /// exactly-once semantics across retries and replays. nullptr
    /// detaches.
    void SetExecObserver(
        std::function<void(uint16_t tenant, uint64_t key)> observer)
    {
        exec_observer_ = std::move(observer);
    }

    const CodecBackend &backend() const { return *backend_; }
    CodecBackend &mutable_backend() { return *backend_; }
    /// Per-call scratch arena (observable for steady-state tests).
    const proto::Arena &arena() const { return arena_; }

  private:
    struct Method
    {
        int request_type;
        int response_type;
        Handler handler;
    };

    /// HandleFrame's body, inside an open dedup batch when a cache is
    /// attached.
    StatusCode Serve(const Frame &frame, FrameBuffer *reply);

    const proto::DescriptorPool *pool_;
    std::unique_ptr<CodecBackend> backend_;
    std::map<uint16_t, Method> methods_;
    proto::Arena arena_;
    DedupCache *dedup_ = nullptr;
    DedupCache::View dedup_view_;
    const SchemaRegistry *schemas_ = nullptr;
    uint64_t schema_fp_ = 0;
    uint64_t schema_rejects_ = 0;
    std::function<void(uint16_t, uint64_t)> exec_observer_;
};

/**
 * Client-side retry policy: exponential backoff with jitter, applied
 * only to transient failures (StatusIsRetryable). max_attempts == 1
 * disables retry.
 */
struct RetryPolicy
{
    uint32_t max_attempts = 1;
    double initial_backoff_ns = 50'000;  ///< first retry delay
    double backoff_multiplier = 2.0;
    /// Uniform jitter: each delay is scaled by 1 ± this fraction.
    double jitter_fraction = 0.25;
    /// Backoff delay ceiling; 0 = uncapped.
    double max_backoff_ns = 0;
    /// Retry budget: tokens earned per completed call (e.g. 0.1 = at
    /// most ~10% extra load from retries at steady state). A retry
    /// spends one token; with an empty budget the call fails instead of
    /// retrying (counted as retries_suppressed). 0 = unlimited retries,
    /// the pre-budget behavior.
    double retry_budget_ratio = 0;
    double retry_budget_cap = 10;  ///< token accumulation ceiling
};

/// Per-session modeled time breakdown.
struct RpcTimeBreakdown
{
    double client_codec_ns = 0;
    double server_codec_ns = 0;
    double network_ns = 0;
    /// Modeled time the client spent sleeping between retry attempts.
    double backoff_ns = 0;
    uint64_t calls = 0;
    /// Wire attempts, including retries (>= calls).
    uint64_t attempts = 0;
    uint64_t retries = 0;
    /// Retries the budget refused: the failure was retryable but the
    /// session was out of retry tokens (storm containment).
    uint64_t retries_suppressed = 0;
    uint64_t failures = 0;
    /// Frames rejected by the CRC integrity check (detected in-flight
    /// corruption; each is an attempt that ended in kDataLoss).
    uint64_t integrity_rejects = 0;

    double
    total_ns() const
    {
        return client_codec_ns + server_codec_ns + network_ns;
    }
    double
    codec_share() const
    {
        const double total = total_ns();
        return total == 0
                   ? 0
                   : (client_codec_ns + server_codec_ns) / total;
    }
};

/**
 * A client session bound to one server over one channel. Call()
 * performs the full round trip and accumulates the time breakdown.
 */
class RpcSession
{
  public:
    RpcSession(const proto::DescriptorPool *pool,
               std::unique_ptr<CodecBackend> client_backend,
               RpcServer *server, SimulatedChannel channel)
        : pool_(pool),
          backend_(std::move(client_backend)),
          server_(server),
          channel_(channel),
          session_id_(NextSessionId())
    {}

    /**
     * Issue one call: serialize @p request, ship it, let the server
     * handle it, ship the response back, deserialize into @p response.
     * Transient failures (lost frames, accelerator faults, overload)
     * are retried per the session's RetryPolicy with exponential
     * backoff and jitter; deterministic rejections are returned
     * immediately. @return the final attempt's status.
     */
    StatusCode Call(uint16_t method_id, const proto::Message &request,
                    proto::Message *response);

    void set_retry_policy(const RetryPolicy &policy)
    {
        retry_policy_ = policy;
    }

    /// Bind this session to an isolation domain: every request frame it
    /// sends carries this tenant id (wire v2), which scopes server-side
    /// admission, scheduling, and dedup. Default 0 (the legacy/anonymous
    /// tenant).
    void set_tenant(uint16_t tenant) { tenant_id_ = tenant; }
    uint16_t tenant() const { return tenant_id_; }

    /// Announce this session's schema version: every request frame it
    /// sends carries this structural fingerprint (wire v5), letting the
    /// server's SchemaRegistry reject versions it has never seen before
    /// any parse. Default 0 = non-negotiating legacy sender.
    void set_schema_fingerprint(uint64_t fp) { schema_fp_ = fp; }
    uint64_t schema_fingerprint() const { return schema_fp_; }

    /// Re-seed the backoff jitter hash (default fixed). Jitter is a
    /// counter-based hash of (seed, idempotency key, attempt) — no
    /// streaming RNG draws — so concurrent sessions and fault-shuffled
    /// retry interleavings cannot perturb each other's delays: same
    /// seed, same per-call jitter, bit-identical replay.
    void set_jitter_seed(uint64_t seed) { jitter_seed_ = seed; }

    /// Attach a channel fault injector (nullptr detaches): each frame
    /// crossing the channel draws one drop/truncate/corrupt sample.
    void SetFaultInjector(sim::FaultInjector *injector)
    {
        fault_injector_ = injector;
    }

    /// Automatic device-incident reporting: invoked once per *response*
    /// frame this session rejects on CRC (kDataLoss on the reply scan).
    /// The server produced that frame, so the reject is attributable to
    /// its device — bind this to ReportDeviceIncident(worker,
    /// kCrcFailure) once and every future reject feeds the health EWMA
    /// without per-event operator wiring. Request-side rejects are
    /// channel corruption of the client's own frame and do not fire it.
    /// nullptr detaches.
    void SetCrcRejectReporter(std::function<void()> reporter)
    {
        crc_reject_reporter_ = std::move(reporter);
    }

    /// Toggle frame CRCs on this session's buffers (on by default):
    /// stamping on the frames it writes, verification on the frames it
    /// scans. Off models the pre-integrity stack for silent-corruption
    /// measurements.
    void set_crc_enabled(bool enabled) { crc_enabled_ = enabled; }

    /// Status of the most recent Call (kOk after a success).
    StatusCode last_error() const { return last_error_; }

    const RpcTimeBreakdown &breakdown() const { return breakdown_; }
    const CodecBackend &backend() const { return *backend_; }
    CodecBackend &mutable_backend() { return *backend_; }

  private:
    /// One wire attempt of a call (no retry). @p call_id and
    /// @p idempotency_key are allocated once per logical call by Call()
    /// and stable across its retries — that stability is what lets the
    /// server-side dedup cache recognize a retry.
    StatusCode CallOnce(uint16_t method_id, uint32_t call_id,
                        uint64_t idempotency_key,
                        const proto::Message &request,
                        proto::Message *response);

    /// Apply one sampled channel fault to an in-flight frame stream.
    /// @return false when the frame was dropped entirely.
    bool ApplyChannelFault(FrameBuffer *buf);

    static uint32_t
    NextSessionId()
    {
        static std::atomic<uint32_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
    }

    const proto::DescriptorPool *pool_;
    std::unique_ptr<CodecBackend> backend_;
    RpcServer *server_;
    SimulatedChannel channel_;
    RpcTimeBreakdown breakdown_;
    RetryPolicy retry_policy_;
    sim::FaultInjector *fault_injector_ = nullptr;
    std::function<void()> crc_reject_reporter_;
    /// Jitter hash seed; counter-based (see set_jitter_seed), so no
    /// draw-order coupling between sessions or retry interleavings.
    uint64_t jitter_seed_ = 0x6a177e5u;
    /// Retry-budget token bucket (see RetryPolicy::retry_budget_ratio).
    double retry_tokens_ = 0;
    StatusCode last_error_ = StatusCode::kOk;
    uint32_t next_call_id_ = 1;
    /// Process-unique (from a static counter): the high half of every
    /// idempotency key, so keys never collide across sessions sharing
    /// one server's dedup cache.
    uint32_t session_id_;
    /// Isolation domain stamped into every request frame this session
    /// sends (see set_tenant).
    uint16_t tenant_id_ = 0;
    /// Schema fingerprint stamped into every request frame (wire v5).
    uint64_t schema_fp_ = 0;
    bool crc_enabled_ = true;
};

}  // namespace protoacc::rpc

#endif  // PROTOACC_RPC_RPC_H
