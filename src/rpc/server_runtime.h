/**
 * @file
 * Concurrent batched RPC serving runtime.
 *
 * The single-threaded RpcServer handles one call at a time; this
 * runtime is the saturated-serving scenario the paper motivates (§1):
 * incoming request frames are sharded across N worker threads (MPSC
 * submission queues), each worker owning a full RpcServer — its codec
 * backend, its per-call-Reset() arena, its append-only reply stream —
 * so the steady-state path performs zero per-call arena constructions
 * and zero intermediate payload copies (responses are serialized in
 * place via FrameBuffer::ReserveFrame/CommitFrame).
 *
 * Two timing regimes, both tracked on per-worker virtual timelines:
 *
 *  - software backends: each worker models one core running the codec,
 *    so a call's modeled latency is its codec service time and modeled
 *    throughput scales with workers;
 *  - accelerated backends + a SharedAccelQueue: every worker's batch of
 *    (de)serialization jobs contends for the shared accelerator units
 *    through the doorbell/completion queue, so modeled latency includes
 *    queueing delay under load and throughput saturates at the unit
 *    count. Workers record each batch's measured service time while
 *    executing, and Drain() replays the recorded batches onto the
 *    shared timeline as a closed-loop event simulation (earliest
 *    worker clock submits next, ties to the lowest worker index) — so
 *    the contention numbers are deterministic, independent of host
 *    thread scheduling.
 *
 * Wall-clock throughput (real threads, real codec execution) and the
 * modeled numbers are reported side by side by bench/rpc_throughput.
 */
#ifndef PROTOACC_RPC_SERVER_RUNTIME_H
#define PROTOACC_RPC_SERVER_RUNTIME_H

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "accel/frame_engine.h"
#include "accel/shared_queue.h"
#include "rpc/dedup_cache.h"
#include "rpc/health.h"
#include "rpc/rpc.h"
#include "rpc/stream.h"
#include "rpc/tenant.h"
#include "sim/fault.h"

namespace protoacc::rpc {

/// Full RPC offload datapath: a frame engine (accel/frame_engine.h)
/// fronts the codec units, so header parse/validate, CRC verify/stamp,
/// dedup probes and error-frame synthesis are priced at device rates
/// into device time — zero framing charges reach the host cost sink —
/// and batches ride the shared queue's pipelined descriptor-ring path
/// (SubmitOffloadBatch) instead of the host-fenced doorbell.
struct OffloadConfig
{
    bool enabled = false;
};

/// Runtime-wide configuration.
struct RuntimeConfig
{
    uint32_t num_workers = 1;
    /// Max frames a worker drains from its inbox per wakeup; with a
    /// shared accelerator the whole drained batch is one doorbell batch
    /// (§3.5 batching amortizes the fence).
    uint32_t max_batch = 16;
    /// Shared accelerator contention model; nullptr = per-core codec
    /// (software backends, or one private accelerator per worker).
    accel::SharedAccelQueue *shared_accel = nullptr;
    /// Keep response frames in the per-worker reply streams. Disable
    /// for long throughput runs (replies are still fully serialized;
    /// the stream is just recycled between batches).
    bool record_replies = true;

    // ---- robustness / degraded-mode serving ----

    /// Hostile-input resource bounds, applied to every worker backend
    /// at construction (zero fields = unlimited / codec default).
    ParseLimits parse_limits;

    /// Per-call modeled deadline, ns; 0 disables. Calls whose modeled
    /// latency exceeds it are counted (the client gave up — in the
    /// model the reply still exists, but the work was wasted).
    double deadline_ns = 0;

    /// Admission control: Submit sheds (kOverloaded) when the target
    /// worker's modeled backlog wait — pending calls x the worker's
    /// EWMA per-call service estimate (seeded at 2 us before any batch
    /// completes) — exceeds this, ns; 0 disables.
    double admission_max_wait_ns = 0;

    /// Saturation fallback: when > 0 and a worker's residual inbox
    /// backlog (frames left after it drained a batch) exceeds this,
    /// the worker serves its next batch with the accelerator path
    /// forced off (HybridCodecBackend degrades to software); the
    /// backlog recovering re-enables the accelerator. 0 disables.
    uint32_t saturation_fallback_backlog = 0;

    // ---- exactly-once / crash recovery ----

    /// Capacity of the runtime-wide dedup/response cache shared by all
    /// workers (exactly-once retries — see rpc/dedup_cache.h); 0
    /// disables dedup.
    size_t dedup_capacity = 0;

    /// Retry horizon of the dedup cache, in insertions (see
    /// DedupConfig::retry_horizon): entries older than this can no
    /// longer be retried and are expired first. 0 = pure FIFO.
    uint64_t dedup_retry_horizon = 0;

    /// Crash injector consulted after every completed call
    /// (ShouldKillWorker events — deterministic, call-count-based).
    /// Not owned; must outlive the runtime. nullptr disables.
    sim::FaultInjector *fault_injector = nullptr;

    // ---- device health domains ----

    /// Health state machines over every worker's private accelerator
    /// and every shared-queue unit (rpc/health.h): quarantine, state
    /// scrub, background self-test, probationary reintegration.
    /// Disabled by default — every incident then replays as before and
    /// nothing is ever fenced.
    HealthConfig health;

    // ---- offloaded RPC datapath ----

    /// Frame-engine offload (see OffloadConfig). Off by default: the
    /// pre-offload host-path behavior, bit for bit.
    OffloadConfig offload;

    // ---- schema evolution / wire negotiation ----

    /// Schema-version registry consulted by every worker's server
    /// before any parse or dedup work (see RpcServer::
    /// SetSchemaRegistry): a request whose frame carries a fingerprint
    /// the registry has never seen gets a structured
    /// kFailedPrecondition error frame, never a misparse. Not owned;
    /// must outlive the runtime. nullptr disables (all fingerprints
    /// accepted — the pre-registry behavior).
    const SchemaRegistry *schema_registry = nullptr;

    /// Fingerprint of the schema this runtime serves; stamped into
    /// every reply frame so clients can detect server-side version
    /// changes (0 = unversioned legacy server).
    uint64_t schema_fingerprint = 0;

    /// Price the per-frame ingress framing work (header parse + CRC
    /// verify) on the serving path: charged to the worker's host model
    /// (host path) so it lands in modeled latency, or to the device
    /// frame engine (offload — implied, this flag is then redundant).
    /// Off by default: ingress pricing stays wherever the caller
    /// attached the ingress buffer's cost sink, as before.
    bool charge_ingress_framing = false;

    // ---- multi-tenant serving & overload control ----

    /// Per-tenant serving contracts (rpc/tenant.h). The tenant layer
    /// engages when any of: this list is non-empty, the breaker is
    /// enabled, brownout is configured, or a DWRR quantum is set —
    /// otherwise Submit runs the exact pre-tenant pipeline (zero
    /// overhead, bit-identical modeled numbers).
    std::vector<TenantConfig> tenants;

    /// Retry-storm circuit breaker over every tenant's admission
    /// window (submission-count driven; deterministic).
    BreakerConfig breaker;

    /// Brownout shedding of low-priority non-SLO tenants under global
    /// backlog pressure.
    BrownoutConfig brownout;

    /// DWRR quantum, in accelerator cycles, for weighted-fair
    /// scheduling of contended shared-accelerator batches at Drain()
    /// replay. 0 keeps the pure earliest-vclock (FIFO) replay order.
    uint64_t dwrr_quantum_cycles = 0;

    /// Priority-aware batch formation: before a worker grabs its next
    /// batch it stable-sorts its inbox by tenant priority (descending),
    /// so high-priority frames jump low-priority backlog *within* the
    /// worker while same-priority frames keep FIFO order. This is the
    /// CPU-stage complement to device-stage DWRR — without it a gold
    /// batch still queues behind the hostile batch its own worker just
    /// grabbed (head-of-line blocking DWRR cannot see). Off by default:
    /// the FIFO grab keeps the crash-recovery invariant that a stranded
    /// set is a submission-order suffix; with priority batching that
    /// invariant weakens to a *grab-order* suffix, which is still
    /// deterministic under the windowed preload-submit pattern but not
    /// under concurrent submit-while-running with worker kills.
    bool priority_batching = false;
};

/// One completed call's modeled latency, tagged with its isolation
/// domain so per-tenant percentiles can be computed from one run.
struct CallRecord
{
    uint16_t tenant = 0;
    double latency_ns = 0;
};

/// One worker's counters, observed while the runtime is quiescent.
struct WorkerSnapshot
{
    uint64_t calls = 0;
    uint64_t failures = 0;
    uint64_t batches = 0;
    /// Failures bucketed by StatusCode (indexed by the code's value).
    std::array<uint64_t, kNumStatusCodes> failures_by_code{};
    /// Requests shed by admission control (never entered the inbox).
    uint64_t shed = 0;
    /// Calls whose modeled latency exceeded the configured deadline.
    uint64_t deadline_exceeded = 0;
    /// Hybrid-backend fallback accounting (zeros for other backends).
    uint64_t fallback_accel_fault = 0;
    uint64_t fallback_forced = 0;
    /// Generated-engine ops downgraded to the table engine when no
    /// linked codec covers the whole pool (zeros for other backends).
    uint64_t generated_fallbacks = 0;
    /// Requests rejected for an unknown schema fingerprint (zeros when
    /// no SchemaRegistry is attached).
    uint64_t schema_rejects = 0;
    /// Worker's virtual timeline position (modeled busy time).
    double vclock_ns = 0;
    /// Modeled codec cycles accumulated by the worker's backend.
    double codec_cycles = 0;
    /// The accelerator-unit share of codec_cycles (deser + ser device
    /// cycles). codec_cycles - accel_codec_cycles is the host-model
    /// residue — with a hybrid backend that never falls back, it is
    /// exactly the framing/CRC/dedup work priced on the host.
    double accel_codec_cycles = 0;
    /// Arena steady-state facts (blocks stays 1 once warmed up).
    size_t arena_blocks = 0;
    size_t arena_bytes_reserved = 0;
    /// Payload memcpys in the reply stream (zero-copy path keeps 0).
    uint64_t reply_payload_copies = 0;
    /// True when an injected crash killed this worker (its un-acked
    /// frames were re-dispatched to survivors at Drain).
    bool crashed = false;
    /// Device watchdog activity on this worker's backend.
    uint64_t watchdog_resets = 0;
    uint64_t watchdog_replayed_jobs = 0;
    /// Health domain of this worker's private accelerator (default
    /// state when health is disabled or the backend is software-only).
    HealthSnapshot device_health;
    /// Frame-engine (offloaded framing stage) activity; all zeros when
    /// the offload datapath is disabled.
    double frame_engine_cycles = 0;
    accel::FrameEngine::Stats frame_engine;
};

/// Aggregate runtime counters.
struct RuntimeSnapshot
{
    uint64_t calls = 0;
    uint64_t failures = 0;
    /// Failures bucketed by StatusCode across all workers.
    std::array<uint64_t, kNumStatusCodes> failures_by_code{};
    /// Requests shed by admission control.
    uint64_t shed = 0;
    /// Calls whose modeled latency exceeded the deadline.
    uint64_t deadline_exceeded = 0;
    /// Ops degraded to the software codec, by cause.
    uint64_t fallback_accel_fault = 0;
    uint64_t fallback_forced = 0;
    /// Ops a generated-engine backend ran on the table engine because
    /// no emitted codec matched the pool's fingerprint — a silent tier
    /// downgrade (schema drifted from its build recipe) made visible.
    uint64_t generated_fallbacks = 0;
    /// Requests rejected across all workers because their frames
    /// carried a schema fingerprint the attached SchemaRegistry has
    /// never seen (structured kFailedPrecondition, never a misparse).
    uint64_t schema_rejects = 0;
    /// Arena objects constructed since Start — one per worker, never
    /// per call (the steady-state reuse guarantee).
    uint64_t arena_constructions = 0;
    /// Modeled makespan: slowest worker's virtual timeline.
    double modeled_span_ns = 0;
    /// Exactly-once accounting (zeros when dedup_capacity == 0).
    uint64_t dedup_hits = 0;
    uint64_t dedup_insertions = 0;
    uint64_t dedup_evictions = 0;
    /// Frames rejected by SubmitFromStream's CRC check (kDataLoss).
    uint64_t crc_rejects = 0;
    /// Crash recovery: injected worker deaths and the un-acked frames
    /// Drain() re-dispatched to surviving workers.
    uint64_t workers_crashed = 0;
    uint64_t redispatched_frames = 0;
    /// Watchdog activity: per-worker device resets/replays summed, plus
    /// shared-queue resets when a shared accelerator is configured.
    uint64_t watchdog_resets = 0;
    uint64_t watchdog_replayed_jobs = 0;
    /// Device-health aggregates across every domain (worker devices
    /// plus shared-queue units); zeros when health is disabled.
    uint64_t health_quarantines = 0;
    uint64_t health_scrubs_completed = 0;
    uint64_t health_scrub_cycles = 0;
    uint64_t health_self_tests_passed = 0;
    uint64_t health_self_tests_failed = 0;
    uint64_t health_self_test_cycles = 0;
    uint64_t health_reintegrations = 0;
    /// Domains currently fenced from traffic — quarantined, mid-scrub,
    /// mid-self-test, or permanently fenced (fail-closed: an
    /// interrupted scrub still counts).
    uint32_t health_fenced_domains = 0;
    /// Per-unit health domains behind the shared accelerator queue
    /// (empty when health is disabled or no shared queue is attached).
    std::vector<HealthSnapshot> shared_units;
    /// Dedup eviction-policy detail (see DedupCache::Stats).
    uint64_t dedup_unsafe_evictions = 0;
    uint64_t dedup_expired = 0;
    /// True when the dedup cache was rebuilt from a snapshot.
    bool dedup_restored = false;
    /// Offload datapath aggregates across workers (zeros when the
    /// frame-engine offload is disabled): frames framed/parsed, CRC
    /// ops, dedup probes and error frames synthesized on-device, and
    /// the device cycles they cost.
    uint64_t offload_frame_headers = 0;
    uint64_t offload_crc_ops = 0;
    uint64_t offload_dedup_probes = 0;
    uint64_t offload_error_frames = 0;
    double offload_frame_cycles = 0;
    /// Per-tenant contracts, counters and breaker states, id-sorted
    /// (empty when the tenant layer is disengaged). shed above includes
    /// every tenant-layer shed; the per-cause split lives here.
    std::vector<TenantSnapshot> tenants;
    std::vector<WorkerSnapshot> workers;
    /// Stream-buffer memory gauge (rpc/stream.h): bytes currently
    /// reserved by live streams and the high-water mark (zeros when no
    /// stream receiver is attached).
    size_t stream_buffer_bytes = 0;
    size_t stream_buffer_peak_bytes = 0;
    /// Peak-memory high-water mark of the runtime's data buffers:
    /// worker arena reservations (arenas only grow, so bytes_reserved
    /// is itself a high-water mark) plus the stream-buffer peak.
    size_t peak_memory_bytes = 0;
    /// v4 stream frames routed to the attached stream receiver.
    uint64_t stream_frames = 0;

    /// Modeled queries/sec across the pool of workers.
    double
    modeled_qps() const
    {
        return modeled_span_ns > 0
                   ? static_cast<double>(calls) /
                         (modeled_span_ns * 1e-9)
                   : 0;
    }
};

/**
 * Thread-pool serving runtime: shards request frames across per-worker
 * RpcServers and tracks modeled time per worker.
 *
 * Lifecycle: construct → RegisterMethod()* → Start() → Submit()* /
 * Drain() → Shutdown() (or destruction). Snapshot(), replies() and
 * TakeLatencies() must only be called while quiescent (after Drain()
 * with no concurrent Submit), mirroring how a load generator reads its
 * counters between measurement windows.
 */
class RpcServerRuntime
{
  public:
    /// Builds one codec backend per worker (cycle accounting must be
    /// thread-local, so backends cannot be shared).
    using BackendFactory =
        std::function<std::unique_ptr<CodecBackend>(uint32_t worker)>;

    RpcServerRuntime(const proto::DescriptorPool *pool,
                     const BackendFactory &factory,
                     const RuntimeConfig &config);
    ~RpcServerRuntime();

    RpcServerRuntime(const RpcServerRuntime &) = delete;
    RpcServerRuntime &operator=(const RpcServerRuntime &) = delete;

    /// Register a method on every worker's server. Handlers run
    /// concurrently on worker threads: they must be thread-safe.
    /// Call before Start().
    void RegisterMethod(uint16_t method_id, int request_type,
                        int response_type, const Handler &handler);

    /// Spawn the worker threads.
    void Start();

    /// Enqueue one request frame; the payload is copied into the
    /// owning worker's submission queue (sharded by call id; a dead
    /// home worker reroutes to the next surviving one). May be
    /// called before Start() to pre-load a backlog (which also makes
    /// worker batch boundaries — inbox drains — deterministic).
    /// @return kOverloaded when admission control shed the request
    ///         (the frame was NOT enqueued; the client should back off
    ///         and retry), kUnavailable when every worker is dead,
    ///         kOk otherwise.
    ///
    /// @p arrival_ns is the modeled arrival time feeding the tenant
    /// layer's token buckets (ignored when no tenant has a bucket).
    /// Callers replaying an open-loop trace pass the trace clock;
    /// the default keeps closed-loop callers bucket-exempt.
    StatusCode Submit(const FrameHeader &header, const uint8_t *payload,
                      double arrival_ns = 0);

    /**
     * Server-side ingress decode path: scan the next frame out of
     * @p ingress (verifying its CRC — attach the ingress buffer's cost
     * sink to price it) and Submit it.
     *
     * @return Submit's result for a good frame; kDataLoss when the
     *         frame failed its integrity check (counted in the
     *         snapshot's crc_rejects; the scan continues behind it);
     *         kUnimplemented for a foreign frame version (framing
     *         cannot be resynchronized, so @p offset is consumed to
     *         the end); kUnavailable when the remainder is truncated
     *         (@p offset is consumed to the end — the tail is lost);
     *         kOk with @p offset unchanged when the stream is
     *         exhausted.
     */
    StatusCode SubmitFromStream(const FrameBuffer &ingress,
                                size_t *offset, double arrival_ns = 0);

    /// Block until every submitted frame has been handled or its
    /// worker died; re-dispatch dead workers' un-acked frames to
    /// survivors (repeating until everything drained — requeued frames
    /// respect the dedup cache, so an already-committed call replays
    /// its cached response instead of re-executing); then (with a
    /// shared accelerator) replay the recorded batches onto the shared
    /// timeline to produce deterministic modeled latencies.
    void Drain();

    /// Stop accepting work, drain inboxes, join workers. Idempotent
    /// and safe to call concurrently; a Shutdown() → Start() cycle
    /// resumes the surviving workers with all counters intact.
    void Shutdown();

    uint32_t num_workers() const;

    /// A worker's reply stream (quiescent only).
    const FrameBuffer &replies(uint32_t worker) const;

    /// Aggregate counters (quiescent only).
    RuntimeSnapshot Snapshot() const;

    /// Move out all recorded per-call modeled latencies, ns
    /// (quiescent only; clears the recording).
    std::vector<double> TakeLatencies();

    /// Move out the tenant-tagged per-call records (quiescent only;
    /// clears the recording — an alternative view of the same data
    /// TakeLatencies() returns, for per-tenant percentile extraction).
    std::vector<CallRecord> TakeCallRecords();

    /// Install @p observer on every worker's server (see
    /// RpcServer::SetExecObserver). Handlers run on worker threads, so
    /// the observer must be thread-safe. Call before Start().
    void SetExecObserver(
        std::function<void(uint16_t tenant, uint64_t key)> observer);

    /**
     * Report a device-attributable incident observed outside the
     * worker — e.g. a client rejected this worker's response frame CRC
     * (kCrcFailure), implicating the device that serialized it. The
     * incident is absorbed into the worker's health domain at its next
     * batch boundary. Thread-safe.
     */
    void ReportDeviceIncident(uint32_t worker, IncidentKind kind);

    /// Snapshot the dedup cache for crash-restart durability (empty
    /// when dedup is disabled). Quiescent only.
    std::vector<uint8_t> SerializeDedup() const;

    /// Rebuild the dedup cache from a SerializeDedup() image so
    /// retries of calls committed before a restart still dedup.
    /// Fail-closed on corrupt images (see DedupCache::Deserialize).
    /// Quiescent only. @return false when rejected or dedup disabled.
    bool RestoreDedup(const uint8_t *data, size_t size);

    /**
     * Attach the bounded-memory streaming endpoint (not owned; must
     * outlive the runtime, or be detached with nullptr first). Once
     * attached, Submit routes every v4 stream frame (IsStreamKind) to
     * it inline — streams bypass the per-call worker pipeline because
     * their admission is the stream layer's own (announce bound,
     * memory budgets, brownout) and their state machine is ordered.
     * The receiver is re-pointed at this runtime's shared memory gauge
     * and its dedup cache (exactly-once response replay), and its
     * reply/credit frames land in stream_replies(). Call before
     * streaming traffic arrives.
     */
    void AttachStreamReceiver(StreamReceiver *receiver);

    /// Reply/credit/error frames emitted by the attached stream
    /// receiver (quiescent only — callers pump it between ticks).
    FrameBuffer &stream_replies() { return stream_replies_; }

    /// Shared stream-buffer gauge feeding the snapshot's peak-memory
    /// accounting (live even when no receiver is attached).
    StreamMemoryGauge &stream_gauge() { return stream_gauge_; }

    /// Modeled-time hook for the attached receiver's deadline sweep
    /// and wedge releases; no-op when no receiver is attached.
    void AdvanceStreamTime(double now_ns);

  private:
    struct OwnedFrame
    {
        FrameHeader header;
        std::vector<uint8_t> payload;
    };

    /// One executed-but-not-yet-replayed accelerator batch.
    struct AccelBatch
    {
        /// Jobs that actually ran on the device (fallback ops do not
        /// ring the doorbell); 0 when the whole batch degraded to
        /// software.
        uint32_t jobs = 0;
        /// Device service time for those jobs.
        uint64_t service_cycles = 0;
        /// Software-fallback time, charged to the worker core's
        /// timeline instead of the shared accelerator.
        double sw_ns = 0;
        uint32_t calls = 0;
        /// Per-stage split of service_cycles plus the frame-engine and
        /// wire-transfer work, recorded only on the offload datapath
        /// (SubmitOffloadBatch pipelines the stages; the host path
        /// ignores these).
        uint64_t deser_cycles = 0;
        uint64_t ser_cycles = 0;
        uint64_t frame_cycles = 0;
        uint64_t wire_bytes = 0;
        /// Isolation domain of every call in this batch (workers split
        /// mixed-tenant drains into per-tenant sub-batches when the
        /// tenant layer is engaged, so the replay arbiter can schedule
        /// and bill whole batches to one tenant).
        uint16_t tenant = 0;
    };

    struct Worker
    {
        Worker(const proto::DescriptorPool *pool,
               std::unique_ptr<CodecBackend> backend,
               const HealthConfig &health_config)
            : server(pool, std::move(backend)), health(health_config)
        {}

        uint32_t index = 0;
        std::mutex mu;
        std::condition_variable cv;
        std::deque<OwnedFrame> inbox;
        size_t pending = 0;  ///< submitted, not yet fully handled
        bool stop = false;
        /// Set (under mu) when an injected crash killed this worker's
        /// thread; its inbox holds the un-acked frames Drain() will
        /// re-dispatch. A dead worker never restarts.
        bool dead = false;
        /// Requests shed by admission control (written under mu).
        uint64_t shed = 0;
        /// Per-call service estimate feeding admission control; EWMA
        /// updated by the worker, read by submitters (hence atomic),
        /// seeded at 2 us before the first batch completes.
        std::atomic<double> est_call_ns{2000};

        RpcServer server;
        FrameBuffer replies;
        /// Dedup keys of the batch being served, reused across batches.
        std::vector<DedupCache::TenantKey> dedup_keys;
        /// Device frame-engine stage (offload datapath): the reply
        /// stream's cost sink when offload is enabled, so egress
        /// framing, CRC stamping and dedup probes accrue device cycles
        /// instead of host cycles. Owned by the worker thread.
        accel::FrameEngine frame_engine;

        // Written by the worker thread, published under mu (pending
        // reaching 0), read while quiescent.
        uint64_t calls = 0;
        uint64_t failures = 0;
        uint64_t batches = 0;
        std::array<uint64_t, kNumStatusCodes> failures_by_code{};
        uint64_t deadline_exceeded = 0;
        double vclock_ns = 0;
        /// Completed calls' modeled latencies, tenant-tagged.
        std::vector<CallRecord> call_records;
        std::vector<AccelBatch> accel_batches;
        size_t replay_cursor = 0;  ///< first unreplayed accel batch
        /// Per-tenant measured service time (ns, calls) accumulated by
        /// the worker thread, folded into the tenant table's EWMAs at
        /// Drain() in worker-index order (deterministic fold sequence).
        std::map<uint16_t, std::pair<double, uint64_t>> tenant_service;

        // ---- device health domain (owned by the worker thread, like
        //      the counters above; read while quiescent) ----

        /// Health state machine of this worker's private accelerator.
        DeviceHealth health;
        /// Monotonic baselines for per-batch incident deltas.
        uint64_t wd_resets_seen = 0;
        uint64_t accel_faults_seen = 0;
        /// Device fenced by the health policy: batches run on the
        /// software codec until the scrub + self-test reintegrates it.
        bool health_fenced = false;
        /// In-flight maintenance (scrub + self-test) window on the
        /// worker's virtual timeline, with its pre-computed outcome.
        /// The state machine stays in kScrubbing until the window
        /// passes — an interruption (crash, shutdown) leaves the
        /// domain fenced, never healthy (fail closed).
        bool maintenance_pending = false;
        double maintenance_done_ns = 0;
        ScrubCost maintenance_scrub;
        bool maintenance_test_passed = false;
        uint64_t maintenance_test_cycles = 0;
        /// Incidents reported from outside the worker
        /// (ReportDeviceIncident), drained at batch boundaries.
        std::array<std::atomic<uint64_t>, kNumIncidentKinds>
            reported_incidents{};

        std::thread thread;
    };

    void WorkerLoop(Worker *w);
    /// Health preamble of one batch (worker thread): absorb externally
    /// reported incidents and complete a finished maintenance window.
    /// @return true when the device may serve this batch; false when
    /// it is fenced (the batch is forced to the software codec).
    bool HealthPreBatch(Worker *w);
    /// Feed this batch's incident/success observations into the
    /// worker's health domain; quarantines the device when the error
    /// rate crosses the threshold.
    void HealthPostBatch(Worker *w, size_t executed);
    /// Quarantine @p w's device now: fence it, scrub its state
    /// (functional + modeled cost), run the golden self-test, and
    /// schedule the maintenance window on the worker's timeline.
    void QuarantineWorkerDevice(Worker *w);
    /// Shared-queue unit health, driven by the quiescent replay loop.
    void ObserveSharedUnit(uint32_t unit, bool watchdog_fired);
    /// One frame of a batch, the body both ProcessBatch loops share:
    /// price its ingress framing on @p ingress_sink (nullptr: priced
    /// where the frame was scanned), serve it, and count the call and
    /// any failure (charging error frames to the offload @p engine).
    /// @return true when an injected crash killed the worker right
    /// after this call committed its reply.
    bool ServeFrame(Worker *w, const OwnedFrame &f,
                    proto::CostSink *ingress_sink,
                    accel::FrameEngine *engine);
    /// @p backlog: frames left in the inbox after this batch was
    /// extracted (the saturation signal for degraded-mode serving).
    /// Sets @p killed when an injected crash killed the worker during
    /// this batch — reported explicitly, not inferred from a short
    /// count, so a kill landing exactly on a batch boundary (e.g. with
    /// max_batch == 1) still takes the worker down.
    /// The batch's dedup commits are published before it returns, so
    /// before the caller acknowledges the batch or marks the worker
    /// dead.
    /// @return frames executed; the caller pushes the unexecuted tail
    /// back for re-dispatch.
    size_t ProcessBatch(Worker *w, std::vector<OwnedFrame> *batch,
                        size_t backlog, bool *killed);
    void ReplayAcceleratorTimeline();
    /// Home worker for @p call_id, or the next surviving worker when
    /// the home one is dead, returned with @p lock holding its mutex;
    /// nullptr when every worker is dead.
    Worker *PickWorker(uint32_t call_id, std::unique_lock<std::mutex> *lock);
    /// Harvest dead workers' un-acked frames and re-submit them to
    /// survivors. Returns the number of frames moved.
    size_t RedispatchStrandedFrames();

    const proto::DescriptorPool *pool_;
    RuntimeConfig config_;
    std::vector<std::unique_ptr<Worker>> workers_;
    /// Runtime-wide response cache shared by every worker's server
    /// (null when dedup_capacity == 0).
    std::unique_ptr<DedupCache> dedup_;
    /// Tenant admission/accounting layer; null when disengaged (see
    /// RuntimeConfig::tenants) — the null check IS the legacy fast
    /// path.
    std::unique_ptr<TenantTable> tenants_;
    /// Weighted-fair replay arbiter; null unless a shared accelerator
    /// and a DWRR quantum are both configured.
    std::unique_ptr<DwrrArbiter> arbiter_;
    /// Calls admitted and not yet executed, across all workers: the
    /// brownout pressure numerator. Relaxed atomics — an approximate
    /// read is fine for a pressure signal; exactness comes from the
    /// deterministic preload-submit pattern benches use.
    std::atomic<uint64_t> total_pending_{0};
    /// Health domains of the shared-queue units (empty unless health
    /// is enabled and a shared queue is attached). Touched only by the
    /// quiescent replay loop and Snapshot().
    std::vector<DeviceHealth> shared_unit_health_;
    /// Golden-vector source for device self-tests, built from the
    /// first registered method's request type (null until then).
    std::unique_ptr<SelfTester> self_tester_;
    /// Frames rejected by SubmitFromStream's integrity check.
    std::atomic<uint64_t> crc_rejects_{0};
    /// Streaming endpoint (not owned; null = streams unimplemented).
    StreamReceiver *stream_receiver_ = nullptr;
    /// Shared stream-buffer budget gauge (snapshot peak-memory input).
    StreamMemoryGauge stream_gauge_;
    /// The attached receiver's egress (credits/errors/responses).
    FrameBuffer stream_replies_;
    /// Serializes stream-frame routing: Submit is thread-safe but the
    /// receiver's per-stream state machine is single-threaded
    /// (mutable: Snapshot() is const and reads the routing counter).
    mutable std::mutex stream_mu_;
    uint64_t stream_frames_ = 0;  ///< guarded by stream_mu_
    /// Frames moved off dead workers onto survivors (Drain only, which
    /// runs quiescent — plain counter).
    uint64_t redispatched_frames_ = 0;
    /// Serializes Start()/Shutdown() so concurrent Shutdown() calls
    /// (and a Shutdown() racing destruction) are safe.
    std::mutex lifecycle_mu_;
    bool started_ = false;
};

}  // namespace protoacc::rpc

#endif  // PROTOACC_RPC_SERVER_RUNTIME_H
