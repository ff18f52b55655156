#include "rpc/server_runtime.h"

#include <algorithm>
#include <map>
#include <cmath>

#include "proto/codec_table.h"

namespace protoacc::rpc {

RpcServerRuntime::RpcServerRuntime(const proto::DescriptorPool *pool,
                                   const BackendFactory &factory,
                                   const RuntimeConfig &config)
    : pool_(pool), config_(config)
{
    PA_CHECK_GE(config_.num_workers, 1u);
    PA_CHECK_GE(config_.max_batch, 1u);
    // Compile the pool's codec tables before any worker thread exists:
    // lazy first-use compilation is not thread-safe, and pre-compiling
    // here makes every later access a read of immutable state.
    proto::GetCodecTables(*pool_);
    if (config_.dedup_capacity > 0)
        dedup_ = std::make_unique<DedupCache>(DedupConfig{
            config_.dedup_capacity, config_.dedup_retry_horizon});
    // The tenant layer engages only when some tenant feature is
    // configured; otherwise tenants_ stays null and Submit runs the
    // exact pre-tenant pipeline.
    if (!config_.tenants.empty() || config_.breaker.enabled ||
        config_.brownout.start_wait_ns > 0 ||
        config_.dwrr_quantum_cycles > 0)
        tenants_ = std::make_unique<TenantTable>(
            config_.tenants, config_.breaker, config_.brownout);
    if (tenants_ != nullptr && config_.dwrr_quantum_cycles > 0 &&
        config_.shared_accel != nullptr)
        arbiter_ = std::make_unique<DwrrArbiter>(
            tenants_.get(), config_.dwrr_quantum_cycles);
    if (config_.health.enabled && config_.shared_accel != nullptr) {
        const uint32_t units = config_.shared_accel->config().num_units;
        shared_unit_health_.reserve(units);
        for (uint32_t u = 0; u < units; ++u)
            shared_unit_health_.emplace_back(config_.health);
    }
    workers_.reserve(config_.num_workers);
    for (uint32_t i = 0; i < config_.num_workers; ++i) {
        workers_.push_back(
            std::make_unique<Worker>(pool_, factory(i), config_.health));
        Worker &w = *workers_.back();
        w.index = i;
        w.server.mutable_backend().SetParseLimits(config_.parse_limits);
        w.server.SetDedupCache(dedup_.get());
        w.server.SetSchemaRegistry(config_.schema_registry);
        w.server.set_schema_fingerprint(config_.schema_fingerprint);
        if (config_.offload.enabled) {
            // Offload datapath: the frame engine fronts this worker's
            // shard, so egress framing/CRC/dedup work accrues device
            // cycles — the host cost sink sees none of it.
            w.replies.SetCostSink(&w.frame_engine);
        } else {
            // Response-frame CRCs are host-side work: price them on the
            // worker's core model (nullptr for pure-accel backends,
            // whose device computes them inline with the streaming
            // serialize).
            w.replies.SetCostSink(
                w.server.mutable_backend().host_cost_sink());
        }
    }
}

RpcServerRuntime::~RpcServerRuntime() { Shutdown(); }

void
RpcServerRuntime::RegisterMethod(uint16_t method_id, int request_type,
                                 int response_type,
                                 const Handler &handler)
{
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    PA_CHECK(!started_);
    // The first registered request type doubles as the self-test
    // vector source, so golden vectors exercise the ADTs live traffic
    // actually uses.
    if (self_tester_ == nullptr)
        self_tester_ = std::make_unique<SelfTester>(pool_, request_type);
    for (auto &w : workers_)
        w->server.RegisterMethod(method_id, request_type, response_type,
                                 handler);
}

void
RpcServerRuntime::Start()
{
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    PA_CHECK(!started_);
    started_ = true;
    for (auto &w : workers_) {
        bool dead;
        {
            std::lock_guard<std::mutex> wl(w->mu);
            dead = w->dead;
            w->stop = false;  // re-arm after a prior Shutdown()
        }
        // Crashed workers never come back: a Shutdown() -> Start()
        // cycle resumes only the survivors (counters intact).
        if (dead)
            continue;
        w->thread = std::thread([this, worker = w.get()] {
            WorkerLoop(worker);
        });
    }
}

RpcServerRuntime::Worker *
RpcServerRuntime::PickWorker(uint32_t call_id,
                             std::unique_lock<std::mutex> *lock)
{
    const size_t n = workers_.size();
    const size_t home = call_id % n;
    for (size_t i = 0; i < n; ++i) {
        Worker *w = workers_[(home + i) % n].get();
        std::unique_lock<std::mutex> candidate(w->mu);
        if (!w->dead) {
            *lock = std::move(candidate);
            return w;
        }
    }
    return nullptr;
}

StatusCode
RpcServerRuntime::Submit(const FrameHeader &header,
                         const uint8_t *payload, double arrival_ns)
{
    // v4 stream frames route to the attached streaming endpoint inline
    // (its state machine is ordered and it runs its own admission:
    // announce bound, memory budgets, brownout). Without an endpoint
    // the kinds are understood but unserved.
    if (IsStreamKind(header.kind)) {
        if (stream_receiver_ == nullptr)
            return StatusCode::kUnimplemented;
        Frame frame;
        frame.header = header;
        frame.payload = payload;
        std::lock_guard<std::mutex> lock(stream_mu_);
        ++stream_frames_;
        return stream_receiver_->HandleFrame(frame, &stream_replies_,
                                             arrival_ns);
    }
    // Tenant admission pipeline (breaker → bucket → per-tenant wait →
    // brownout) runs before worker selection; null tenants_ is the
    // legacy fast path. Every PreAdmit is paired with exactly one
    // CommitAdmission so breaker windows count each submission once.
    AdmitTicket ticket;
    if (tenants_ != nullptr) {
        double pressure_ns = 0;
        if (tenants_->brownout().start_wait_ns > 0) {
            // Global backlog pressure: mean queued calls per worker
            // times the slowest worker's service estimate.
            double max_est = 0;
            for (const auto &w : workers_)
                max_est = std::max(
                    max_est,
                    w->est_call_ns.load(std::memory_order_relaxed));
            pressure_ns =
                static_cast<double>(total_pending_.load(
                    std::memory_order_relaxed)) /
                static_cast<double>(workers_.size()) * max_est;
        }
        ticket = tenants_->PreAdmit(header.tenant_id, arrival_ns,
                                    pressure_ns);
        if (ticket.outcome != AdmitOutcome::kAdmitted) {
            tenants_->CommitAdmission(header.tenant_id, ticket, false);
            return StatusCode::kOverloaded;
        }
    }
    // Legal before Start(): frames queue in the inboxes and the workers
    // pick them up once spawned (a pre-loaded backlog drains in exact
    // max_batch chunks, which keeps batch boundaries deterministic).
    // Copy the frame before taking any lock; PickWorker's one lock then
    // covers liveness, admission and the enqueue. A worker dying after
    // the enqueue leaves the frame in its inbox for Drain() to harvest
    // and re-dispatch — enqueueing is never lossy, just possibly late.
    OwnedFrame frame;
    frame.header = header;
    if (header.payload_bytes > 0)
        frame.payload.assign(payload, payload + header.payload_bytes);
    std::unique_lock<std::mutex> lock;
    Worker *wp = PickWorker(header.call_id, &lock);
    if (wp == nullptr) {
        if (tenants_ != nullptr)
            tenants_->CommitAdmission(header.tenant_id, ticket, true);
        return StatusCode::kUnavailable;  // every worker has crashed
    }
    Worker &w = *wp;
    PA_CHECK(!w.stop);
    if (config_.admission_max_wait_ns > 0) {
        // Shed when the modeled backlog wait — queued calls times the
        // worker's per-call service estimate — already exceeds the
        // bound; admitting more only makes every queued call later.
        const double est = w.est_call_ns.load(std::memory_order_relaxed);
        const double wait_ns = static_cast<double>(w.pending) * est;
        if (wait_ns > config_.admission_max_wait_ns) {
            ++w.shed;
            lock.unlock();
            if (tenants_ != nullptr)
                tenants_->CommitAdmission(header.tenant_id, ticket, true);
            return StatusCode::kOverloaded;
        }
    }
    w.inbox.push_back(std::move(frame));
    ++w.pending;
    lock.unlock();
    total_pending_.fetch_add(1, std::memory_order_relaxed);
    if (tenants_ != nullptr)
        tenants_->CommitAdmission(header.tenant_id, ticket, false);
    w.cv.notify_all();
    return StatusCode::kOk;
}

StatusCode
RpcServerRuntime::SubmitFromStream(const FrameBuffer &ingress,
                                   size_t *offset, double arrival_ns)
{
    StatusCode scan = StatusCode::kOk;
    const std::optional<Frame> frame = ingress.Next(offset, &scan);
    if (frame.has_value())
        return Submit(frame->header, frame->payload, arrival_ns);
    if (scan == StatusCode::kDataLoss) {
        // Detected in-flight corruption: count the reject; Next already
        // advanced past the bad frame, so the scan resumes behind it.
        crc_rejects_.fetch_add(1, std::memory_order_relaxed);
        return scan;
    }
    if (scan == StatusCode::kUnimplemented) {
        // Unknown wire version: the frame length cannot be trusted, so
        // framing cannot be resynchronized past it.
        *offset = ingress.bytes();
        return scan;
    }
    if (*offset < ingress.bytes()) {
        // Truncated remainder (a frame lost its tail in the channel).
        *offset = ingress.bytes();
        return StatusCode::kUnavailable;
    }
    return StatusCode::kOk;  // stream exhausted
}

void
RpcServerRuntime::Drain()
{
    {
        std::lock_guard<std::mutex> lock(lifecycle_mu_);
        PA_CHECK(started_);
    }
    // A worker dying mid-drain leaves its un-acked frames in a dead
    // inbox; re-dispatching them can itself land on a worker that later
    // dies, so loop until a full pass moves nothing.
    for (;;) {
        for (auto &w : workers_) {
            std::unique_lock<std::mutex> lock(w->mu);
            w->cv.wait(lock,
                       [&w] { return w->pending == 0 || w->dead; });
        }
        if (RedispatchStrandedFrames() == 0)
            break;
    }
    ReplayAcceleratorTimeline();
    // Fold the workers' measured per-tenant service costs into the
    // tenant EWMAs, in worker-index order (a deterministic fold
    // sequence — the EWMA is order-sensitive).
    if (tenants_ != nullptr) {
        for (auto &w : workers_) {
            for (const auto &[tenant, acc] : w->tenant_service)
                if (acc.second > 0)
                    tenants_->FoldServiceEstimate(
                        tenant,
                        acc.first / static_cast<double>(acc.second));
            w->tenant_service.clear();
        }
    }
}

size_t
RpcServerRuntime::RedispatchStrandedFrames()
{
    // Runs only from Drain() after every worker is quiescent or dead.
    // Harvest in worker-index order, inbox order preserved, and target
    // selection is deterministic (PickWorker) — so the re-dispatch
    // schedule depends only on the kill events, never on thread timing.
    std::vector<OwnedFrame> stranded;
    for (auto &w : workers_) {
        std::lock_guard<std::mutex> lock(w->mu);
        if (!w->dead || w->inbox.empty())
            continue;
        const size_t harvested = w->inbox.size();
        while (!w->inbox.empty()) {
            stranded.push_back(std::move(w->inbox.front()));
            w->inbox.pop_front();
        }
        PA_CHECK_GE(w->pending, harvested);
        w->pending -= harvested;
    }
    // Group the stranded frames per surviving target and publish each
    // target's group in one locked push with a single wakeup at the
    // end. Pushing frame-by-frame would let a survivor wake mid-
    // redispatch and split the group into timing-dependent batches —
    // harmless on the software path (per-call costs only), but a
    // shared-accelerator doorbell batch's cost depends on its
    // composition, so the split would leak host thread timing into the
    // modeled numbers.
    size_t moved = 0;
    std::vector<std::vector<OwnedFrame>> regrouped(workers_.size());
    for (OwnedFrame &f : stranded) {
        std::unique_lock<std::mutex> lock;
        Worker *target = PickWorker(f.header.call_id, &lock);
        if (target == nullptr) {
            // No survivors: the call is lost; the client's retry needs
            // a restarted runtime. It will never execute, so it leaves
            // the pending gauges now.
            total_pending_.fetch_sub(1, std::memory_order_relaxed);
            if (tenants_ != nullptr)
                tenants_->OnWorkerFinished(f.header.tenant_id);
            continue;
        }
        regrouped[target->index].push_back(std::move(f));
        ++moved;
    }
    for (size_t i = 0; i < regrouped.size(); ++i) {
        if (regrouped[i].empty())
            continue;
        Worker *w = workers_[i].get();
        {
            std::lock_guard<std::mutex> lock(w->mu);
            for (OwnedFrame &f : regrouped[i]) {
                w->inbox.push_back(std::move(f));
                ++w->pending;
            }
        }
        w->cv.notify_all();
    }
    redispatched_frames_ += moved;
    return moved;
}

void
RpcServerRuntime::Shutdown()
{
    // lifecycle_mu_ serializes concurrent Shutdown() calls (and a
    // Shutdown racing destruction): the loser of the race observes
    // started_ == false and returns — Shutdown is idempotent.
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_)
        return;
    for (auto &w : workers_) {
        {
            std::lock_guard<std::mutex> wl(w->mu);
            w->stop = true;
        }
        w->cv.notify_all();
    }
    for (auto &w : workers_)
        if (w->thread.joinable())
            w->thread.join();
    // Re-arm stop so frames may again be pre-loaded before the next
    // Start() — the windowed preload-submit pattern open-loop benches
    // use (Submit asserts !stop).
    for (auto &w : workers_) {
        std::lock_guard<std::mutex> wl(w->mu);
        w->stop = false;
    }
    started_ = false;
}

uint32_t
RpcServerRuntime::num_workers() const
{
    return static_cast<uint32_t>(workers_.size());
}

const FrameBuffer &
RpcServerRuntime::replies(uint32_t worker) const
{
    PA_CHECK_LT(worker, workers_.size());
    return workers_[worker]->replies;
}

RuntimeSnapshot
RpcServerRuntime::Snapshot() const
{
    RuntimeSnapshot snap;
    snap.arena_constructions = workers_.size();
    const auto aggregate_health = [&snap](const HealthSnapshot &hs) {
        snap.health_quarantines += hs.quarantines;
        snap.health_scrubs_completed += hs.scrubs_completed;
        snap.health_scrub_cycles += hs.scrub_cycles;
        snap.health_self_tests_passed += hs.self_tests_passed;
        snap.health_self_tests_failed += hs.self_tests_failed;
        snap.health_self_test_cycles += hs.self_test_cycles;
        snap.health_reintegrations += hs.reintegrations;
        if (hs.fenced_from_traffic)
            ++snap.health_fenced_domains;
    };
    for (const auto &w : workers_) {
        WorkerSnapshot ws;
        ws.calls = w->calls;
        ws.failures = w->failures;
        ws.batches = w->batches;
        ws.failures_by_code = w->failures_by_code;
        ws.deadline_exceeded = w->deadline_exceeded;
        {
            std::lock_guard<std::mutex> lock(w->mu);
            ws.shed = w->shed;
            ws.crashed = w->dead;
        }
        const FallbackCounters fb =
            w->server.backend().fallback_counters();
        ws.fallback_accel_fault = fb.accel_fault;
        ws.fallback_forced = fb.forced;
        ws.generated_fallbacks = fb.generated;
        ws.schema_rejects = w->server.schema_rejects();
        if (const AcceleratedBackend *device =
                w->server.backend().accel_engine()) {
            const accel::WatchdogStats wd = device->watchdog_stats();
            ws.watchdog_resets = wd.resets;
            ws.watchdog_replayed_jobs = wd.replayed_jobs;
        }
        ws.device_health = w->health.snapshot();
        aggregate_health(ws.device_health);
        ws.vclock_ns = w->vclock_ns;
        ws.codec_cycles = w->server.backend().codec_cycles();
        ws.accel_codec_cycles = w->server.backend().accel_cycles();
        ws.arena_blocks = w->server.arena().block_count();
        ws.arena_bytes_reserved = w->server.arena().bytes_reserved();
        ws.reply_payload_copies = w->replies.payload_copies();
        ws.frame_engine_cycles = w->frame_engine.cycles();
        ws.frame_engine = w->frame_engine.stats();
        snap.offload_frame_headers += ws.frame_engine.frame_headers;
        snap.offload_crc_ops += ws.frame_engine.crc_ops;
        snap.offload_dedup_probes += ws.frame_engine.dedup_probes;
        snap.offload_error_frames += ws.frame_engine.error_frames;
        snap.offload_frame_cycles += ws.frame_engine_cycles;
        if (ws.crashed)
            ++snap.workers_crashed;
        snap.watchdog_resets += ws.watchdog_resets;
        snap.watchdog_replayed_jobs += ws.watchdog_replayed_jobs;
        snap.calls += ws.calls;
        snap.failures += ws.failures;
        for (size_t i = 0; i < kNumStatusCodes; ++i)
            snap.failures_by_code[i] += ws.failures_by_code[i];
        snap.shed += ws.shed;
        snap.deadline_exceeded += ws.deadline_exceeded;
        snap.fallback_accel_fault += ws.fallback_accel_fault;
        snap.fallback_forced += ws.fallback_forced;
        snap.generated_fallbacks += ws.generated_fallbacks;
        snap.schema_rejects += ws.schema_rejects;
        snap.modeled_span_ns =
            std::max(snap.modeled_span_ns, ws.vclock_ns);
        snap.workers.push_back(ws);
    }
    for (const DeviceHealth &h : shared_unit_health_) {
        snap.shared_units.push_back(h.snapshot());
        aggregate_health(snap.shared_units.back());
    }
    if (dedup_ != nullptr) {
        const DedupCache::Stats ds = dedup_->stats();
        snap.dedup_hits = ds.hits;
        snap.dedup_insertions = ds.insertions;
        snap.dedup_evictions = ds.evictions;
        snap.dedup_unsafe_evictions = ds.unsafe_evictions;
        snap.dedup_expired = ds.expired;
        snap.dedup_restored = ds.restored;
    }
    snap.crc_rejects = crc_rejects_.load(std::memory_order_relaxed);
    snap.redispatched_frames = redispatched_frames_;
    // Peak-memory high-water mark: worker arena reservations (arenas
    // only grow, so bytes_reserved is already a high-water mark) plus
    // the stream-buffer gauge peak.
    size_t arena_total = 0;
    for (const WorkerSnapshot &ws : snap.workers)
        arena_total += ws.arena_bytes_reserved;
    snap.stream_buffer_bytes = stream_gauge_.current_bytes();
    snap.stream_buffer_peak_bytes = stream_gauge_.peak_bytes();
    snap.peak_memory_bytes = arena_total + snap.stream_buffer_peak_bytes;
    {
        std::lock_guard<std::mutex> lock(stream_mu_);
        snap.stream_frames = stream_frames_;
    }
    if (config_.shared_accel != nullptr)
        snap.watchdog_resets +=
            config_.shared_accel->stats().watchdog_resets;
    if (tenants_ != nullptr) {
        snap.tenants = tenants_->Snapshot();
        // The aggregate shed counter spans every admission layer:
        // worker-level sheds are already in the workers' counters, the
        // tenant-layer sheds (bucket/wait/brownout/breaker) live only
        // in the tenant counters.
        for (const TenantSnapshot &t : snap.tenants)
            snap.shed += t.counters.shed_bucket +
                         t.counters.shed_wait +
                         t.counters.shed_brownout +
                         t.counters.shed_breaker;
    }
    return snap;
}

void
RpcServerRuntime::AttachStreamReceiver(StreamReceiver *receiver)
{
    std::lock_guard<std::mutex> lock(stream_mu_);
    stream_receiver_ = receiver;
    if (receiver == nullptr)
        return;
    // Budget enforcement and peak-memory accounting share one gauge;
    // completed-stream responses replay from the runtime's dedup cache
    // (when one is configured) for exactly-once across lost replies.
    receiver->SetGauge(&stream_gauge_);
    if (dedup_ != nullptr)
        receiver->SetDedupCache(dedup_.get());
    if (tenants_ != nullptr)
        receiver->SetTenantTable(tenants_.get());
}

void
RpcServerRuntime::AdvanceStreamTime(double now_ns)
{
    std::lock_guard<std::mutex> lock(stream_mu_);
    if (stream_receiver_ != nullptr)
        stream_receiver_->AdvanceTime(now_ns, &stream_replies_);
}

void
RpcServerRuntime::ReportDeviceIncident(uint32_t worker,
                                       IncidentKind kind)
{
    PA_CHECK_LT(worker, workers_.size());
    PA_CHECK_LT(static_cast<size_t>(kind), kNumIncidentKinds);
    workers_[worker]
        ->reported_incidents[static_cast<size_t>(kind)]
        .fetch_add(1, std::memory_order_relaxed);
}

std::vector<uint8_t>
RpcServerRuntime::SerializeDedup() const
{
    return dedup_ != nullptr ? dedup_->Serialize()
                             : std::vector<uint8_t>{};
}

bool
RpcServerRuntime::RestoreDedup(const uint8_t *data, size_t size)
{
    return dedup_ != nullptr && dedup_->Deserialize(data, size);
}

std::vector<double>
RpcServerRuntime::TakeLatencies()
{
    std::vector<double> all;
    for (auto &w : workers_) {
        all.reserve(all.size() + w->call_records.size());
        for (const CallRecord &r : w->call_records)
            all.push_back(r.latency_ns);
        w->call_records.clear();
    }
    return all;
}

std::vector<CallRecord>
RpcServerRuntime::TakeCallRecords()
{
    std::vector<CallRecord> all;
    for (auto &w : workers_) {
        all.insert(all.end(), w->call_records.begin(),
                   w->call_records.end());
        w->call_records.clear();
    }
    return all;
}

void
RpcServerRuntime::SetExecObserver(
    std::function<void(uint16_t tenant, uint64_t key)> observer)
{
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    PA_CHECK(!started_);
    for (auto &w : workers_)
        w->server.SetExecObserver(observer);
}

void
RpcServerRuntime::WorkerLoop(Worker *w)
{
    std::vector<OwnedFrame> batch;
    for (;;) {
        // Free the last batch's frames before taking the inbox lock, so
        // the lock submitters contend on never covers their frees.
        batch.clear();
        size_t backlog = 0;
        {
            std::unique_lock<std::mutex> lock(w->mu);
            w->cv.wait(lock,
                       [w] { return w->stop || !w->inbox.empty(); });
            if (w->inbox.empty())
                return;  // stop requested and fully drained
            if (config_.priority_batching && tenants_ != nullptr &&
                w->inbox.size() > 1) {
                // Stable sort: high-priority tenants jump the queue,
                // FIFO order survives within a priority tier. Sorting
                // the inbox itself (not just the grab) keeps the kill
                // path's invariant shape — the stranded set is still a
                // contiguous suffix of the (now grab-order) inbox.
                // Priorities are cached per distinct tenant so the
                // comparator never takes the table mutex.
                std::map<uint16_t, uint32_t> prio;
                for (const OwnedFrame &f : w->inbox)
                    if (prio.find(f.header.tenant_id) == prio.end())
                        prio[f.header.tenant_id] =
                            tenants_->PriorityOf(f.header.tenant_id);
                std::stable_sort(
                    w->inbox.begin(), w->inbox.end(),
                    [&prio](const OwnedFrame &a, const OwnedFrame &b) {
                        return prio.find(a.header.tenant_id)->second >
                               prio.find(b.header.tenant_id)->second;
                    });
            }
            const size_t n = std::min<size_t>(config_.max_batch,
                                              w->inbox.size());
            batch.reserve(n);
            for (size_t i = 0; i < n; ++i) {
                batch.push_back(std::move(w->inbox.front()));
                w->inbox.pop_front();
            }
            backlog = w->inbox.size();
        }

        const double cycles_before =
            w->server.backend().codec_cycles();
        bool killed = false;
        const size_t executed =
            ProcessBatch(w, &batch, backlog, &killed);

        if (killed) {
            // An injected crash killed this worker mid-batch:
            // acknowledge only the executed prefix, return the
            // unexecuted tail to the inbox front (original order) for
            // Drain() to re-dispatch, and exit. The stranded set is
            // always a submission-order suffix, independent of where
            // the batch boundary happened to fall — that is what keeps
            // recovery deterministic.
            {
                std::lock_guard<std::mutex> lock(w->mu);
                PA_CHECK_GE(w->pending, executed);
                w->pending -= executed;
                for (size_t i = batch.size(); i > executed; --i)
                    w->inbox.push_front(std::move(batch[i - 1]));
                w->dead = true;
            }
            total_pending_.fetch_sub(executed,
                                     std::memory_order_relaxed);
            w->cv.notify_all();
            return;
        }

        // Refresh the admission-control estimate from this batch's
        // measured codec time (service only; queueing is what the
        // estimate predicts, so it must not feed back into itself).
        if (!batch.empty()) {
            const double batch_ns =
                (w->server.backend().codec_cycles() - cycles_before) /
                w->server.backend().freq_ghz();
            const double per_call =
                batch_ns / static_cast<double>(batch.size());
            const double prev =
                w->est_call_ns.load(std::memory_order_relaxed);
            w->est_call_ns.store(0.8 * prev + 0.2 * per_call,
                                 std::memory_order_relaxed);
        }

        {
            std::lock_guard<std::mutex> lock(w->mu);
            PA_CHECK_GE(w->pending, batch.size());
            w->pending -= batch.size();
        }
        total_pending_.fetch_sub(batch.size(),
                                 std::memory_order_relaxed);
        w->cv.notify_all();
    }
}

bool
RpcServerRuntime::HealthPreBatch(Worker *w)
{
    if (!config_.health.enabled ||
        w->server.backend().accel_engine() == nullptr)
        return true;  // nothing to health-manage
    // Complete a finished maintenance window first, so a reintegrated
    // device serves this very batch. Until the worker's timeline
    // passes the window the state machine stays in kScrubbing — an
    // interruption (crash, shutdown) leaves the domain fenced.
    if (w->maintenance_pending &&
        w->vclock_ns >= w->maintenance_done_ns) {
        w->maintenance_pending = false;
        w->health.CompleteScrub(w->maintenance_scrub);
        const HealthState verdict = w->health.CompleteSelfTest(
            w->maintenance_test_passed, w->maintenance_test_cycles);
        if (verdict == HealthState::kProbation)
            w->health_fenced = false;  // back in service, reduced trust
        else if (verdict == HealthState::kQuarantined)
            QuarantineWorkerDevice(w);  // another scrub + test round
        // kFenced: permanently out; health_fenced stays true and the
        // worker serves on the software codec from here on.
    }
    // Externally attributed incidents (e.g. client-side CRC rejects of
    // this worker's responses).
    bool quarantine = false;
    for (size_t k = 0; k < kNumIncidentKinds; ++k) {
        uint64_t n = w->reported_incidents[k].exchange(
            0, std::memory_order_relaxed);
        while (n-- > 0)
            quarantine |=
                w->health.OnIncident(static_cast<IncidentKind>(k));
    }
    if (quarantine && !w->health_fenced)
        QuarantineWorkerDevice(w);
    return !w->health_fenced;
}

void
RpcServerRuntime::QuarantineWorkerDevice(Worker *w)
{
    AcceleratedBackend *device = w->server.backend().accel_engine();
    PA_CHECK(device != nullptr);
    w->health_fenced = true;
    w->health.BeginScrub();
    // Functional scrub: queued jobs are dropped and every piece of
    // cross-request unit state (ADT response buffers, pipeline
    // context) is cleared — request A's bytes cannot reach request B
    // through the device.
    device->ScrubDeviceState();
    w->maintenance_scrub =
        ComputeScrubCost(device->config(), config_.health);
    // The golden vectors run through the device engine now (the
    // functional verdict — a device that corrupts data or keeps
    // faulting fails), but the modeled time is charged as a fenced
    // maintenance window on the worker's timeline: live batches run on
    // the software codec until the window passes.
    uint64_t test_cycles = 0;
    bool passed = false;
    if (self_tester_ != nullptr)
        passed = self_tester_->Run(
            device, config_.health.self_test_vectors, &test_cycles);
    w->maintenance_test_passed = passed;
    w->maintenance_test_cycles = test_cycles;
    const double window_ns =
        static_cast<double>(w->maintenance_scrub.total() + test_cycles) /
        device->freq_ghz();
    w->maintenance_done_ns = w->vclock_ns + window_ns;
    w->maintenance_pending = true;
}

void
RpcServerRuntime::HealthPostBatch(Worker *w, size_t executed)
{
    const CodecBackend &backend = w->server.backend();
    if (!config_.health.enabled || backend.accel_engine() == nullptr)
        return;
    const uint64_t wd = backend.accel_engine()->watchdog_stats().resets;
    const uint64_t faults = backend.fallback_counters().accel_fault;
    const uint64_t wd_delta = wd - w->wd_resets_seen;
    const uint64_t fault_delta = faults - w->accel_faults_seen;
    w->wd_resets_seen = wd;
    w->accel_faults_seen = faults;
    bool quarantine = false;
    for (uint64_t i = 0; i < wd_delta; ++i)
        quarantine |= w->health.OnIncident(IncidentKind::kWatchdogReset);
    for (uint64_t i = 0; i < fault_delta; ++i)
        quarantine |= w->health.OnIncident(IncidentKind::kUnitFault);
    // Clean calls say nothing about a fenced device (they ran on the
    // software codec), so successes only count while in service.
    if (!w->health_fenced)
        for (uint64_t i = wd_delta + fault_delta; i < executed; ++i)
            w->health.OnSuccess();
    if (quarantine && !w->health_fenced)
        QuarantineWorkerDevice(w);
}

bool
RpcServerRuntime::ServeFrame(Worker *w, const OwnedFrame &f,
                             proto::CostSink *ingress_sink,
                             accel::FrameEngine *engine)
{
    if (ingress_sink != nullptr) {
        ingress_sink->OnFrameHeader();
        ingress_sink->OnCrc(FrameHeader::kCrcOffset +
                            f.header.payload_bytes);
    }
    Frame frame;
    frame.header = f.header;
    frame.payload = f.payload.data();
    const StatusCode st = w->server.HandleFrame(frame, &w->replies);
    if (!StatusOk(st)) {
        ++w->failures;
        ++w->failures_by_code[static_cast<size_t>(st)];
        if (engine != nullptr)
            engine->ChargeErrorFrame();
    }
    ++w->calls;
    if (tenants_ != nullptr)
        tenants_->OnWorkerFinished(f.header.tenant_id);
    // The crash point is call-count based (deterministic): the call
    // that just completed committed its reply; everything after it in
    // the batch is stranded.
    return config_.fault_injector != nullptr &&
           config_.fault_injector->ShouldKillWorker(w->index, w->calls);
}

size_t
RpcServerRuntime::ProcessBatch(Worker *w,
                               std::vector<OwnedFrame> *batch,
                               size_t backlog, bool *killed)
{
    CodecBackend &backend = w->server.mutable_backend();
    const double freq_ghz = backend.freq_ghz();
    ++w->batches;
    if (!config_.record_replies)
        w->replies.clear();  // recycle the stream between batches

    // Ingress framing (header parse + CRC verify) happens once per
    // frame on the serving path: on the device frame engine when the
    // datapath is offloaded, on the worker's host model when the host
    // path is asked to price it (charge_ingress_framing), nowhere
    // otherwise (the pre-offload arrangement — the submitter's sink
    // priced the scan).
    accel::FrameEngine *engine =
        config_.offload.enabled ? &w->frame_engine : nullptr;
    proto::CostSink *ingress_sink =
        engine != nullptr ? static_cast<proto::CostSink *>(engine)
        : config_.charge_ingress_framing ? backend.host_cost_sink()
                                         : nullptr;

    // One locked dedup probe for the whole batch; its commits are
    // staged in the reply stream (not cleared again before the batch
    // ends) and published under one more lock at the end.
    if (dedup_ != nullptr) {
        w->dedup_keys.clear();
        for (const OwnedFrame &f : *batch)
            w->dedup_keys.push_back(DedupCache::TenantKey{
                f.header.tenant_id, f.header.idempotency_key});
        w->server.OpenDedupBatch(w->dedup_keys.data(),
                                 w->dedup_keys.size(), &w->replies);
    }

    const bool device_ok = HealthPreBatch(w);

    // Degraded-mode serving: a deep residual backlog means the
    // accelerator (shared and contended) is the bottleneck; serve this
    // batch on the worker's own core instead, and re-enable the device
    // once the backlog recovers. A health-fenced device forces the
    // same degradation until it reintegrates. No-op for non-hybrid
    // backends.
    const bool saturated =
        config_.saturation_fallback_backlog > 0 &&
        backlog > config_.saturation_fallback_backlog;
    if (config_.saturation_fallback_backlog > 0 ||
        (config_.health.enabled && backend.accel_engine() != nullptr))
        backend.SetForceSoftware(!device_ok || saturated);

    size_t executed = 0;
    if (config_.shared_accel == nullptr) {
        // Each worker is one core running the codec itself: a call's
        // modeled latency is its own service time; calls on one worker
        // run back-to-back on its timeline.
        for (const OwnedFrame &f : *batch) {
            const double before = backend.codec_cycles();
            const double engine_before =
                engine != nullptr ? engine->cycles() : 0;
            *killed = ServeFrame(w, f, ingress_sink, engine);
            double latency_ns =
                (backend.codec_cycles() - before) / freq_ghz;
            // Frame-engine time shares the device clock domain; with a
            // private (non-shared) device the framing stage runs in
            // series with the codec on this worker's timeline.
            if (engine != nullptr)
                latency_ns +=
                    (engine->cycles() - engine_before) / freq_ghz;
            if (config_.deadline_ns > 0 &&
                latency_ns > config_.deadline_ns)
                ++w->deadline_exceeded;
            w->call_records.push_back(
                CallRecord{f.header.tenant_id, latency_ns});
            if (tenants_ != nullptr) {
                tenants_->OnCallLatency(f.header.tenant_id, latency_ns,
                                        config_.deadline_ns);
                auto &acc = w->tenant_service[f.header.tenant_id];
                acc.first += latency_ns;
                ++acc.second;
            }
            w->vclock_ns += latency_ns;
            ++executed;
            if (*killed)
                break;
        }
        w->server.PublishDedupBatch();
        HealthPostBatch(w, executed);
        return executed;
    }

    // Shared accelerator: the batch's (de)serialization jobs go through
    // the doorbell as one batch and complete together at the fence, so
    // every call in the batch observes the batch's queueing delay +
    // service time. Handler logic still runs per call on the worker's
    // core. Only the batch's measured service time is recorded here;
    // the shared timeline is replayed deterministically in Drain().
    // Work the backend routed to software (fault fallback or forced
    // degraded mode) is split out via the device's cycle and job
    // counters and charged to the worker core, not the shared
    // accelerator.
    //
    // With the tenant layer engaged, a mixed-tenant drain is first
    // reordered into per-tenant groups (stable within a group, groups
    // in first-appearance order — deterministic for a deterministic
    // submission sequence) and each group becomes its own AccelBatch,
    // so the replay arbiter can schedule and bill whole batches to one
    // tenant. The kill invariant survives the reorder: the stranded
    // set is always a suffix of the order the frames were *executed*
    // in, which is the reordered order fixed before execution starts.
    if (tenants_ != nullptr && batch->size() > 1) {
        std::vector<uint16_t> group_order;
        for (const OwnedFrame &f : *batch)
            if (std::find(group_order.begin(), group_order.end(),
                          f.header.tenant_id) == group_order.end())
                group_order.push_back(f.header.tenant_id);
        if (group_order.size() > 1) {
            std::vector<OwnedFrame> reordered;
            reordered.reserve(batch->size());
            for (const uint16_t tenant : group_order)
                for (OwnedFrame &f : *batch)
                    if (f.header.tenant_id == tenant)
                        reordered.push_back(std::move(f));
            *batch = std::move(reordered);
        }
    }
    const AcceleratedBackend *device = backend.accel_engine();
    const auto device_jobs = [device]() -> uint64_t {
        return device != nullptr ? device->jobs() : 0;
    };
    size_t run_start = 0;
    while (run_start < batch->size() && !*killed) {
        size_t run_end = batch->size();
        if (tenants_ != nullptr) {
            run_end = run_start + 1;
            while (run_end < batch->size() &&
                   (*batch)[run_end].header.tenant_id ==
                       (*batch)[run_start].header.tenant_id)
                ++run_end;
        }
        const uint16_t run_tenant =
            (*batch)[run_start].header.tenant_id;
        const double cycles_before = backend.codec_cycles();
        const double deser_before = backend.accel_deser_cycles();
        const double ser_before = backend.accel_ser_cycles();
        const double engine_before =
            engine != nullptr ? engine->cycles() : 0;
        const uint64_t jobs_before = device_jobs();
        uint64_t wire_bytes = 0;
        const size_t reply_bytes_before = w->replies.bytes();
        size_t run_executed = 0;
        for (size_t i = run_start; i < run_end && !*killed; ++i) {
            const OwnedFrame &f = (*batch)[i];
            wire_bytes +=
                FrameHeader::kWireBytes + f.header.payload_bytes;
            *killed = ServeFrame(w, f, ingress_sink, engine);
            ++run_executed;
            ++executed;
        }
        const double total_cycles =
            backend.codec_cycles() - cycles_before;
        const double deser_cycles =
            backend.accel_deser_cycles() - deser_before;
        const double ser_cycles = backend.accel_ser_cycles() - ser_before;
        const double accel_cycles = deser_cycles + ser_cycles;
        AccelBatch record;
        record.jobs =
            static_cast<uint32_t>(device_jobs() - jobs_before);
        record.service_cycles =
            static_cast<uint64_t>(std::llround(accel_cycles));
        record.sw_ns = (total_cycles - accel_cycles) / freq_ghz;
        record.calls = static_cast<uint32_t>(run_executed);
        record.tenant = run_tenant;
        if (engine != nullptr) {
            // Offload descriptor for the pipelined replay: the
            // per-stage device split plus the batch's wire traffic
            // (requests in, replies out) for the PCIe DMA stage.
            record.deser_cycles =
                static_cast<uint64_t>(std::llround(deser_cycles));
            record.ser_cycles =
                static_cast<uint64_t>(std::llround(ser_cycles));
            record.frame_cycles = static_cast<uint64_t>(
                std::llround(engine->cycles() - engine_before));
            record.wire_bytes =
                wire_bytes + (w->replies.bytes() - reply_bytes_before);
        }
        if (run_executed > 0) {
            w->accel_batches.push_back(record);
            if (tenants_ != nullptr) {
                // Measured service (device + host residue + handler)
                // for the tenant's EWMA; queueing is added at replay
                // and must not feed the estimate.
                auto &acc = w->tenant_service[run_tenant];
                acc.first += total_cycles / freq_ghz;
                acc.second += run_executed;
            }
        }
        run_start = run_end;
    }
    w->server.PublishDedupBatch();
    HealthPostBatch(w, executed);
    return executed;
}

void
RpcServerRuntime::ObserveSharedUnit(uint32_t unit, bool watchdog_fired)
{
    DeviceHealth &health = shared_unit_health_[unit];
    accel::SharedAccelQueue *queue = config_.shared_accel;
    // Keep the arbiter's probation mark in lockstep with the health
    // state machine: a probationary unit competes for work with a
    // dispatch bias until its clean streak reintegrates it.
    const auto sync_probation = [&] {
        queue->SetUnitProbation(
            unit, health.state() == HealthState::kProbation);
    };
    if (!watchdog_fired) {
        health.OnSuccess();
        sync_probation();
        return;
    }
    if (!health.OnIncident(IncidentKind::kWatchdogReset)) {
        sync_probation();
        return;  // absorbed: the batch already replayed, as before
    }
    // Quarantine: the modeled scrub + self-test occupy the unit on the
    // shared timeline (BlockUnit), so live batches route around it —
    // the earliest-free dispatcher simply never picks it until the
    // maintenance window passes. The loop covers failing self-tests
    // re-queueing another scrub + test round, bounded by
    // max_self_test_failures before the unit is permanently fenced.
    for (;;) {
        health.BeginScrub();
        const ScrubCost cost = ComputeScrubCost(config_.health);
        const uint64_t test_cycles =
            static_cast<uint64_t>(config_.health.self_test_vectors) *
            config_.health.self_test_cycles_per_vector;
        queue->BlockUnit(unit, cost.total() + test_cycles);
        health.CompleteScrub(cost);
        // The verdict draws from the unit's fault source: an
        // intermittent fault likely samples clean and reintegrates; a
        // permanent one keeps failing until the unit is fenced.
        const bool passed =
            queue->SampleUnitFaults(
                unit, config_.health.self_test_vectors) == 0;
        const HealthState verdict =
            health.CompleteSelfTest(passed, test_cycles);
        if (verdict == HealthState::kProbation) {
            sync_probation();
            return;  // reintegrated with reduced trust
        }
        if (verdict == HealthState::kFenced) {
            // Fence from arbitration. Refused for the last in-service
            // unit, which then keeps serving as the sole survivor (the
            // snapshot still reports its kFenced history).
            queue->SetUnitFenced(unit, true);
            sync_probation();
            return;
        }
    }
}

void
RpcServerRuntime::ReplayAcceleratorTimeline()
{
    if (config_.shared_accel == nullptr)
        return;
    // Closed-loop event simulation over the recorded batches: each
    // worker's next batch arrives when its previous one completed; the
    // earliest worker clock submits next (ties break to the lowest
    // worker index). The replay order depends only on the recorded
    // batches, never on host thread scheduling, so contended modeled
    // numbers are deterministic. Runs while quiescent (Drain holds no
    // locks, and pending == 0 ordered the workers' writes before us).
    for (;;) {
        Worker *next = nullptr;
        for (auto &w : workers_) {
            if (w->replay_cursor >= w->accel_batches.size())
                continue;
            if (next == nullptr || w->vclock_ns < next->vclock_ns)
                next = w.get();
        }
        if (next == nullptr)
            break;
        // Weighted-fair arbitration: FIFO (earliest vclock) is the
        // base order, but when the earliest batch would queue behind
        // busy units — it arrives at or before the device's earliest
        // free cycle, so *someone* must wait — and batches from more
        // than one tenant are contending, the DWRR arbiter picks the
        // winner by weight instead. An uncontended batch (device idle
        // at its arrival) is never re-ordered: fairness costs nothing
        // when there is no queue.
        if (arbiter_ != nullptr) {
            const AccelBatch &head =
                next->accel_batches[next->replay_cursor];
            const uint64_t min_arrival =
                static_cast<uint64_t>(std::llround(
                    next->vclock_ns *
                    next->server.backend().freq_ghz()));
            const uint64_t horizon =
                config_.shared_accel->earliest_free_cycle();
            if (head.jobs > 0 && min_arrival <= horizon) {
                std::vector<DwrrArbiter::Candidate> cands;
                std::vector<Worker *> cand_workers;
                bool multi_tenant = false;
                for (auto &w : workers_) {
                    if (w->replay_cursor >= w->accel_batches.size())
                        continue;
                    const AccelBatch &b2 =
                        w->accel_batches[w->replay_cursor];
                    if (b2.jobs == 0)
                        continue;  // software batch: never contends
                    const uint64_t arrival =
                        static_cast<uint64_t>(std::llround(
                            w->vclock_ns *
                            w->server.backend().freq_ghz()));
                    if (arrival > horizon)
                        continue;  // finds an idle unit: no queueing
                    DwrrArbiter::Candidate c;
                    c.tenant = b2.tenant;
                    c.service_cycles = b2.service_cycles;
                    c.arrival_cycle = arrival;
                    if (!cands.empty() &&
                        c.tenant != cands.front().tenant)
                        multi_tenant = true;
                    cands.push_back(c);
                    cand_workers.push_back(w.get());
                }
                if (multi_tenant)
                    next =
                        cand_workers[arbiter_->PickAndCharge(cands)];
            }
        }
        const size_t next_cursor = next->replay_cursor;
        const AccelBatch &b = next->accel_batches[next_cursor];
        next->replay_cursor = next_cursor + 1;
        const double freq_ghz =
            next->server.backend().freq_ghz();
        // Batches that fully degraded to software never rang the
        // doorbell: they occupy only the worker core's time (sw_ns),
        // never the shared device timeline.
        double device_ns = 0;
        if (b.jobs > 0) {
            const uint64_t arrival_cycle = static_cast<uint64_t>(
                std::llround(next->vclock_ns * freq_ghz));
            accel::SharedAccelQueue::Completion done;
            if (config_.offload.enabled) {
                // Offloaded datapath: one descriptor-ring doorbell for
                // the whole batch, stages pipelined across its calls,
                // wire traffic priced by the placement's transfer
                // model.
                accel::OffloadBatch ob;
                ob.jobs = b.jobs;
                ob.deser_cycles = b.deser_cycles;
                ob.ser_cycles = b.ser_cycles;
                ob.frame_cycles = b.frame_cycles;
                ob.wire_bytes = b.wire_bytes;
                ob.calls = b.calls;
                done = config_.shared_accel->SubmitOffloadBatch(
                    arrival_cycle, ob);
            } else {
                done = config_.shared_accel->SubmitBatch(
                    arrival_cycle, b.jobs, b.service_cycles);
            }
            device_ns =
                static_cast<double>(done.done_cycle - arrival_cycle) /
                freq_ghz;
            if (!shared_unit_health_.empty())
                ObserveSharedUnit(done.unit, done.watchdog_fired);
        } else if (b.frame_cycles > 0) {
            // The codec degraded to software but the frames still
            // crossed the worker's frame-engine stage; its time rides
            // the worker timeline directly (no shared unit involved).
            device_ns = static_cast<double>(b.frame_cycles) / freq_ghz;
        }
        const double latency_ns = device_ns + b.sw_ns;
        if (tenants_ != nullptr && b.jobs > 0)
            tenants_->CreditAccelCycles(b.tenant, b.service_cycles);
        for (uint32_t i = 0; i < b.calls; ++i) {
            if (config_.deadline_ns > 0 &&
                latency_ns > config_.deadline_ns)
                ++next->deadline_exceeded;
            next->call_records.push_back(
                CallRecord{b.tenant, latency_ns});
            if (tenants_ != nullptr)
                tenants_->OnCallLatency(b.tenant, latency_ns,
                                        config_.deadline_ns);
        }
        next->vclock_ns += latency_ns;
    }
    for (auto &w : workers_) {
        w->accel_batches.clear();
        w->replay_cursor = 0;
    }
}

}  // namespace protoacc::rpc
