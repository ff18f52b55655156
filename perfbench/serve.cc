/**
 * @file
 * serve_small and serve_accel: the serving runtime driven from outside.
 *
 * The driver thread frames CRC-stamped requests and feeds them through
 * RpcServerRuntime::SubmitFromStream. Each worker's backend is a stock
 * backend wrapped in Probed<>, a benchmark subclass that overrides only
 * Deserialize, SerializedSize and SerializeTo: it stamps the moment a
 * response is serialized (the end of a call for the wall latency),
 * checks the echoed bytes against the request, and in the traced run
 * records every stage of the call.
 *
 * Call ids are dealt per worker: the runtime shards by call id modulo
 * the worker count, so worker w's k-th call is id (k + 1) * workers + w
 * and serves template k * workers + w. Each worker's calls are tracked
 * in its own ring of slots. The driver fills a slot before submitting;
 * the worker that answers reads it after taking the frame from its
 * inbox (the inbox mutex orders the two), and the driver checks that
 * the slot was answered exactly once before it reuses it.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "proto/message_ops.h"
#include "rpc/server_runtime.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

using protoacc::StatusCode;
using protoacc::proto::Message;
namespace rpc = protoacc::rpc;

namespace {

constexpr uint16_t kMethod = 1;
/// Ring slots per worker (a power of two); must exceed the calls one
/// worker can have outstanding.
constexpr uint32_t kRingSlots = 1u << 13;
/// Traced run: every Nth call's spans are kept for the trace file.
constexpr uint32_t kSpanSampleEvery = 64;
constexpr size_t kSpanCapacity = 1u << 16;
/// A closed loop that sees no completion for this long has lost a call.
constexpr uint64_t kStallNs = 5'000'000'000ull;
/// Slices a closed-loop wall window is cut into for its median rate.
constexpr int kRateSlices = 10;

struct ServeConfig
{
    bool accel = false;
    uint32_t workers = 0;
    uint32_t max_batch = 0;
    /// serve_small: calls kept outstanding (window / workers on each
    /// worker); serve_accel: calls per preloaded window.
    uint32_t window = 0;
    /// Fig. 3 size cut in bytes (0 = the full distribution).
    size_t size_cut = 0;
    /// Request templates. The first `templates` calls (one pass over
    /// every template) are the modeled window and the warm-up.
    size_t templates = 0;
    size_t dedup_capacity = 0;
    uint32_t accel_units = 0;
    /// Untimed serving between the modeled and the wall window: until
    /// the host has run the loop for a while, thread wake-ups are slow
    /// and the first seconds run several times slower.
    double warmup_seconds = 0;
    /// serve_accel: give every pass over the templates a fresh runtime
    /// (see ServeRig::ReplaceRuntime).
    bool runtime_per_pass = false;
    /// Passes in the modeled window; the modeled figures are the median
    /// pass's.
    uint32_t modeled_passes = 1;
};

const ServeConfig kServeSmall{.accel = false,
                              .workers = 3,
                              .max_batch = 16,
                              .window = 96,
                              .size_cut = 512,
                              .templates = 8192,
                              .dedup_capacity = 16384,
                              .accel_units = 0,
                              .warmup_seconds = 2};
const ServeConfig kServeAccel{.accel = true,
                              .workers = 4,
                              .max_batch = 8,
                              .window = 512,
                              .size_cut = 0,
                              .templates = 16384,
                              .dedup_capacity = 16384,
                              .accel_units = 2,
                              .warmup_seconds = 1,
                              .runtime_per_pass = true,
                              .modeled_passes = 7};

void
CpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

struct CallSlot
{
    std::atomic<uint32_t> answers{0};
    uint32_t call_id = 0;
    uint32_t request = 0;  ///< template index
    uint64_t submit_ns = 0;
    /// Written by the driver after SubmitFromStream returns, which can
    /// be after the worker finished; 0 until then.
    std::atomic<uint64_t> submit_end_ns{0};
};

/// Per-worker probe state: written by the worker thread, read by the
/// driver only while the runtime is quiescent (after Drain).
struct WorkerProbe
{
    explicit WorkerProbe(uint32_t index)
        : index(index), spans(index + 1, kSpanCapacity)
    {}

    uint32_t index;
    alignas(64) std::atomic<uint64_t> completed{0};
    std::atomic<uint64_t> last_done_ns{0};
    rpc::CodecBackend *backend = nullptr;

    /// Wall window only: latencies by the rate slice they completed in.
    std::vector<std::vector<float>> latency_us;
    uint64_t wrong = 0;             ///< bad echo or unknown call id

    // ---- traced run ----
    uint64_t traced_calls = 0;
    uint64_t unmatched = 0;  ///< submit end not yet published
    double deser_ns = 0, handler_ns = 0, size_ns = 0, ser_ns = 0;
    double e2e_ns = 0, uncovered_ns = 0;  ///< calls with a known submit end
    double cpu_cycles = 0;    ///< host cost model, backend clock
    double device_cycles = 0; ///< device units, backend clock
    std::vector<float> wait_us;
    std::vector<float> gap_ns;  ///< worker 0 only
    SpanBuffer spans;

    // ---- the call in flight (one at a time per worker) ----
    uint64_t deser_start = 0, deser_end = 0;
    uint64_t handler_start = 0, handler_end = 0;
    uint64_t size_start = 0, size_end = 0;
    uint64_t prev_ser_end = 0;
    uint32_t prev_epoch = 0;
};

/// State shared by the driver and every probe.
struct ServeShared
{
    explicit ServeShared(uint32_t workers) : workers(workers)
    {
        for (uint32_t w = 0; w < workers; ++w)
            rings.emplace_back(kRingSlots);
    }

    CallSlot &
    Slot(uint32_t id)
    {
        return rings[id % workers][(id / workers - 1) & (kRingSlots - 1)];
    }

    uint32_t workers;
    std::vector<std::vector<CallSlot>> rings;
    const RequestSet *requests = nullptr;
    /// Rate slice of the wall window in progress; -1 outside it.
    std::atomic<int> wall_slice{-1};
    std::atomic<bool> trace{false};
    /// Bumped per serve_accel window so worker gaps never span one.
    std::atomic<uint32_t> epoch{0};
};

thread_local WorkerProbe *tls_probe = nullptr;

/**
 * A stock backend with the benchmark's stamps around the three codec
 * calls the slimmer codec interface keeps. Everything else is the
 * stock backend's.
 */
template <class Base>
class Probed : public Base
{
  public:
    template <class... Args>
    Probed(ServeShared *shared, WorkerProbe *probe, Args &&...args)
        : Base(std::forward<Args>(args)...), shared_(shared), probe_(probe)
    {
        probe_->backend = this;
    }

    StatusCode
    Deserialize(const uint8_t *data, size_t size, Message *msg) override
    {
        tls_probe = probe_;
        if (!shared_->trace.load(std::memory_order_relaxed))
            return Base::Deserialize(data, size, msg);
        const double c0 = this->codec_cycles(), a0 = this->accel_cycles();
        probe_->deser_start = NowNs();
        const StatusCode st = Base::Deserialize(data, size, msg);
        probe_->deser_end = NowNs();
        Charge(c0, a0);
        return st;
    }

    size_t
    SerializedSize(const Message &msg) override
    {
        if (!shared_->trace.load(std::memory_order_relaxed))
            return Base::SerializedSize(msg);
        probe_->size_start = NowNs();
        const size_t n = Base::SerializedSize(msg);
        probe_->size_end = NowNs();
        return n;
    }

    size_t
    SerializeTo(const Message &msg, uint8_t *buf, size_t cap) override
    {
        if (!shared_->trace.load(std::memory_order_relaxed)) {
            const size_t n = Base::SerializeTo(msg, buf, cap);
            Complete(msg, buf, n, 0, NowNs());
            return n;
        }
        const double c0 = this->codec_cycles(), a0 = this->accel_cycles();
        const uint64_t start = NowNs();
        const size_t n = Base::SerializeTo(msg, buf, cap);
        const uint64_t end = NowNs();
        Charge(c0, a0);
        Complete(msg, buf, n, start, end);
        return n;
    }

  private:
    void
    Charge(double c0, double a0)
    {
        const double device = this->accel_cycles() - a0;
        probe_->device_cycles += device;
        probe_->cpu_cycles += this->codec_cycles() - c0 - device;
    }

    /// The response for one call is serialized: check it, stamp it.
    void
    Complete(const Message &msg, const uint8_t *buf, size_t n,
             uint64_t ser_start, uint64_t done)
    {
        WorkerProbe &p = *probe_;
        const uint32_t id = static_cast<uint32_t>(
            msg.GetUint64(*shared_->requests->id_field));
        CallSlot &slot = shared_->Slot(id);
        if (slot.call_id != id) {
            ++p.wrong;  // an answer for a call that is not in flight
        } else {
            // The echo must be the request byte for byte.
            const std::vector<uint8_t> &rest =
                shared_->requests->rest[slot.request];
            uint8_t prefix[16];
            const size_t head = EncodeRequest(id, {}, prefix);
            if (n != head + rest.size() ||
                std::memcmp(buf, prefix, head) != 0 ||
                (!rest.empty() &&
                 std::memcmp(buf + head, rest.data(), rest.size()) != 0))
                ++p.wrong;
            const int slice =
                shared_->wall_slice.load(std::memory_order_relaxed);
            if (slice >= 0) {
                if (p.latency_us.size() <= static_cast<size_t>(slice))
                    p.latency_us.resize(slice + 1);
                p.latency_us[slice].push_back(
                    static_cast<float>(done - slot.submit_ns) / 1e3f);
            }
            if (ser_start != 0)
                RecordStages(p, slot, id, ser_start, done);
            slot.answers.fetch_add(1, std::memory_order_release);
        }
        p.last_done_ns.store(done, std::memory_order_relaxed);
        p.completed.fetch_add(1, std::memory_order_release);
    }

    void
    RecordStages(WorkerProbe &p, CallSlot &slot, uint32_t id,
                 uint64_t ser_start, uint64_t ser_end)
    {
        const uint32_t epoch = shared_->epoch.load(std::memory_order_relaxed);
        if (p.index == 0 && p.prev_ser_end != 0 && p.prev_epoch == epoch)
            p.gap_ns.push_back(
                static_cast<float>(p.deser_start - p.prev_ser_end));
        p.prev_ser_end = ser_end;
        p.prev_epoch = epoch;

        const double deser = static_cast<double>(p.deser_end - p.deser_start);
        const double handler =
            static_cast<double>(p.handler_end - p.handler_start);
        const double size = static_cast<double>(p.size_end - p.size_start);
        const double ser = static_cast<double>(ser_end - ser_start);
        p.deser_ns += deser;
        p.handler_ns += handler;
        p.size_ns += size;
        p.ser_ns += ser;
        ++p.traced_calls;
        const uint64_t submit_end =
            slot.submit_end_ns.load(std::memory_order_acquire);
        if (submit_end == 0 || submit_end > p.deser_start) {
            ++p.unmatched;
        } else {
            const double ingress =
                static_cast<double>(submit_end - slot.submit_ns);
            const double wait =
                static_cast<double>(p.deser_start - submit_end);
            const double e2e = static_cast<double>(ser_end - slot.submit_ns);
            p.e2e_ns += e2e;
            p.uncovered_ns +=
                e2e - ingress - wait - deser - handler - size - ser;
            p.wait_us.push_back(static_cast<float>(wait / 1e3));
        }
        if (id % kSpanSampleEvery == 0) {
            const uint64_t root = CallSpanId(id);
            p.spans.RecordWithId(root, SpanKind::kCall, id, slot.submit_ns,
                                 ser_end, 0);
            p.spans.Record(SpanKind::kDeser, id, p.deser_start, p.deser_end,
                           root);
            p.spans.Record(SpanKind::kHandler, id, p.handler_start,
                           p.handler_end, root);
            p.spans.Record(SpanKind::kSize, id, p.size_start, p.size_end,
                           root);
            p.spans.Record(SpanKind::kSer, id, ser_start, ser_end, root);
        }
    }

    ServeShared *shared_;
    WorkerProbe *probe_;
};

/// Counters of every runtime a run has used (serve_accel replaces its
/// runtime between passes; see ServeRig::ReplaceRuntime).
struct Totals
{
    uint64_t calls = 0, failures = 0, shed = 0, crc_rejects = 0;
    uint64_t generated_fallbacks = 0, fallback_ops = 0, batches = 0;
    uint64_t dedup_insertions = 0, dedup_evictions = 0;
    double frame_cycles = 0, deser_cycles = 0, ser_cycles = 0;
    /// Sum and count of the modeled latencies taken so far.
    double latency_ns = 0;
    uint64_t latency_calls = 0;
    /// The shared queue's counters over each runtime's timeline.
    double queue_batches = 0, queue_jobs = 0, queue_contended = 0;
    double queue_wait_cycles = 0, queue_service_cycles = 0;

    /// Fold in one runtime's snapshot, its backends' device cycles and
    /// the shared queue's counters for its timeline.
    void
    Add(const rpc::RuntimeSnapshot &s,
        const std::vector<std::unique_ptr<WorkerProbe>> &probes,
        const protoacc::accel::SharedAccelQueue::Stats &q)
    {
        calls += s.calls;
        failures += s.failures;
        shed += s.shed;
        crc_rejects += s.crc_rejects;
        generated_fallbacks += s.generated_fallbacks;
        fallback_ops += s.fallback_accel_fault + s.fallback_forced;
        dedup_insertions += s.dedup_insertions;
        dedup_evictions += s.dedup_evictions;
        for (const rpc::WorkerSnapshot &w : s.workers)
            batches += w.batches;
        frame_cycles += s.offload_frame_cycles;
        for (const auto &p : probes) {
            deser_cycles += p->backend->accel_deser_cycles();
            ser_cycles += p->backend->accel_ser_cycles();
        }
        queue_batches += static_cast<double>(q.batches);
        queue_jobs += static_cast<double>(q.jobs);
        queue_contended += static_cast<double>(q.contended_batches);
        queue_wait_cycles += static_cast<double>(q.total_wait_cycles);
        queue_service_cycles += static_cast<double>(q.total_service_cycles);
    }
};

/// Everything one serving run needs, built by the timed set-up.
struct ServeRig
{
    ServeRig(const ServeConfig &cfg, uint64_t seed)
        : requests(BuildRequests(seed, cfg.templates, cfg.size_cut,
                                 cfg.accel ? cfg.window : 0)),
          shared(cfg.workers)
    {
        shared.requests = &requests;
        for (uint32_t w = 0; w < cfg.workers; ++w)
            probes.push_back(std::make_unique<WorkerProbe>(w));

        protoacc::accel::SharedQueueConfig qc;
        qc.num_units = std::max<uint32_t>(cfg.accel_units, 1);
        queue = std::make_unique<protoacc::accel::SharedAccelQueue>(qc);

        config.num_workers = cfg.workers;
        config.max_batch = cfg.max_batch;
        config.record_replies = false;
        config.dedup_capacity = cfg.dedup_capacity;
        if (cfg.accel) {
            config.shared_accel = queue.get();
            config.offload.enabled = true;
        }
        const auto &pool = *requests.schema.pool;
        const auto engine = protoacc::proto::SoftwareCodecEngine::kGenerated;
        if (cfg.accel) {
            factory = [this, &pool, engine](uint32_t w)
                -> std::unique_ptr<rpc::CodecBackend> {
                return std::make_unique<Probed<rpc::HybridCodecBackend>>(
                    &shared, probes[w].get(),
                    std::make_unique<rpc::AcceleratedBackend>(pool),
                    std::make_unique<rpc::SoftwareBackend>(
                        protoacc::cpu::BoomParams(), pool, engine));
            };
        } else {
            factory = [this, &pool, engine](uint32_t w)
                -> std::unique_ptr<rpc::CodecBackend> {
                return std::make_unique<Probed<rpc::SoftwareBackend>>(
                    &shared, probes[w].get(), protoacc::cpu::BoomParams(),
                    pool, engine);
            };
        }
        runtime = MakeRuntime();
    }

    std::unique_ptr<rpc::RpcServerRuntime>
    MakeRuntime()
    {
        auto rt = std::make_unique<rpc::RpcServerRuntime>(
            requests.schema.pool.get(), factory, config);
        ServeShared *s = &shared;
        rt->RegisterMethod(
            kMethod, requests.schema.root, requests.schema.root,
            [s](const Message &request, Message response) {
                WorkerProbe *p = tls_probe;
                const bool traced = s->trace.load(std::memory_order_relaxed);
                if (traced)
                    p->handler_start = NowNs();
                protoacc::proto::CopyFrom(response, request);
                if (traced)
                    p->handler_end = NowNs();
            });
        return rt;
    }

    /**
     * Retire the (shut down) runtime into the totals and start over
     * with fresh workers and backends. The device backend never resets
     * the arena it deserializes into, so one runtime's memory grows
     * with every call it serves; serve_accel replaces it between passes
     * to keep a run's memory flat. The new workers' modeled clocks start
     * at 0, so the shared queue's timeline restarts too: otherwise their
     * first batches would wait out the old runtime's whole history.
     */
    void
    ReplaceRuntime()
    {
        TakeLatencies();
        retired.Add(runtime->Snapshot(), probes, queue->stats());
        runtime.reset();
        queue->Reset();
        runtime = MakeRuntime();
    }

    /// Move the runtime's modeled latencies into the totals.
    void
    TakeLatencies()
    {
        for (const double v : runtime->TakeLatencies()) {
            retired.latency_ns += v;
            ++retired.latency_calls;
        }
    }

    /// Totals of the retired runtimes plus the live one (quiescent).
    Totals
    Now() const
    {
        Totals t = retired;
        t.Add(runtime->Snapshot(), probes, queue->stats());
        return t;
    }

    uint64_t
    Completed() const
    {
        uint64_t n = 0;
        for (const auto &p : probes)
            n += p->completed.load(std::memory_order_acquire);
        return n;
    }

    uint64_t
    LastDoneNs() const
    {
        uint64_t t = 0;
        for (const auto &p : probes)
            t = std::max(t, p->last_done_ns.load(std::memory_order_relaxed));
        return t;
    }

    RequestSet requests;
    ServeShared shared;
    std::vector<std::unique_ptr<WorkerProbe>> probes;
    std::unique_ptr<protoacc::accel::SharedAccelQueue> queue;
    rpc::RuntimeConfig config;
    rpc::RpcServerRuntime::BackendFactory factory;
    Totals retired;
    /// Declared last: destroyed (and its workers joined) first.
    std::unique_ptr<rpc::RpcServerRuntime> runtime;
};

/// Totals of one measured phase.
struct Phase
{
    uint64_t calls = 0;
    uint64_t wire_bytes = 0;  ///< request + response payloads
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;      ///< last Drain return
    uint64_t ingress_ns = 0;  ///< traced only
    uint64_t drain_tail_ns = 0;
    uint64_t drains = 0;
    bool stalled = false;
    /// Calls per second of each tenth of a closed loop, or of each pass
    /// of the windows over every template: the wall rate is their median,
    /// so a host hiccup in one slice does not move it.
    std::vector<double> rates;

    /// Median slice rate; the whole phase's rate when it was too short
    /// to finish a slice.
    double
    rate() const
    {
        return rates.empty() ? static_cast<double>(calls) * 1e9 /
                                   static_cast<double>(end_ns - start_ns)
                             : Median(rates);
    }
};

/// The driver: frames and submits calls, tracks the rings.
class Driver
{
  public:
    Driver(ServeRig *rig, const ServeConfig &cfg)
        : rig_(rig), cfg_(cfg), next_k_(cfg.workers, 0),
          spans_(0, kSpanCapacity)
    {
        header_.method_id = kMethod;
        header_.kind = rpc::FrameKind::kRequest;
    }

    /// serve_small: keep cfg.window / workers calls outstanding on every
    /// worker until @p max_calls calls (the templates 0..max_calls-1)
    /// were submitted or @p seconds passed, then Drain.
    Phase
    ClosedLoop(uint64_t max_calls, double seconds, bool traced)
    {
        Phase ph;
        ph.start_ns = NowNs();
        const uint64_t deadline =
            ph.start_ns + static_cast<uint64_t>(seconds * 1e9);
        const uint32_t n = cfg_.workers;
        const uint64_t per_worker = cfg_.window / n;
        std::vector<uint64_t> stop(n, UINT64_MAX);
        if (max_calls != UINT64_MAX)
            for (uint32_t w = 0; w < n; ++w)
                stop[w] = next_k_[w] + (max_calls + n - 1 - w) / n;
        uint64_t since = ph.start_ns;
        uint64_t seen = rig_->Completed();
        const uint64_t slice_ns = static_cast<uint64_t>(
            std::min(seconds, 1e6) * 1e9 / kRateSlices);
        uint64_t slice_start = ph.start_ns, slice_calls = 0;
        for (uint32_t w = 0, idle = 0;; w = (w + 1) % n) {
            if ((ph.calls & 63) == 0) {
                const uint64_t now = NowNs();
                if (now >= deadline)
                    break;
                if (now - slice_start >= slice_ns) {
                    NextSlice();
                    ph.rates.push_back(
                        static_cast<double>(ph.calls - slice_calls) * 1e9 /
                        static_cast<double>(now - slice_start));
                    slice_start = now;
                    slice_calls = ph.calls;
                }
            }
            if (next_k_[w] < stop[w] &&
                next_k_[w] - rig_->probes[w]->completed.load(
                                 std::memory_order_acquire) <
                    per_worker) {
                Submit(&ph, traced, w);
                idle = 0;
                continue;
            }
            if (++idle < n)
                continue;
            // No worker can take a call: done, or wait for a completion.
            bool done = true;
            for (uint32_t v = 0; v < n; ++v)
                done &= next_k_[v] >= stop[v];
            if (done)
                break;
            CpuRelax();
            if ((idle & 1023) == 0) {
                const uint64_t now = NowNs();
                const uint64_t completed = rig_->Completed();
                if (completed != seen) {
                    seen = completed;
                    since = now;
                } else if (now - since > kStallNs) {
                    ph.stalled = true;
                    break;
                }
            }
        }
        DrainTimed(&ph, traced, 0);
        return ph;
    }

    /// serve_accel: preload cfg.window calls, Start, Drain, Shutdown;
    /// repeat for @p max_windows windows or until @p seconds passed.
    Phase
    Windows(uint64_t max_windows, double seconds, bool traced)
    {
        Phase ph;
        ph.start_ns = NowNs();
        const uint64_t deadline =
            ph.start_ns + static_cast<uint64_t>(seconds * 1e9);
        const uint64_t per_pass = cfg_.templates / cfg_.window;
        uint64_t pass_start = ph.start_ns, pass_calls = 0;
        for (uint64_t w = 0; w < max_windows && NowNs() < deadline; ++w) {
            if (w % per_pass == 0) {
                // Retire the last pass's runtime only now, so that it
                // stays readable until the next pass.
                if (cfg_.runtime_per_pass && passes_ != fresh_at_) {
                    rig_->ReplaceRuntime();
                    fresh_at_ = passes_;
                }
                pass_start = NowNs();
                pass_calls = ph.calls;
            }
            rig_->shared.epoch.fetch_add(1, std::memory_order_relaxed);
            const uint64_t win_start = NowNs();
            for (uint32_t i = 0; i < cfg_.window; ++i)
                Submit(&ph, traced, i % cfg_.workers);
            rig_->runtime->Start();
            DrainTimed(&ph, traced, win_start);
            rig_->runtime->Shutdown();
            if ((w + 1) % per_pass == 0) {
                NextSlice();
                ph.rates.push_back(static_cast<double>(ph.calls - pass_calls) *
                                   1e9 /
                                   static_cast<double>(ph.end_ns - pass_start));
                ++passes_;
            }
        }
        return ph;
    }

    /// After the last phase: every call still in the rings must have
    /// been answered exactly once.
    void
    CheckRings()
    {
        for (auto &ring : rig_->shared.rings)
            for (CallSlot &slot : ring)
                CheckAnswered(slot);
    }

    uint64_t submitted() const { return submitted_; }
    uint64_t lost() const { return lost_; }
    uint64_t duplicated() const { return duplicated_; }
    uint64_t submit_errors() const { return submit_errors_; }
    const SpanBuffer &spans() const { return spans_; }

  private:
    /// Completions from here on belong to the next rate slice.
    void
    NextSlice()
    {
        std::atomic<int> &slice = rig_->shared.wall_slice;
        const int cur = slice.load(std::memory_order_relaxed);
        if (cur >= 0)
            slice.store(cur + 1, std::memory_order_relaxed);
    }

    void
    CheckAnswered(CallSlot &slot)
    {
        if (slot.call_id == 0)
            return;
        const uint32_t a = slot.answers.load(std::memory_order_acquire);
        if (a == 0)
            ++lost_;
        else if (a > 1)
            ++duplicated_;
    }

    void
    Submit(Phase *ph, bool traced, uint32_t worker)
    {
        const uint32_t n = cfg_.workers;
        const uint64_t k = next_k_[worker]++;
        const uint32_t id = static_cast<uint32_t>((k + 1) * n + worker);
        const uint32_t request = static_cast<uint32_t>(
            (k * n + worker) % rig_->requests.rest.size());
        const std::vector<uint8_t> &rest = rig_->requests.rest[request];
        CallSlot &slot = rig_->shared.Slot(id);
        if (slot.call_id != 0) {
            // Reusing the slot: its previous call must be answered.
            const uint64_t since = NowNs();
            while (slot.answers.load(std::memory_order_acquire) == 0 &&
                   NowNs() - since < kStallNs)
                CpuRelax();
            CheckAnswered(slot);
        }
        slot.call_id = id;
        slot.request = request;
        slot.answers.store(0, std::memory_order_relaxed);
        slot.submit_end_ns.store(0, std::memory_order_relaxed);

        header_.call_id = id;
        header_.idempotency_key = id;
        uint8_t *payload =
            ingress_.ReserveFrame(header_, MaxRequestBytes(rest));
        const size_t bytes = EncodeRequest(id, rest, payload);
        ingress_.CommitFrame(bytes);

        size_t offset = 0;
        slot.submit_ns = NowNs();
        const StatusCode st = rig_->runtime->SubmitFromStream(ingress_,
                                                              &offset);
        if (traced) {
            const uint64_t end = NowNs();
            slot.submit_end_ns.store(end, std::memory_order_release);
            ph->ingress_ns += end - slot.submit_ns;
            if (id % kSpanSampleEvery == 0)
                spans_.Record(SpanKind::kIngress, id, slot.submit_ns, end,
                              CallSpanId(id));
        }
        ingress_.clear();
        if (st != StatusCode::kOk)
            ++submit_errors_;
        ++submitted_;
        ++ph->calls;
        ph->wire_bytes += 2 * bytes;
    }

    void
    DrainTimed(Phase *ph, bool traced, uint64_t window_start)
    {
        const uint64_t start = NowNs();
        rig_->runtime->Drain();
        const uint64_t end = NowNs();
        ph->end_ns = end;
        const uint64_t last = rig_->LastDoneNs();
        if (last != 0 && last <= end)
            ph->drain_tail_ns += end - last;
        ++ph->drains;
        if (traced) {
            const uint64_t parent =
                window_start != 0
                    ? spans_.Record(SpanKind::kWindow, 0, window_start, end,
                                    0)
                    : 0;
            spans_.Record(SpanKind::kDrain, 0, start, end, parent);
        }
    }

    ServeRig *rig_;
    const ServeConfig &cfg_;
    rpc::FrameBuffer ingress_;
    rpc::FrameHeader header_;
    /// Next per-worker call index k.
    std::vector<uint64_t> next_k_;
    /// serve_accel passes over every template so far, and their count
    /// when the runtime was last replaced.
    uint64_t passes_ = 0;
    uint64_t fresh_at_ = 0;
    uint64_t submitted_ = 0;
    uint64_t lost_ = 0;
    uint64_t duplicated_ = 0;
    uint64_t submit_errors_ = 0;
    SpanBuffer spans_;
};

double
NearestRankFloat(std::vector<float> *v, double p)
{
    if (v->empty())
        return std::nan("");
    const size_t idx = NearestRankIndex(v->size(), p);
    std::nth_element(v->begin(), v->begin() + static_cast<long>(idx),
                     v->end());
    return (*v)[idx];
}

std::string
ParamsJson(const ServeConfig &cfg, const RequestSet &req)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"workers\": %u, \"driver_threads\": 1, \"max_batch\": %u, "
        "\"%s\": %u, \"size_cut_bytes\": %zu, \"fleet_share_kept\": %.4f, "
        "\"templates\": %zu, \"modeled_passes\": %u, "
        "\"runtime_per_pass\": %s, "
        "\"mean_payload_bytes\": %.1f, \"dedup_capacity\": %zu, "
        "\"backend\": \"%s\", \"schema\": \"genpools::BuildSkewPool(1)\", "
        "\"shared_queue_units\": %u, \"offload\": %s}",
        cfg.workers, cfg.max_batch,
        cfg.accel ? "window_calls" : "outstanding_calls", cfg.window,
        cfg.size_cut, FleetShareBelow(cfg.size_cut), cfg.templates,
        cfg.modeled_passes,
        cfg.runtime_per_pass ? "true" : "false",
        req.mean_payload_bytes, cfg.dedup_capacity,
        cfg.accel ? "HybridCodecBackend(AcceleratedBackend, "
                    "SoftwareBackend(boom, generated))"
                  : "SoftwareBackend(boom, generated)",
        cfg.accel_units, cfg.accel ? "true" : "false");
    return buf;
}

WorkloadResult
RunServe(const ServeConfig &cfg, const RunOptions &opt)
{
    WorkloadResult res;
    MetricValues &m = res.metrics;

    // ---- set-up, timed several times; the last rig is used ----
    std::vector<double> setups;
    std::unique_ptr<ServeRig> rig;
    for (int r = 0; r < std::max(opt.setup_reps, 1); ++r) {
        rig.reset();
        const uint64_t t0 = NowNs();
        rig = std::make_unique<ServeRig>(cfg, opt.seed);
        setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    m.Set("setup_s", Median(setups));
    res.params_json = ParamsJson(cfg, rig->requests);

    Driver driver(rig.get(), cfg);
    const uint64_t windows_per_pass = cfg.templates / cfg.window;

    // ---- modeled window: passes over every template (also the
    //      warm-up), each on its own runtime on serve_accel. Calls
    //      1..templates are the same on every run of a seed, so
    //      serve_small's one pass repeats exactly. The device model
    //      prices real heap addresses, which move with thread timing, so
    //      serve_accel's figures are the median of several passes. ----
    if (!cfg.accel)
        rig->runtime->Start();
    std::vector<double> pass_qps, pass_p50, pass_p99;
    uint64_t modeled_calls = 0;
    bool modeled_stalled = false;
    for (uint32_t pass = 0; pass < cfg.modeled_passes; ++pass) {
        const Phase ph = cfg.accel
                             ? driver.Windows(windows_per_pass, 1e9, false)
                             : driver.ClosedLoop(cfg.templates, 1e9, false);
        modeled_calls += ph.calls;
        modeled_stalled |= ph.stalled;
        pass_qps.push_back(rig->runtime->Snapshot().modeled_qps());
        std::vector<double> lat = rig->runtime->TakeLatencies();
        for (double &v : lat)
            v /= 1e3;  // ns -> us
        pass_p50.push_back(NearestRank(lat, 50));
        pass_p99.push_back(NearestRank(lat, 99));
        // Memory with the workload at full size on one runtime. Later the
        // runtime keeps a record per call, so growth follows the host's
        // speed, and serve_accel's retired runtimes leave heaps whose
        // reuse follows thread timing (4-10% over the next six passes).
        if (pass == 0)
            m.Set("peak_rss_mib", AnonRssMib());
    }
    m.Set("modeled_qps", Median(pass_qps));
    m.Set("modeled_p50_us", Median(pass_p50));
    m.Set("modeled_p99_us", Median(pass_p99));

    // ---- wall window(s) ----
    const auto run_phase = [&](double seconds, bool traced) {
        rig->shared.trace.store(traced, std::memory_order_relaxed);
        return cfg.accel ? driver.Windows(UINT64_MAX, seconds, traced)
                         : driver.ClosedLoop(UINT64_MAX, seconds, traced);
    };
    run_phase(std::min(cfg.warmup_seconds, opt.seconds / 2), false);
    rig->shared.wall_slice.store(0, std::memory_order_relaxed);
    const double wall_seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
    const Phase wall = run_phase(wall_seconds, false);
    rig->shared.wall_slice.store(-1, std::memory_order_relaxed);

    const double wall_qps = wall.rate();
    m.Set("wall_qps", wall_qps);
    m.Set("wall_gbps", wall_qps * static_cast<double>(wall.wire_bytes) /
                           static_cast<double>(wall.calls) * 8.0 / 1e9);

    // Latency percentiles per rate slice, then their median across
    // slices. Lost calls never reached serialize: infinitely late.
    size_t wall_samples = 0;
    std::vector<double> p50s, p99s;
    std::vector<float> lat;
    for (size_t slice = 0;; ++slice) {
        lat.clear();
        bool any = false;
        for (auto &p : rig->probes) {
            if (p->latency_us.size() <= slice)
                continue;
            any = true;
            lat.insert(lat.end(), p->latency_us[slice].begin(),
                       p->latency_us[slice].end());
            std::vector<float>().swap(p->latency_us[slice]);
        }
        if (!any)
            break;
        wall_samples += lat.size();
        if (!HasTailSamples(lat.size(), 99))
            continue;
        p50s.push_back(NearestRankFloat(&lat, 50));
        p99s.push_back(NearestRankFloat(&lat, 99));
    }
    const bool lost_any = wall_samples < wall.calls;
    m.Set("wall_p50_us", lost_any ? kInf : Median(p50s));
    m.Set("wall_p99_us", lost_any ? kInf : Median(p99s));

    // ---- traced window ----
    Phase traced;
    rig->TakeLatencies();
    const Totals before_trace = rig->Now();
    if (opt.trace) {
        traced = run_phase(opt.seconds / 2, true);
        rig->shared.trace.store(false, std::memory_order_relaxed);
    }
    rig->runtime->Shutdown();
    rig->TakeLatencies();
    driver.CheckRings();

    // ---- output checks ----
    const Totals snap = rig->Now();
    const double modeled_traced_ns =
        snap.latency_ns - before_trace.latency_ns;
    const uint64_t modeled_traced_calls =
        snap.latency_calls - before_trace.latency_calls;
    uint64_t wrong = 0;
    for (const auto &p : rig->probes)
        wrong += p->wrong;
    const uint64_t fallback_ops = snap.fallback_ops;
    const auto check = [&res](bool ok, const std::string &what) {
        if (!ok)
            res.check_failures.push_back(what);
    };
    check(snap.calls == driver.submitted(),
          "runtime executed " + std::to_string(snap.calls) + " of " +
              std::to_string(driver.submitted()) + " calls");
    check(wrong == 0, std::to_string(wrong) + " wrong echoes");
    check(driver.lost() == 0,
          std::to_string(driver.lost()) + " calls never answered");
    check(driver.duplicated() == 0,
          std::to_string(driver.duplicated()) + " calls answered twice");
    check(driver.submit_errors() == 0,
          std::to_string(driver.submit_errors()) + " submits refused");
    check(snap.failures == 0,
          std::to_string(snap.failures) + " error replies");
    check(snap.shed == 0, std::to_string(snap.shed) + " sheds");
    check(snap.crc_rejects == 0,
          std::to_string(snap.crc_rejects) + " CRC rejects");
    check(snap.generated_fallbacks == 0,
          std::to_string(snap.generated_fallbacks) + " generated fallbacks");
    check(fallback_ops == 0,
          std::to_string(fallback_ops) + " hybrid fallback ops");
    check(!modeled_stalled && !wall.stalled && !traced.stalled,
          "closed loop stalled (no completion for 5 s)");
    check(modeled_calls == cfg.templates * cfg.modeled_passes,
          "modeled window ran " + std::to_string(modeled_calls) + " calls");
    res.attempted = driver.submitted();
    res.failed = wrong + driver.lost() + driver.duplicated() +
                 driver.submit_errors() + snap.failures + snap.shed +
                 snap.crc_rejects;
    m.Set("run.fail_frac", static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted));

    // ---- per-layer (traced run) ----
    if (opt.trace) {
        double deser_ns = 0, handler_ns = 0, size_ns = 0, ser_ns = 0;
        double e2e_ns = 0, uncovered_ns = 0, cpu_cycles = 0,
               device_cycles = 0;
        uint64_t calls = 0, matched = 0;
        for (const auto &p : rig->probes) {
            deser_ns += p->deser_ns;
            handler_ns += p->handler_ns;
            size_ns += p->size_ns;
            ser_ns += p->ser_ns;
            e2e_ns += p->e2e_ns;
            uncovered_ns += p->uncovered_ns;
            calls += p->traced_calls;
            matched += p->traced_calls - p->unmatched;
            cpu_cycles += p->cpu_cycles;
            device_cycles += p->device_cycles;
        }
        const double n = static_cast<double>(std::max<uint64_t>(calls, 1));
        const double nm = static_cast<double>(std::max<uint64_t>(matched, 1));
        const double freq = rig->probes[0]->backend->freq_ghz();
        m.Set("rpc.ingress_ns", static_cast<double>(traced.ingress_ns) /
                                    static_cast<double>(traced.calls));
        m.Set("rpc.ingress_busy_frac",
              static_cast<double>(traced.ingress_ns) /
                  static_cast<double>(traced.end_ns - traced.start_ns));
        std::vector<float> waits;
        for (const auto &p : rig->probes)
            waits.insert(waits.end(), p->wait_us.begin(), p->wait_us.end());
        m.Set("rpc.inbox_wait_p50_us", NearestRankFloat(&waits, 50));
        m.Set("rpc.inbox_wait_p99_us", NearestRankFloat(&waits, 99));
        std::vector<float> gaps = rig->probes[0]->gap_ns;
        m.Set("rpc.worker_gap_p50_ns", NearestRankFloat(&gaps, 50));
        double gap_sum = 0;
        for (float g : gaps)
            gap_sum += g;
        m.Set("rpc.worker_gap_mean_ns",
              gap_sum / static_cast<double>(std::max<size_t>(gaps.size(), 1)));
        m.Set("rpc.handler_ns", handler_ns / n);
        m.Set("rpc.drain_tail_ms",
              static_cast<double>(traced.drain_tail_ns) /
                  static_cast<double>(std::max<uint64_t>(traced.drains, 1)) /
                  1e6);
        if (cfg.accel) {
            m.Set("proto.ser_ns", size_ns / n);
            m.Set("accel.deser_host_ns", deser_ns / n);
            m.Set("accel.ser_host_ns", ser_ns / n);
        } else {
            m.Set("proto.deser_ns", deser_ns / n);
            m.Set("proto.ser_ns", (size_ns + ser_ns) / n);
        }
        m.Set("cpu.codec_ns_per_call", cpu_cycles / freq / n);
        m.Set("trace.overhead_frac", 1.0 - traced.rate() / wall_qps);
        m.Set("trace.host_uncovered_ns", uncovered_ns / nm);
        m.Set("trace.host_uncovered_frac", uncovered_ns / e2e_ns);

        // Modeled residue: latency minus CostSink codec time, device-stage
        // time and queue-wait time, per traced call.
        double modeled_stage_ns = (cpu_cycles + device_cycles) / freq;
        const double calls_all = static_cast<double>(snap.calls);
        if (cfg.accel) {
            const double batches =
                snap.queue_batches - before_trace.queue_batches;
            const double wait_cycles =
                snap.queue_wait_cycles - before_trace.queue_wait_cycles;
            const double traced_calls =
                static_cast<double>(modeled_traced_calls);
            // Every call in a batch waits the batch's queueing delay.
            modeled_stage_ns += wait_cycles / std::max(batches, 1.0) *
                                traced_calls / freq;
            modeled_stage_ns +=
                (snap.frame_cycles - before_trace.frame_cycles) / freq;
            m.Set("accel.deser_cycles_per_call",
                  snap.deser_cycles / calls_all);
            m.Set("accel.ser_cycles_per_call", snap.ser_cycles / calls_all);
            m.Set("accel.frame_cycles_per_call",
                  snap.frame_cycles / calls_all);
            m.Set("accel.wait_share",
                  snap.queue_wait_cycles /
                      (snap.queue_wait_cycles + snap.queue_service_cycles));
            m.Set("accel.contended_batch_frac",
                  snap.queue_contended / snap.queue_batches);
            m.Set("accel.jobs_per_batch",
                  snap.queue_jobs / snap.queue_batches);
        }
        const double modeled_uncovered =
            (modeled_traced_ns - modeled_stage_ns) /
            static_cast<double>(std::max<uint64_t>(modeled_traced_calls, 1));
        m.Set("trace.modeled_uncovered_ns", modeled_uncovered);
        m.Set("trace.modeled_uncovered_frac",
              modeled_traced_ns > 0
                  ? modeled_uncovered * static_cast<double>(
                                            modeled_traced_calls) /
                        modeled_traced_ns
                  : 0);

        std::vector<const SpanBuffer *> buffers = {&driver.spans()};
        uint64_t kept = driver.spans().spans().size();
        for (const auto &p : rig->probes) {
            buffers.push_back(&p->spans);
            kept += p->spans.spans().size();
        }
        m.Set("trace.spans", static_cast<double>(kept));
        if (!opt.trace_path.empty() &&
            !WriteChromeTrace(opt.trace_path, buffers, traced.start_ns))
            res.check_failures.push_back("cannot write " + opt.trace_path);
    }
    m.Set("rpc.calls_per_batch", static_cast<double>(snap.calls) /
                                     static_cast<double>(snap.batches));
    m.Set("rpc.failures", static_cast<double>(snap.failures));
    m.Set("rpc.shed", static_cast<double>(snap.shed));
    m.Set("rpc.crc_rejects", static_cast<double>(snap.crc_rejects));
    m.Set("rpc.generated_fallbacks",
          static_cast<double>(snap.generated_fallbacks));
    m.Set("rpc.fallback_ops", static_cast<double>(fallback_ops));
    m.Set("rpc.dedup_insertions", static_cast<double>(snap.dedup_insertions));
    m.Set("rpc.dedup_evictions", static_cast<double>(snap.dedup_evictions));

    // What each request frame's CRC covers: the header up to the CRC
    // field, then the payload.
    std::vector<std::vector<uint8_t>> frames;
    for (size_t i = 0; i < rig->requests.rest.size(); ++i) {
        std::vector<uint8_t> payload(MaxRequestBytes(rig->requests.rest[i]));
        rpc::FrameHeader h;
        h.call_id = static_cast<uint32_t>(i + 1);
        h.payload_bytes = static_cast<uint32_t>(
            EncodeRequest(i + 1, rig->requests.rest[i], payload.data()));
        rpc::FrameBuffer fb;
        fb.Append(h, payload.data());
        std::vector<uint8_t> covered(
            fb.data(), fb.data() + rpc::FrameHeader::kCrcOffset);
        covered.insert(covered.end(),
                       fb.data() + rpc::FrameHeader::kWireBytes,
                       fb.data() + fb.bytes());
        frames.push_back(std::move(covered));
    }
    MeasureCommon(frames, &m);
    res.params_json.insert(res.params_json.size() - 1,
                           ", \"wall_latency_samples\": " +
                               std::to_string(wall_samples));
    return res;
}

}  // namespace

WorkloadResult
RunServeSmall(const RunOptions &opt)
{
    return RunServe(kServeSmall, opt);
}

WorkloadResult
RunServeAccel(const RunOptions &opt)
{
    return RunServe(kServeAccel, opt);
}

WorkloadResult
RunServeAccelReplacing(const RunOptions &opt, bool runtime_per_pass)
{
    ServeConfig cfg = kServeAccel;
    cfg.runtime_per_pass = runtime_per_pass;
    return RunServe(cfg, opt);
}

}  // namespace perfbench
