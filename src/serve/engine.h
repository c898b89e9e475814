#pragma once

/**
 * @file
 * mx_serve: a replicated, batched quantized-inference engine.
 *
 * The deployment half of the freeze-and-serve split (nn/frozen.h): a
 * model is frozen once — weights quantized, snapshotted, and packed —
 * and an InferenceEngine then serves single-row requests against it.
 * Frozen weight matmuls inside the batch function execute in the
 * packed domain (gemm/packed_gemm.h) whenever the weight pairs with
 * the activation format, so engine batches never touch a dequantized
 * FP32 weight copy.
 *
 * The engine owns a bounded request queue, a micro-batcher, and N
 * replica workers: each worker drains up to `max_batch` queued
 * requests at a time, coalesces their rows into one [B, in] tensor,
 * executes the batch against its replica's batch function, and
 * completes each request's future with its output row plus queue/total
 * latency and the batch size it rode in.  Replicas are the scaling
 * unit past one core: freezing is cheap and FrozenTensor snapshots are
 * immutable shared handles (nn/frozen.h), so a per-replica model clone
 * shares the packed weight artifacts and owns only its eval scratch —
 * and since every frozen mx model's eval forward is mutation-free, the
 * common case is all replicas sharing one model outright (the
 * single-BatchFn constructor).  Use the ReplicaFactory constructor
 * when the batch function is NOT safe to call concurrently.
 *
 * Sharding policy: with one replica, a `rows_independent` batch is
 * sharded across core::ThreadPool as before.  With replicas > 1 the
 * replica is the parallelism unit and per-batch pool sharding defaults
 * OFF — concurrent workers would only serialize on the pool's run
 * mutex — unless `shard_within_replica` explicitly opts back in.
 *
 * Determinism contract: because every layer's eval forward is
 * row-independent and deterministic, a request's output is bit-identical
 * no matter how the batcher coalesces it or which replica executes it —
 * alone, with 7 strangers, sharded across lanes, or on worker 3 of 4.
 * tests/test_serve.cpp pins this.
 *
 * Shutdown contract: the destructor stops accepting work, wakes every
 * submitter blocked on back-pressure (they observe EngineShutdownError,
 * a distinct type so callers can tell "engine shut down" from "bad
 * request"), drains every already-accepted request, then joins the
 * workers.
 *
 * Decode sessions: submit(row, session) tags a request with a stream
 * id; a session-aware batch function receives the tags row-aligned and
 * can reuse per-stream state across requests (serve/session_cache.h —
 * the decode prefix cache).
 *
 * Knobs (also per-engine via EngineConfig):
 *   MX_SERVE_BATCH     max rows coalesced per batch      (default 16)
 *   MX_SERVE_QUEUE     bounded queue capacity in rows    (default 256)
 *   MX_SERVE_REPLICAS  replica worker count              (default 1)
 */

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/check.h"
#include "core/thread_annotations.h"
#include "core/thread_pool.h"
#include "obs/obs.h"
#include "tensor/tensor.h"

namespace mx {
namespace serve {

/**
 * Thrown by submit() when the engine is shutting down: either the call
 * arrived after the destructor started, or the caller was blocked on
 * back-pressure when the destructor ran.  Distinct from ArgumentError
 * so callers can tell a lifecycle race from a malformed request.
 * Requests accepted *before* shutdown still drain and complete.
 */
class EngineShutdownError : public Error
{
  public:
    explicit EngineShutdownError(const std::string& what) : Error(what) {}
};

/** Engine sizing; zeros resolve from the environment at construction. */
struct EngineConfig
{
    /** Max rows coalesced into one batch (0 = $MX_SERVE_BATCH / 16). */
    std::size_t max_batch = 0;
    /** Bounded queue capacity; submit() blocks when full
     *  (0 = $MX_SERVE_QUEUE / 256). */
    std::size_t queue_capacity = 0;
    /** Replica worker count (0 = $MX_SERVE_REPLICAS / 1).  Every
     *  replica pulls batches from the one bounded queue. */
    std::size_t replicas = 0;
    /**
     * Declare that the batch function maps each input row to its output
     * row independently and its eval path is thread-safe (true for all
     * frozen mx models: eval forwards are mutation-free).  A
     * single-replica engine then shards large batches across the
     * thread pool.
     */
    bool rows_independent = false;
    /**
     * Opt-in: keep per-batch pool sharding even with replicas > 1.
     * Off by default because N workers calling
     * ThreadPool::parallel_for concurrently serialize on the pool's
     * run mutex — the replica is the parallelism unit.
     */
    bool shard_within_replica = false;
    /** Pool for sharded execution (nullptr = ThreadPool::shared()). */
    core::ThreadPool* pool = nullptr;

    /** $MX_SERVE_BATCH, or 16. */
    static std::size_t default_max_batch();
    /** $MX_SERVE_QUEUE, or 256. */
    static std::size_t default_queue_capacity();
    /** $MX_SERVE_REPLICAS, or 1. */
    static std::size_t default_replicas();
};

/** One completed request. */
struct Reply
{
    std::vector<float> output; ///< The request's output row.
    double queue_ms = 0;       ///< Enqueue -> batch pickup.
    double latency_ms = 0;     ///< Enqueue -> completion.
    std::size_t batch_rows = 0; ///< Size of the coalesced batch.
};

/** Percentile snapshot of one latency distribution, extracted from an
 *  obs::Histogram (log-bucketed: <= 1/32 relative bucket width). */
struct LatencySummary
{
    std::uint64_t count = 0; ///< Samples recorded so far.
    double p50_ms = 0;
    double p99_ms = 0;
    double p999_ms = 0;
    double mean_ms = 0;
};

/** Aggregate counters (snapshot via InferenceEngine::stats()).  The
 *  scalar counters are maintained under the one queue mutex, so they
 *  stay race-free and mutually consistent with any replica count:
 *  after drain(), the histogram's row total equals `requests` exactly.
 *  The latency summaries come from always-on obs::Histograms recorded
 *  outside the mutex; after drain() their counts match too. */
struct EngineStats
{
    std::uint64_t requests = 0; ///< Rows accepted by submit().
    std::uint64_t batches = 0;  ///< Batches executed (all replicas).
    std::size_t max_queue_depth = 0; ///< High-water mark of the queue.
    std::size_t replicas = 0;   ///< Replica worker count serving them.
    /** batch_size_hist[b] = batches that coalesced exactly b rows
     *  (index 0 unused; size = max_batch + 1). */
    std::vector<std::uint64_t> batch_size_hist;

    /** Per request: enqueue -> batch pickup. */
    LatencySummary queue_wait;
    /** Per request: enqueue -> reply completion. */
    LatencySummary request_total;
    /** Per batch: gathering rows + session tags into the input tensor. */
    LatencySummary batch_assemble;
    /** Per batch: the replica's batch-function execution. */
    LatencySummary batch_execute;

    /** Mean coalesced batch size. */
    double mean_batch_rows() const;
};

/**
 * Serves single-row requests against a frozen model, coalescing them
 * into batches across N replica workers.  Each worker owns one batch
 * function; within a batch, execution shards across the thread pool
 * when the sharding policy (see file header) allows it.
 */
class InferenceEngine
{
  public:
    /** Batch executor: [B, in] -> [B, out] (rows aligned). */
    using BatchFn = std::function<tensor::Tensor(const tensor::Tensor&)>;
    /** Session-aware batch executor: the second argument carries one
     *  session id per input row (0 = sessionless), row-aligned. */
    using SessionBatchFn = std::function<tensor::Tensor(
        const tensor::Tensor&, const std::vector<std::uint64_t>&)>;
    /** Builds replica @p r's batch function (a model clone's forward;
     *  FrozenTensor handles make the clone share packed weights). */
    using ReplicaFactory = std::function<BatchFn(std::size_t r)>;

    /**
     * Every replica serves @p fn.  With replicas > 1 the function must
     * be safe to call concurrently (true for frozen mx model eval
     * forwards); otherwise use the ReplicaFactory constructor.
     *
     * @param fn     the frozen model's batched eval forward
     * @param in_dim request row width
     * @param cfg    sizing knobs (zeros resolve from the environment)
     */
    InferenceEngine(BatchFn fn, std::int64_t in_dim, EngineConfig cfg = {});

    /** Session-aware variant of the shared-function constructor. */
    InferenceEngine(SessionBatchFn fn, std::int64_t in_dim,
                    EngineConfig cfg = {});

    /** Per-replica batch functions: @p make(r) is called once per
     *  replica at construction, so each worker can own an independent
     *  clone of the model's mutable eval state. */
    InferenceEngine(ReplicaFactory make, std::int64_t in_dim,
                    EngineConfig cfg = {});

    /**
     * Rejects blocked/late submitters with EngineShutdownError, drains
     * already-accepted requests, then joins the workers.
     */
    ~InferenceEngine();

    InferenceEngine(const InferenceEngine&) = delete;
    InferenceEngine& operator=(const InferenceEngine&) = delete;

    /**
     * Enqueue one request row; blocks while the queue is at capacity
     * (back-pressure).  The future completes when its batch executes;
     * it carries the batch function's exception if one was thrown.
     * Throws EngineShutdownError if the engine is destroyed while the
     * call waits for queue space (accepted requests still drain).
     *
     * @param session optional decode-stream id forwarded row-aligned
     *        to a session-aware batch function (0 = sessionless)
     */
    std::future<Reply> submit(std::vector<float> row,
                              std::uint64_t session = 0);

    /** Block until every accepted request has completed — the queue is
     *  empty AND no replica still holds an unexecuted batch. */
    void drain();

    /** Counter snapshot, including histogram-backed queue-wait /
     *  total-latency / per-stage percentiles (see EngineStats). */
    EngineStats stats() const;

    std::int64_t in_dim() const { return in_dim_; }
    std::size_t max_batch() const { return cfg_.max_batch; }
    std::size_t queue_capacity() const { return cfg_.queue_capacity; }
    std::size_t replicas() const { return workers_.size(); }

  private:
    struct Pending
    {
        std::vector<float> row;
        std::uint64_t session = 0;
        std::promise<Reply> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    void start(const std::function<SessionBatchFn(std::size_t)>& make,
               EngineConfig cfg);
    void worker_loop(std::size_t replica);
    void execute(const SessionBatchFn& fn, std::vector<Pending>& batch);

    std::int64_t in_dim_;
    EngineConfig cfg_;
    std::vector<SessionBatchFn> replica_fns_;

    mutable core::Mutex mu_; ///< The one queue mutex (see EngineStats).
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::condition_variable idle_;
    std::condition_variable submitters_done_;
    std::deque<Pending> queue_ MX_GUARDED_BY(mu_);
    bool stop_ MX_GUARDED_BY(mu_) = false;
    /// Replicas holding a popped batch.
    std::size_t busy_workers_ MX_GUARDED_BY(mu_) = 0;
    /// submit() calls in flight.
    std::size_t active_submits_ MX_GUARDED_BY(mu_) = 0;
    EngineStats stats_ MX_GUARDED_BY(mu_);

    // Per-engine latency histograms (nanoseconds), recorded in
    // execute() OUTSIDE the queue mutex — obs histograms are
    // relaxed-atomic, so replicas never serialize on telemetry.
    obs::Histogram hist_queue_wait_;
    obs::Histogram hist_request_total_;
    obs::Histogram hist_batch_assemble_;
    obs::Histogram hist_batch_execute_;

    std::vector<std::thread> workers_;
};

} // namespace serve
} // namespace mx
