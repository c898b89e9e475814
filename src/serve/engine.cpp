#include "serve/engine.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/env.h"
#include "core/thread_pool.h"

namespace mx {
namespace serve {

using tensor::Tensor;

namespace {

double
ms_between(std::chrono::steady_clock::time_point a,
           std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint64_t
ns_between(std::chrono::steady_clock::time_point a,
           std::chrono::steady_clock::time_point b)
{
    const auto d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count();
    return d > 0 ? static_cast<std::uint64_t>(d) : 0;
}

/**
 * Workers for an engine that does not shard its batches.  bench/e2e,
 * 5 alternating 12 s pairs per workload (4 shared AVX-512 vCPUs), one
 * worker vs two, every reply checked bit for bit:
 *  - gpt_prefill: 3,308 -> 5,092 prompt tok/s (5/5 pairs), TTFT p50
 *    111.6 -> 70.3 ms, peak RSS 45.0 -> 46.7 MB.  48-row prompts never
 *    share an A tile, so GptMini::decode_step runs their passes one
 *    after another; a second worker overlaps their serial phases.
 *  - gpt_decode: 1,722 -> 1,780 tok/s (4/5 pairs, within noise).
 *  - 3 or 4 workers read 4,224-4,396 on gpt_prefill, below two.
 * The pool's lane count does not change the choice.  10 alternating
 * 28 s run.py pairs each, MX_THREADS=1, one worker vs two:
 *  - 4 vCPUs: gpt_prefill 2,613 -> 2,803 prompt tok/s (10/10),
 *    gpt_decode 1,279 -> 2,364 tok/s (10/10); with one lane the GEMMs
 *    run inline, so two workers use two cores.
 *  - pinned to one vCPU: gpt_prefill 2,481 -> 2,412 (5/10, within
 *    noise), gpt_decode 1,356 -> 1,199 (0/10).  Only a one-CPU host
 *    pays, and the benchmark has no such workload to select on.
 * A row-sharded batch already spans every pool lane, and a second
 * worker measured slower on mlp_open (3/3 pairs), so sharded engines
 * run one.
 */
constexpr std::size_t kUnshardedWorkers = 2;

std::size_t
worker_count(const EngineConfig& cfg)
{
    return cfg.rows_independent ? 1 : kUnshardedWorkers;
}

/** EngineStats percentile summary from an engine-owned histogram. */
LatencySummary
summarize(const obs::Histogram& h)
{
    LatencySummary s;
    s.count = h.count();
    s.p50_ms = h.percentile_ms(0.5);
    s.p99_ms = h.percentile_ms(0.99);
    s.p999_ms = h.percentile_ms(0.999);
    s.mean_ms = h.mean() * 1e-6;
    return s;
}

} // namespace

std::size_t
EngineConfig::default_max_batch()
{
    return core::env::size_knob("MX_SERVE_BATCH", 16);
}

std::size_t
EngineConfig::default_queue_capacity()
{
    return core::env::size_knob("MX_SERVE_QUEUE", 256);
}

double
EngineStats::mean_batch_rows() const
{
    if (batches == 0)
        return 0.0;
    // From the histogram, not `requests`: rows still queued have been
    // accepted but not batched yet.
    std::uint64_t rows = 0;
    for (std::size_t b = 0; b < batch_size_hist.size(); ++b)
        rows += batch_size_hist[b] * b;
    return static_cast<double>(rows) / static_cast<double>(batches);
}

namespace {

/** Adapt a sessionless batch function to the session-aware signature
 *  every worker executes (null stays null, for the constructor check). */
InferenceEngine::SessionBatchFn
ignore_sessions(InferenceEngine::BatchFn fn)
{
    if (fn == nullptr)
        return nullptr;
    return [fn = std::move(fn)](const Tensor& in,
                                const std::vector<std::uint64_t>&) {
        return fn(in);
    };
}

} // namespace

InferenceEngine::InferenceEngine(BatchFn fn, std::int64_t in_dim,
                                 EngineConfig cfg)
    : InferenceEngine(ignore_sessions(std::move(fn)), in_dim, cfg)
{
}

InferenceEngine::InferenceEngine(SessionBatchFn fn, std::int64_t in_dim,
                                 EngineConfig cfg)
    : fn_(std::move(fn)), in_dim_(in_dim), cfg_(cfg)
{
    MX_CHECK_ARG(fn_ != nullptr, "InferenceEngine: null batch function");
    MX_CHECK_ARG(in_dim_ >= 1, "InferenceEngine: bad input width");
    if (cfg_.max_batch == 0)
        cfg_.max_batch = EngineConfig::default_max_batch();
    if (cfg_.queue_capacity == 0)
        cfg_.queue_capacity = EngineConfig::default_queue_capacity();
    stats_.batch_size_hist.assign(cfg_.max_batch + 1, 0);

    const std::size_t n = worker_count(cfg_);
    workers_.reserve(n);
    for (std::size_t w = 0; w < n; ++w)
        workers_.emplace_back([this, w] { worker_loop(w); });
}

InferenceEngine::~InferenceEngine()
{
    {
        core::UniqueLock lk(mu_);
        stop_ = true;
        not_empty_.notify_all();
        not_full_.notify_all();
        // Submitters blocked on back-pressure wake, observe stop_, and
        // throw EngineShutdownError; wait them out so none still
        // touches the engine when the members are torn down.
        while (active_submits_ != 0)
            lk.wait(submitters_done_);
    }
    // Workers drain every accepted request before exiting.
    for (std::thread& t : workers_)
        t.join();
}

std::future<Reply>
InferenceEngine::submit(std::vector<float> row, std::uint64_t session)
{
    MX_CHECK_ARG(static_cast<std::int64_t>(row.size()) == in_dim_,
                 "InferenceEngine: request row has " << row.size()
                     << " features, engine expects " << in_dim_);
    core::UniqueLock lk(mu_);
    if (stop_)
        throw EngineShutdownError(
            "InferenceEngine: submit() after shutdown — the engine's "
            "destructor already ran; no new requests are accepted");
    ++active_submits_;
    while (queue_.size() >= cfg_.queue_capacity && !stop_)
        lk.wait(not_full_);
    if (stop_) {
        if (--active_submits_ == 0)
            submitters_done_.notify_all();
        throw EngineShutdownError(
            "InferenceEngine: engine shut down while this request "
            "waited for queue space; it was never accepted (requests "
            "accepted before shutdown still drain)");
    }
    Pending p;
    p.row = std::move(row);
    p.session = session;
    p.enqueued = std::chrono::steady_clock::now();
    std::future<Reply> fut = p.promise.get_future();
    queue_.push_back(std::move(p));
    ++stats_.requests;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    if (--active_submits_ == 0)
        submitters_done_.notify_all();
    not_empty_.notify_one();
    return fut;
}

void
InferenceEngine::drain()
{
    // `busy_workers_` counts workers that popped a batch and have not
    // finished executing it: with N workers, an empty queue alone does
    // not mean every accepted request completed.
    core::UniqueLock lk(mu_);
    while (!queue_.empty() || busy_workers_ != 0)
        lk.wait(idle_);
}

EngineStats
InferenceEngine::stats() const
{
    EngineStats s;
    {
        core::LockGuard lk(mu_);
        s = stats_;
    }
    // Histogram reads are relaxed-atomic snapshots; taking them outside
    // the mutex keeps stats() off the submit/worker hot path.
    s.queue_wait = summarize(hist_queue_wait_);
    s.request_total = summarize(hist_request_total_);
    s.batch_assemble = summarize(hist_batch_assemble_);
    s.batch_execute = summarize(hist_batch_execute_);
    return s;
}

void
InferenceEngine::worker_loop(std::size_t worker)
{
    char name[32];
    std::snprintf(name, sizeof name, "serve-worker-%zu", worker);
    obs::set_thread_name(name);
    for (;;) {
        std::vector<Pending> batch;
        {
            core::UniqueLock lk(mu_);
            while (queue_.empty() && !stop_)
                lk.wait(not_empty_);
            if (queue_.empty()) // stop_ set and nothing left to serve
                return;
            ++busy_workers_;
            while (!queue_.empty() && batch.size() < cfg_.max_batch) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            ++stats_.batches;
            ++stats_.batch_size_hist[batch.size()];
        }
        not_full_.notify_all();

        execute(batch);

        {
            core::LockGuard lk(mu_);
            --busy_workers_;
        }
        idle_.notify_all();
    }
}

void
InferenceEngine::execute(std::vector<Pending>& batch)
{
    // Registry mirrors of the per-engine histograms, so MX_METRICS
    // dumps serve latencies without anyone calling stats().
    static obs::Histogram& g_queue =
        obs::histogram("serve.queue_wait_ns");
    static obs::Histogram& g_total =
        obs::histogram("serve.request_total_ns");
    static obs::Histogram& g_assemble =
        obs::histogram("serve.batch_assemble_ns");
    static obs::Histogram& g_execute =
        obs::histogram("serve.batch_execute_ns");

    const std::int64_t rows = static_cast<std::int64_t>(batch.size());
    const auto picked_up = std::chrono::steady_clock::now();

    obs::Span batch_span("serve.batch");
    batch_span.arg("rows", static_cast<double>(rows));

    // Gather request rows [lo, hi) into one contiguous input tensor
    // plus the row-aligned session tags.
    auto gather = [&](std::int64_t lo, std::int64_t hi) {
        Tensor in({hi - lo, in_dim_});
        for (std::int64_t r = lo; r < hi; ++r)
            std::copy(batch[static_cast<std::size_t>(r)].row.begin(),
                      batch[static_cast<std::size_t>(r)].row.end(),
                      in.data() + (r - lo) * in_dim_);
        return in;
    };
    auto gather_sessions = [&](std::int64_t lo, std::int64_t hi) {
        std::vector<std::uint64_t> s(static_cast<std::size_t>(hi - lo));
        for (std::int64_t r = lo; r < hi; ++r)
            s[static_cast<std::size_t>(r - lo)] =
                batch[static_cast<std::size_t>(r)].session;
        return s;
    };

    // Shard row-independent batches into contiguous chunks across the
    // pool; chunking cannot change any output row (each row's result
    // depends only on that row), so the reply stream is bit-identical
    // to the single-call execution.
    core::ThreadPool& pool = core::ThreadPool::shared();
    const std::size_t lanes = pool.thread_count();
    const std::size_t n_chunks =
        cfg_.rows_independent && rows > 1 && lanes > 1
            ? std::min<std::size_t>(static_cast<std::size_t>(rows), lanes)
            : 1;

    std::vector<Tensor> outs(n_chunks);
    try {
        // Assemble every chunk's input up front: the copy is cheap
        // relative to the batch function, and splitting the stages
        // gives each its own span + histogram (queue -> assemble ->
        // execute is the taxonomy EngineStats and the trace report).
        std::vector<std::int64_t> starts(n_chunks + 1, 0);
        std::vector<Tensor> ins(n_chunks);
        std::vector<std::vector<std::uint64_t>> sessions(n_chunks);
        {
            obs::Span assemble_span("serve.assemble");
            assemble_span.arg("rows", static_cast<double>(rows));
            const std::int64_t base =
                rows / static_cast<std::int64_t>(n_chunks);
            const std::int64_t rem =
                rows % static_cast<std::int64_t>(n_chunks);
            for (std::size_t c = 0; c < n_chunks; ++c)
                starts[c + 1] = starts[c] + base +
                                (static_cast<std::int64_t>(c) < rem ? 1 : 0);
            for (std::size_t c = 0; c < n_chunks; ++c) {
                ins[c] = gather(starts[c], starts[c + 1]);
                sessions[c] = gather_sessions(starts[c], starts[c + 1]);
            }
        }
        const auto assembled = std::chrono::steady_clock::now();
        const std::uint64_t assemble_ns = ns_between(picked_up, assembled);
        hist_batch_assemble_.record(assemble_ns);
        g_assemble.record(assemble_ns);

        {
            obs::Span exec_span("serve.execute");
            exec_span.arg("rows", static_cast<double>(rows));
            exec_span.arg("chunks", static_cast<double>(n_chunks));
            if (n_chunks == 1) {
                outs[0] = fn_(ins[0], sessions[0]);
            } else {
                pool.parallel_for(n_chunks, [&](std::size_t c) {
                    outs[c] = fn_(ins[c], sessions[c]);
                });
            }
        }
        const std::uint64_t execute_ns =
            ns_between(assembled, std::chrono::steady_clock::now());
        hist_batch_execute_.record(execute_ns);
        g_execute.record(execute_ns);
        std::int64_t out_dim = -1;
        std::int64_t covered = 0;
        for (const Tensor& o : outs) {
            MX_CHECK_ARG(o.ndim() == 2,
                         "InferenceEngine: batch function must return a "
                         "2-d [rows, out] tensor");
            MX_CHECK_ARG(out_dim < 0 || o.dim(1) == out_dim,
                         "InferenceEngine: batch function changed its "
                         "output width mid-batch");
            out_dim = o.dim(1);
            covered += o.dim(0);
        }
        MX_CHECK_ARG(covered == rows,
                     "InferenceEngine: batch function returned "
                         << covered << " rows for a " << rows
                         << "-row batch");

        const auto done = std::chrono::steady_clock::now();
        std::size_t idx = 0;
        for (const Tensor& o : outs) {
            for (std::int64_t r = 0; r < o.dim(0); ++r, ++idx) {
                Pending& p = batch[idx];
                Reply reply;
                reply.output.assign(o.data() + r * out_dim,
                                    o.data() + (r + 1) * out_dim);
                reply.queue_ms = ms_between(p.enqueued, picked_up);
                reply.latency_ms = ms_between(p.enqueued, done);
                reply.batch_rows = batch.size();
                const std::uint64_t queue_ns =
                    ns_between(p.enqueued, picked_up);
                const std::uint64_t total_ns = ns_between(p.enqueued, done);
                hist_queue_wait_.record(queue_ns);
                hist_request_total_.record(total_ns);
                g_queue.record(queue_ns);
                g_total.record(total_ns);
                p.promise.set_value(std::move(reply));
            }
        }
    } catch (...) {
        // Fail the whole batch with the thrown error; the engine keeps
        // serving subsequent batches.
        const std::exception_ptr err = std::current_exception();
        for (Pending& p : batch) {
            try {
                p.promise.set_exception(err);
            } catch (const std::future_error&) {
                // Already completed before the throw; leave it.
            }
        }
    }
}

} // namespace serve
} // namespace mx
