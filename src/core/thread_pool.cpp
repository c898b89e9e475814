#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "core/env.h"
#include "obs/obs.h"

namespace mx {
namespace core {

namespace {

/** True while the current thread is executing pool work. */
thread_local bool tl_in_pool = false;

} // namespace

struct ThreadPool::Job
{
    const std::function<void(std::size_t)>& body;
    const std::size_t n;
    const std::size_t chunk; ///< Items claimed per cursor bump.
    std::atomic<std::size_t> next{0}; ///< Work cursor: claimed lock-free.
    std::size_t helpers = 0;  ///< Other lanes inside run_items (mu_).
    std::exception_ptr error; ///< First exception thrown (mu_).
};

std::size_t
ThreadPool::default_thread_count()
{
    // 0 (explicit or as the unset fallback) = "no override": fall
    // through to the hardware concurrency.
    const std::size_t from_env =
        env::size_knob("MX_THREADS", 0, /*min_value=*/0);
    if (from_env > 0)
        return from_env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t num_threads)
{
    const std::size_t lanes =
        num_threads > 0 ? num_threads : default_thread_count();
    num_workers_ = lanes - 1;
}

ThreadPool::~ThreadPool()
{
    std::vector<std::thread> workers;
    {
        LockGuard lk(mu_);
        stop_ = true;
        workers.swap(workers_);
    }
    work_cv_.notify_all();
    for (std::thread& t : workers)
        t.join();
}

ThreadPool&
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::Job*
ThreadPool::open_job()
{
    for (Job* job : jobs_)
        if (job->next.load(std::memory_order_relaxed) < job->n)
            return job;
    return nullptr;
}

void
ThreadPool::run_items(Job& job)
{
    const bool was_in_pool = tl_in_pool;
    tl_in_pool = true;
    for (;;) {
        const std::size_t begin =
            job.next.fetch_add(job.chunk, std::memory_order_relaxed);
        if (begin >= job.n)
            break;
        const std::size_t end = std::min(job.n, begin + job.chunk);
        for (std::size_t i = begin; i < end; ++i) {
            try {
                job.body(i);
            } catch (...) {
                {
                    LockGuard lk(mu_);
                    if (!job.error)
                        job.error = std::current_exception();
                }
                job.next.store(job.n, std::memory_order_relaxed); // drain
                tl_in_pool = was_in_pool;
                return;
            }
        }
    }
    tl_in_pool = was_in_pool;
}

void
ThreadPool::worker_loop()
{
    obs::set_thread_name("pool-worker");
    for (;;) {
        Job* job = nullptr;
        {
            UniqueLock lk(mu_);
            while (!stop_ && (job = open_job()) == nullptr)
                lk.wait(work_cv_);
            if (stop_)
                return;
            ++job->helpers; // pins the job until this lane leaves it
        }
        run_items(*job);
        {
            LockGuard lk(mu_);
            if (--job->helpers == 0)
                done_cv_.notify_all();
        }
    }
}

void
ThreadPool::parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& body)
{
    if (n == 0)
        return;
    // Inline when the pool adds nothing (single lane, tiny loop) or when
    // called from inside a pool lane (the outer loop already owns the
    // fan-out).
    if (num_workers_ == 0 || n == 1 || tl_in_pool) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    obs::Span span("pool.parallel_for");
    span.arg("n", static_cast<double>(n));

    Job job{body, n, std::max<std::size_t>(1, n / (thread_count() * 8)),
            0, 0, nullptr};
    {
        LockGuard lk(mu_);
        if (workers_.empty()) {
            workers_.reserve(num_workers_);
            for (std::size_t i = 0; i < num_workers_; ++i)
                workers_.emplace_back([this] { worker_loop(); });
        }
        jobs_.push_back(&job);
    }
    work_cv_.notify_all();
    run_items(job); // the caller is a lane of its own job
    std::exception_ptr err;
    {
        // Retire the job so no further lane joins it, then wait for the
        // lanes still running its last items.
        UniqueLock lk(mu_);
        jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
        while (job.helpers != 0)
            lk.wait(done_cv_);
        err = job.error;
    }
    if (err)
        std::rethrow_exception(err);
}

} // namespace core
} // namespace mx
