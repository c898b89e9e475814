#pragma once

/**
 * @file
 * The process's one scheduler for data-parallel loops (GEMM shares,
 * decode attention tasks, sharded engine batches, the Figure 7 sweep).
 *
 * Design points:
 *  - lazily started: no threads exist until the first parallel_for();
 *  - sized by the MX_THREADS environment variable (when constructed
 *    with num_threads == 0), falling back to the hardware concurrency;
 *  - one job per call: parallel_for posts its loop onto a job list and
 *    runs its items on the calling thread, idle lanes help the oldest
 *    job with unclaimed items, and the caller then waits only for items
 *    in flight elsewhere, so concurrent callers (the engine's serve
 *    workers) never queue behind each other; a pool of size 1 never
 *    spawns a thread;
 *  - parallel_for(n, body) invokes body(i) exactly once for every
 *    i in [0, n) — each index writes its own output slot, so results
 *    are identical for any thread count (the sweep determinism test in
 *    tests/test_sweep.cpp pins this);
 *  - a call from inside a pool lane runs inline on that lane: the
 *    outer loop already owns the fan-out.
 *
 * Exceptions thrown by body are caught, the job drained, and the first
 * one rethrown on that job's calling thread; other jobs are unaffected.
 */

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace mx {
namespace core {

class ThreadPool
{
  public:
    /**
     * @param num_threads total lanes including the caller; 0 resolves
     *        MX_THREADS, then std::thread::hardware_concurrency().
     */
    explicit ThreadPool(std::size_t num_threads = 0);

    /** Joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Total lanes (worker threads + the calling thread). */
    std::size_t thread_count() const { return num_workers_ + 1; }

    /**
     * Run body(i) for every i in [0, n), fanning out across the pool.
     * Blocks until every index completed; rethrows the first exception.
     * Safe to call from several threads at once.
     */
    void parallel_for(std::size_t n,
                      const std::function<void(std::size_t)>& body);

    /**
     * The process-wide pool (sized from MX_THREADS at first use).  Use
     * a locally constructed pool instead when a specific thread count
     * is required, e.g. for determinism tests.
     */
    static ThreadPool& shared();

    /** The lane count a default-constructed pool resolves to. */
    static std::size_t default_thread_count();

  private:
    /** One parallel_for call's loop (lives on the caller's stack). */
    struct Job;

    void worker_loop() MX_EXCLUDES(mu_);
    /** The oldest posted job with unclaimed items, or nullptr. */
    Job* open_job() MX_REQUIRES(mu_);
    /** Claim and run @p job's items until none are left; the work
     *  cursor is atomic, so only the first-exception slot takes mu_. */
    void run_items(Job& job) MX_EXCLUDES(mu_);

    std::size_t num_workers_ = 0; ///< Lanes - 1 (threads actually spawned).
    Mutex mu_; ///< Guards the fields below and each Job's helpers/error.
    std::condition_variable work_cv_; ///< A job was posted, or stop_.
    std::condition_variable done_cv_; ///< A helper left its job.
    std::vector<std::thread> workers_ MX_GUARDED_BY(mu_);
    std::vector<Job*> jobs_ MX_GUARDED_BY(mu_); ///< Oldest first.
    bool stop_ MX_GUARDED_BY(mu_) = false;
};

} // namespace core
} // namespace mx
