/**
 * @file
 * Unit tests for core::ThreadPool — the process's one scheduler for
 * data-parallel loops.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

using mx::core::ThreadPool;

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (std::size_t lanes : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(lanes);
        EXPECT_EQ(pool.thread_count(), lanes);
        std::vector<std::atomic<int>> hits(1000);
        pool.parallel_for(hits.size(),
                          [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallel_for(round * 7 + 1,
                          [&](std::size_t i) { sum.fetch_add(i + 1); });
        const std::size_t n = static_cast<std::size_t>(round * 7 + 1);
        EXPECT_EQ(sum.load(), n * (n + 1) / 2);
    }
}

TEST(ThreadPool, EmptyLoopIsANoop)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallel_for(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    EXPECT_THROW(pool.parallel_for(100,
                                   [&](std::size_t i) {
                                       if (i == 13)
                                           throw std::runtime_error("boom");
                                       completed.fetch_add(1);
                                   }),
                 std::runtime_error);
    EXPECT_LT(completed.load(), 100);
}

TEST(ThreadPool, NestedCallsRunInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    pool.parallel_for(8, [&](std::size_t outer) {
        pool.parallel_for(8, [&](std::size_t inner) {
            hits[outer * 8 + inner].fetch_add(1);
        });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, SharedPoolIsUsable)
{
    std::atomic<std::size_t> sum{0};
    ThreadPool::shared().parallel_for(256,
                                      [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 256u * 255u / 2u);
    EXPECT_GE(ThreadPool::shared().thread_count(), 1u);
    EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, ConcurrentCallersEachRunTheirOwnJob)
{
    // Job A's first item waits until job B has started.  A pool that
    // ran one top-level job at a time would hold B back until A
    // finished, so A's wait would time out; with per-call jobs B's
    // caller runs B's items itself.  The wait is bounded so a
    // regression fails instead of hanging.
    ThreadPool pool(4);
    constexpr std::size_t kItems = 200;
    for (const bool b_throws : {false, true}) {
        std::vector<std::atomic<int>> hits_a(kItems), hits_b(kItems);
        std::atomic<bool> b_started{false};
        std::atomic<bool> a_saw_b{false};
        bool a_threw = false, b_threw = false;
        std::thread caller_b;
        std::thread caller_a([&] {
            try {
                pool.parallel_for(kItems, [&](std::size_t i) {
                    if (i == 0) {
                        const auto deadline = std::chrono::steady_clock::now() +
                                              std::chrono::seconds(10);
                        while (!b_started.load() &&
                               std::chrono::steady_clock::now() < deadline)
                            std::this_thread::yield();
                        a_saw_b = b_started.load();
                    }
                    hits_a[i].fetch_add(1);
                });
            } catch (...) {
                a_threw = true;
            }
        });
        caller_b = std::thread([&] {
            try {
                pool.parallel_for(kItems, [&](std::size_t i) {
                    b_started = true;
                    if (b_throws && i == kItems / 2)
                        throw std::runtime_error("job B only");
                    hits_b[i].fetch_add(1);
                });
            } catch (const std::runtime_error&) {
                b_threw = true;
            }
        });
        caller_a.join();
        caller_b.join();
        EXPECT_TRUE(a_saw_b.load()) << "job B never started while job A ran";
        EXPECT_FALSE(a_threw) << "job B's exception reached job A's caller";
        EXPECT_EQ(b_threw, b_throws);
        for (std::size_t i = 0; i < kItems; ++i) {
            ASSERT_EQ(hits_a[i].load(), 1) << "job A index " << i;
            if (b_throws)
                ASSERT_LE(hits_b[i].load(), 1) << "job B index " << i;
            else
                ASSERT_EQ(hits_b[i].load(), 1) << "job B index " << i;
        }
    }
}
