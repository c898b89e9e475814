/**
 * @file
 * mx_obs: histogram percentile exactness against a sorted-vector
 * oracle, counter exactness under pool-wide concurrency, span nesting
 * and thread attribution in the exported Chrome trace JSON, and the
 * disabled-path contract (no allocations, no span recording).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/thread_pool.h"
#include "obs/obs.h"

using namespace mx;

// ---------------------------------------------------------------------
// Global allocation counter for the disabled-path test: every operator
// new in this binary (gtest included) ticks it, so a delta of zero
// across a region proves the region allocated nothing.
// ---------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void*
counted_malloc(std::size_t size) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}
} // namespace

// Every replaceable form a test can reach is replaced, the nothrow
// ones included (std::stable_sort's temporary buffer comes from
// nothrow new and returns through sized delete), so no allocation pairs
// the library's allocator with this file's free.  The replacements stay
// out of line: inlined into a caller, GCC pairs malloc-backed new with
// free across the call and warns (-Wmismatched-new-delete).

[[gnu::noinline]] void*
operator new(std::size_t size)
{
    if (void* p = counted_malloc(size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

[[gnu::noinline]] void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    return counted_malloc(size);
}

[[gnu::noinline]] void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    return counted_malloc(size);
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace {

/** Nearest-rank percentile of a sorted vector: the oracle the
 *  histogram's percentile contract is pinned against. */
std::uint64_t
oracle_percentile(std::vector<std::uint64_t> v, double p)
{
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

void
check_against_oracle(const std::vector<std::uint64_t>& values)
{
    obs::Histogram h;
    for (std::uint64_t v : values)
        h.record(v);
    ASSERT_EQ(h.count(), values.size());
    for (const double p : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        const std::uint64_t want = oracle_percentile(values, p);
        const obs::Histogram::Bounds b = h.percentile_bounds(p);
        // Containment: the oracle's value lies inside the bucket the
        // histogram picked for this percentile.
        EXPECT_LE(b.lo, want) << "p=" << p;
        EXPECT_GE(b.hi, want) << "p=" << p;
        // Resolution: the bucket is exact below kSubBuckets and at
        // most 1/kSubBuckets wide (relative) above.
        if (want < obs::Histogram::kSubBuckets)
            EXPECT_EQ(h.percentile(p), want) << "p=" << p;
        else
            EXPECT_LE(b.hi - b.lo + 1,
                      (b.lo + obs::Histogram::kSubBuckets - 1) /
                          obs::Histogram::kSubBuckets)
                << "p=" << p;
    }
}

// ---------------------------------------------------------------------
// Histogram bucketing
// ---------------------------------------------------------------------

TEST(ObsHistogram, BucketRoundTripAcrossBoundaries)
{
    // Every value below kSubBuckets gets its own width-1 bucket.
    for (std::uint64_t v = 0; v < obs::Histogram::kSubBuckets; ++v) {
        const std::size_t idx = obs::Histogram::bucket_index(v);
        EXPECT_EQ(idx, v);
        const obs::Histogram::Bounds b = obs::Histogram::bucket_bounds(idx);
        EXPECT_EQ(b.lo, v);
        EXPECT_EQ(b.hi, v);
    }
    // Power-of-two boundaries, their neighbours, and the extremes all
    // land in a bucket whose bounds contain them.
    std::vector<std::uint64_t> probes = {31, 32, 33, 63, 64, 65};
    for (int k = 7; k < 64; ++k) {
        const std::uint64_t p2 = std::uint64_t{1} << k;
        probes.push_back(p2 - 1);
        probes.push_back(p2);
        if (k < 63)
            probes.push_back(p2 + 1);
    }
    probes.push_back(UINT64_MAX);
    std::size_t last_idx = 0;
    for (std::uint64_t v : probes) {
        const std::size_t idx = obs::Histogram::bucket_index(v);
        ASSERT_LT(idx, obs::Histogram::kBuckets) << "v=" << v;
        const obs::Histogram::Bounds b = obs::Histogram::bucket_bounds(idx);
        EXPECT_LE(b.lo, v) << "v=" << v;
        EXPECT_GE(b.hi, v) << "v=" << v;
        EXPECT_GE(idx, last_idx) << "v=" << v; // probes ascend
        last_idx = idx;
    }
    // The top bucket is the last one: no index can overflow the array.
    EXPECT_EQ(obs::Histogram::bucket_index(UINT64_MAX),
              obs::Histogram::kBuckets - 1);
}

TEST(ObsHistogram, ExactPercentilesBelowSubBucketThreshold)
{
    // All values < 32: every bucket has width 1, so percentile() must
    // equal the oracle exactly at every rank.
    std::vector<std::uint64_t> v;
    for (std::uint64_t i = 0; i < 31; ++i)
        for (std::uint64_t r = 0; r < i + 1; ++r)
            v.push_back(i); // skewed multiset, all below 32
    check_against_oracle(v);
}

TEST(ObsHistogram, OracleContainmentAcrossBucketBoundaries)
{
    // Values straddling the exact/log boundary and several octaves.
    std::vector<std::uint64_t> v;
    for (std::uint64_t i = 1; i <= 4096; ++i)
        v.push_back(i);
    check_against_oracle(v);

    // A latency-shaped distribution: tight body, long tail.
    std::vector<std::uint64_t> lat;
    for (std::uint64_t i = 0; i < 1000; ++i)
        lat.push_back(20000 + (i * 7919) % 5000); // ~20-25 us body
    for (std::uint64_t i = 0; i < 10; ++i)
        lat.push_back(1000000 + i * 100000); // 1 ms+ tail
    check_against_oracle(lat);
}

TEST(ObsHistogram, SumMeanAndReset)
{
    obs::Histogram h;
    h.record(10);
    h.record(20);
    h.record(30);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 60u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.percentile(0.99), 0u);
}

// ---------------------------------------------------------------------
// Counter / histogram concurrency
// ---------------------------------------------------------------------

TEST(ObsCounter, PoolWideIncrementsSumExactly)
{
    core::ThreadPool pool(4);
    obs::Counter& c = obs::counter("test.obs.pool_counter");
    obs::Histogram& h = obs::histogram("test.obs.pool_hist");
    const std::uint64_t before_c = c.value();
    const std::uint64_t before_h = h.count();
    const std::size_t n = 100000;
    pool.parallel_for(n, [&](std::size_t i) {
        c.add(1);
        h.record(i);
    });
    EXPECT_EQ(c.value() - before_c, n);
    EXPECT_EQ(h.count() - before_h, n);
}

TEST(ObsRegistry, ReturnsStableReferences)
{
    obs::Counter& a = obs::counter("test.obs.stable");
    obs::Counter& b = obs::counter("test.obs.stable");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);

    obs::Gauge& g = obs::gauge("test.obs.gauge");
    g.set(42);
    g.add(-2);
    EXPECT_EQ(obs::gauge("test.obs.gauge").value(), 40);
}

// ---------------------------------------------------------------------
// Trace export: nesting + thread attribution
// ---------------------------------------------------------------------

struct TraceEvent
{
    std::string name;
    std::string ph;
    long tid = -1;
    double ts = 0;
    double dur = 0;
};

/** Minimal line-wise parse of the exporter's one-event-per-line JSON. */
std::vector<TraceEvent>
parse_trace(const std::string& json)
{
    std::vector<TraceEvent> events;
    std::istringstream is(json);
    std::string line;
    const auto str_field = [](const std::string& s, const char* key) {
        const std::string pat = std::string("\"") + key + "\":\"";
        const std::size_t at = s.find(pat);
        if (at == std::string::npos)
            return std::string();
        const std::size_t begin = at + pat.size();
        return s.substr(begin, s.find('"', begin) - begin);
    };
    const auto num_field = [](const std::string& s, const char* key) {
        const std::string pat = std::string("\"") + key + "\":";
        const std::size_t at = s.find(pat);
        if (at == std::string::npos)
            return -1.0;
        return std::atof(s.c_str() + at + pat.size());
    };
    while (std::getline(is, line)) {
        if (line.find("\"ph\"") == std::string::npos)
            continue;
        TraceEvent e;
        e.name = str_field(line, "name");
        e.ph = str_field(line, "ph");
        e.tid = static_cast<long>(num_field(line, "tid"));
        e.ts = num_field(line, "ts");
        e.dur = num_field(line, "dur");
        events.push_back(e);
    }
    return events;
}

TEST(ObsTrace, SpansNestAndCarryThreadAttribution)
{
    obs::set_trace_enabled(true);
    obs::clear_trace();
    {
        obs::Span parent("test.parent");
        parent.arg("x", 7);
        {
            obs::Span child("test.child_a");
        }
        {
            obs::Span child("test.child_b");
        }
    }
    std::thread peer([] {
        obs::set_thread_name("test-peer");
        obs::Span s("test.peer_span");
    });
    peer.join();
    obs::set_trace_enabled(false);

    std::ostringstream os;
    obs::write_trace(os);
    const std::vector<TraceEvent> events = parse_trace(os.str());

    const auto find = [&](const char* name) {
        for (const TraceEvent& e : events)
            if (e.ph == "X" && e.name == name)
                return e;
        ADD_FAILURE() << "span '" << name << "' missing from trace";
        return TraceEvent{};
    };
    const TraceEvent parent = find("test.parent");
    const TraceEvent child_a = find("test.child_a");
    const TraceEvent child_b = find("test.child_b");
    const TraceEvent peer_span = find("test.peer_span");

    // Same thread, properly nested, children disjoint and in order.
    EXPECT_EQ(child_a.tid, parent.tid);
    EXPECT_EQ(child_b.tid, parent.tid);
    EXPECT_GE(child_a.ts, parent.ts);
    EXPECT_LE(child_a.ts + child_a.dur, parent.ts + parent.dur + 1e-3);
    EXPECT_LE(child_b.ts + child_b.dur, parent.ts + parent.dur + 1e-3);
    EXPECT_LE(child_a.ts + child_a.dur, child_b.ts + 1e-3);

    // The peer thread's span carries a different tid, and its
    // set_thread_name call produced thread-name metadata.
    EXPECT_NE(peer_span.tid, parent.tid);
    bool named = false;
    for (const TraceEvent& e : events)
        named = named || (e.ph == "M" && e.tid == peer_span.tid);
    EXPECT_TRUE(named) << "no thread_name metadata for the peer thread";
}

TEST(ObsTrace, PoolWorkerSpansLandOnWorkerThreads)
{
    core::ThreadPool pool(4);
    obs::set_trace_enabled(true);
    obs::clear_trace();
    // Rendezvous: early lanes park until a second thread has joined
    // in, so "spans land on >= 2 threads" is guaranteed rather than a
    // race the submitting thread can win outright (under TSan's slow
    // thread start it regularly drained all 64 chunks alone).  Safe
    // from deadlock: parallel_for's caller and all four workers pull
    // chunks concurrently, so a second thread always arrives.
    std::mutex seen_mu;
    std::vector<std::thread::id> seen;
    std::atomic<bool> go{false};
    pool.parallel_for(64, [&](std::size_t) {
        obs::Span s("test.lane");
        {
            std::lock_guard<std::mutex> lk(seen_mu);
            if (std::find(seen.begin(), seen.end(),
                          std::this_thread::get_id()) == seen.end())
                seen.push_back(std::this_thread::get_id());
            if (seen.size() >= 2)
                go.store(true);
        }
        while (!go.load())
            std::this_thread::yield();
    });
    obs::set_trace_enabled(false);

    std::ostringstream os;
    obs::write_trace(os);
    std::vector<long> tids;
    std::size_t lanes = 0;
    for (const TraceEvent& e : parse_trace(os.str()))
        if (e.ph == "X" && e.name == "test.lane") {
            ++lanes;
            if (std::find(tids.begin(), tids.end(), e.tid) == tids.end())
                tids.push_back(e.tid);
        }
    EXPECT_EQ(lanes, 64u); // every iteration's span was recorded
    EXPECT_GE(tids.size(), 2u)
        << "pool-lane spans all landed on one thread";
}

// ---------------------------------------------------------------------
// Disabled path: no allocations, no recording
// ---------------------------------------------------------------------

TEST(ObsDisabled, SpanIsAllocationFreeAndRecordsNothing)
{
    obs::set_trace_enabled(false);
    // Resolve flags / registry entries up front so the measured region
    // is the steady state, then snapshot the buffered-span count.
    obs::Counter& c = obs::counter("test.obs.disabled_counter");
    static obs::Histogram probe; // static: construction not measured
    (void)obs::trace_enabled();
    const std::size_t spans_before = obs::trace_span_count();

    const std::uint64_t allocs_before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 10000; ++i) {
        obs::Span s("test.disabled");
        s.arg("i", i);
        c.add(1);
        probe.record(static_cast<std::uint64_t>(i));
        obs::set_thread_name("never-applied");
    }
    const std::uint64_t allocs_after =
        g_allocations.load(std::memory_order_relaxed);

    EXPECT_EQ(allocs_after - allocs_before, 0u)
        << "disabled-path instrumentation allocated";
    EXPECT_EQ(obs::trace_span_count(), spans_before)
        << "disabled spans were recorded";
}

TEST(ObsMetrics, TextDumpCoversRegisteredInstruments)
{
    obs::counter("test.obs.metric_counter").add(5);
    obs::gauge("test.obs.metric_gauge").set(-3);
    obs::histogram("test.obs.metric_hist").record(100);
    const std::string text = obs::metrics_text();
    EXPECT_NE(text.find("mx_test_obs_metric_counter"), std::string::npos);
    EXPECT_NE(text.find("mx_test_obs_metric_gauge -3"), std::string::npos);
    EXPECT_NE(text.find("mx_test_obs_metric_hist_count"),
              std::string::npos);
    EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
}

} // namespace
