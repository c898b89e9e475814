#pragma once

/**
 * @file
 * mx_obs: low-overhead instrumentation for the serving stack — spans,
 * counters, latency histograms, and two exporters.
 *
 * The paper's Figure 6 pipeline is a staged dataflow (queue -> batch
 * assembly -> quantize -> GEMM tiles -> K/V append); this subsystem
 * makes each stage measurable instead of inferred from end-to-end
 * bench deltas.  Three primitives:
 *
 *  - Span: a monotonic-clock RAII scope written to a per-thread ring
 *    buffer.  Spans may carry a few numeric args (tile counts, bytes,
 *    SIMD level) with static-string keys.  Per-thread buffers mean a
 *    span never contends with another thread's spans, and the RAII
 *    stack discipline makes every thread's spans well-nested by
 *    construction — including spans opened inside core::ThreadPool
 *    worker lanes, which land in the worker's own buffer under its own
 *    thread id.
 *  - Counter / Gauge: relaxed-atomic event counts and level samples,
 *    registered once by name (dotted taxonomy: "session.hits",
 *    "gemm.calls") and cached by reference at the call site.
 *  - Histogram: log-bucketed value distribution (HDR-style: 32
 *    sub-buckets per power of two, <= 1/32 relative bucket width) with
 *    p50/p99/p999 extraction.  Values below 32 land in width-1 buckets,
 *    so small-count distributions report percentiles exactly;
 *    tests/test_obs.cpp pins both regimes against a sorted-vector
 *    oracle.
 *
 * Enablement and overhead: counters, gauges, and histograms are always
 * live (a relaxed fetch_add — this is what lets
 * serve::InferenceEngine::stats() report latency percentiles without
 * any knob).  Spans are gated on tracing: when MX_TRACE is unset and no
 * runtime override is installed, a Span construct/destruct is ONE
 * relaxed atomic load and a branch — no clock read, no allocation, no
 * buffer.  bench/serve_latency.cpp measures the disabled-path cost and
 * claim-checks the implied serve-throughput overhead at < 2%, so the
 * instrumentation stays compiled in everywhere.
 *
 * Exporters:
 *  - Chrome/Perfetto trace-event JSON (write_trace / $MX_TRACE=<path>):
 *    one complete ("ph":"X") event per span with thread attribution,
 *    plus one counter ("ph":"C") event per registered counter/gauge at
 *    export time.  Load the file in chrome://tracing or ui.perfetto.dev;
 *    scripts/trace_summary.py validates and summarizes it.
 *  - Prometheus-style text (metrics_text / $MX_METRICS=<path>): every
 *    registered counter as a monotonic counter, every gauge as a gauge,
 *    every histogram as a summary (quantile rows + _sum + _count).
 *    Dotted registry names are slugified ("session.hits" ->
 *    "mx_session_hits").
 *
 * When either environment variable is set, the matching file is written
 * at process exit (atexit) — a bench or test binary needs no code to
 * participate.  Both paths are read with std::getenv, not core/env.h:
 * mx_obs sits BELOW mx_core in the layer DAG (core's thread pool and
 * kernel dispatch are themselves instrumented), and the values are
 * opaque paths with no parse rules to share.
 *
 * Knobs:
 *   MX_TRACE=<path>    enable span recording; write trace JSON at exit
 *   MX_METRICS=<path>  write the Prometheus text dump at exit
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace mx {
namespace obs {

namespace detail {

/** Bit 0 = tracing, bit 1 = metrics dump; -1 = not resolved yet. */
extern std::atomic<int> g_flags;

/** Cold path: resolve MX_TRACE/MX_METRICS once and register the
 *  at-exit exporters.  Returns the resolved flag word. */
int resolve_flags();

/** The branch-on-cold-atomic gate every fast path shares. */
inline int
flags()
{
    const int f = g_flags.load(std::memory_order_relaxed);
    return f >= 0 ? f : resolve_flags();
}

} // namespace detail

/** True when spans are being recorded (MX_TRACE set, or
 *  set_trace_enabled(true) installed at runtime). */
inline bool
trace_enabled()
{
    return (detail::flags() & 1) != 0;
}

/** True when the process writes a metrics dump at exit (MX_METRICS
 *  set, or set_metrics_enabled(true) installed at runtime). */
inline bool
metrics_enabled()
{
    return (detail::flags() & 2) != 0;
}

/** Runtime overrides (test hooks + embedder API): flip span recording /
 *  the metrics flag without touching the environment.  Enabling tracing
 *  at runtime does NOT install the at-exit file writer — call
 *  write_trace explicitly (the env-driven path installs it). */
void set_trace_enabled(bool on);
void set_metrics_enabled(bool on);

/**
 * A monotonically increasing event count.  add() is a relaxed atomic
 * fetch_add — safe from any thread, never a synchronization point.
 */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/** A level sample (resident bytes, queue depth): set/add, may go down. */
class Gauge
{
  public:
    void
    set(std::int64_t v)
    {
        v_.store(v, std::memory_order_relaxed);
    }

    void
    add(std::int64_t n)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::int64_t
    value() const
    {
        return v_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::int64_t> v_{0};
};

/**
 * Log-bucketed distribution of non-negative integer values (latencies
 * in nanoseconds, byte counts).  HDR-style bucketing: values below
 * kSubBuckets get width-1 buckets (exact); above, each power of two
 * splits into kSubBuckets linear sub-buckets, so a bucket's width is at
 * most value/kSubBuckets (<= 3.125% relative error at 32).
 *
 * record() is two relaxed fetch_adds; percentile extraction walks the
 * bucket array (a snapshot — concurrent records may or may not be
 * seen, each atomically).
 */
class Histogram
{
  public:
    /** Sub-buckets per power of two (and the exact-bucket threshold). */
    static constexpr std::size_t kSubBuckets = 32;
    static constexpr std::size_t kSubBits = 5; ///< log2(kSubBuckets)
    /** Bucket count: 32 exact + 59 octaves x 32 sub-buckets. */
    static constexpr std::size_t kBuckets =
        kSubBuckets + (64 - kSubBits) * kSubBuckets;

    Histogram();
    Histogram(const Histogram&) = delete;
    Histogram& operator=(const Histogram&) = delete;
    ~Histogram();

    void record(std::uint64_t value);

    std::uint64_t count() const;
    /** Sum of every recorded value (exact, not bucket-quantized). */
    std::uint64_t sum() const;
    double mean() const;

    /** Inclusive value range of one bucket. */
    struct Bounds
    {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
    };

    /**
     * The bucket holding the nearest-rank @p p percentile (rank
     * ceil(p * count), clamped to [1, count]) — i.e. the sorted-vector
     * oracle's value v at that rank satisfies lo <= v <= hi.  Zeros
     * when the histogram is empty.
     */
    Bounds percentile_bounds(double p) const;

    /** Upper bound of the percentile bucket: the smallest recorded
     *  bucket boundary v such that at least ceil(p * count) recorded
     *  values are <= v.  Exact for values below kSubBuckets; at most
     *  1/kSubBuckets above the oracle elsewhere. */
    std::uint64_t percentile(double p) const;

    /** percentile() of a nanosecond histogram, in milliseconds. */
    double
    percentile_ms(double p) const
    {
        return static_cast<double>(percentile(p)) * 1e-6;
    }

    /** Drop every recorded value (test hook; racy vs live record()). */
    void reset();

    /** Bucket index of @p value (exposed for the exactness tests). */
    static std::size_t bucket_index(std::uint64_t value);
    /** Inclusive value range of bucket @p index. */
    static Bounds bucket_bounds(std::size_t index);

  private:
    std::atomic<std::uint64_t>* buckets_; ///< [kBuckets], heap-allocated.
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/**
 * Registry lookup-or-create by dotted name ("session.hits").  The
 * returned reference is process-lifetime stable — cache it in a
 * function-local static so the mutex-guarded lookup runs once per call
 * site, not per event.  Names must be stable literals; the first
 * segment is the subsystem (the taxonomy trace_summary.py groups by).
 */
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

/**
 * RAII trace span.  When tracing is disabled, construction is one
 * relaxed atomic load + branch and destruction one branch — no clock
 * read, no allocation.  When enabled, the span records
 * [construct, destruct) on the calling thread's ring buffer.
 *
 * @p name must be a static string (stored by pointer).  Args likewise:
 * static-string keys, numeric values, at most kMaxArgs (extras are
 * dropped).
 */
class Span
{
  public:
    static constexpr std::size_t kMaxArgs = 8;

    explicit Span(const char* name)
    {
        if (trace_enabled())
            begin(name);
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    ~Span()
    {
        if (live_)
            end();
    }

    /** Attach a numeric arg (no-op when the span is not recording). */
    void
    arg(const char* key, double value)
    {
        if (live_ && nargs_ < kMaxArgs) {
            keys_[nargs_] = key;
            vals_[nargs_] = value;
            ++nargs_;
        }
    }

  private:
    void begin(const char* name);
    void end();

    bool live_ = false;
    std::uint8_t nargs_ = 0;
    std::uint16_t depth_ = 0;
    const char* name_ = nullptr;
    std::uint64_t t0_ = 0;
    const char* keys_[kMaxArgs] = {};
    double vals_[kMaxArgs] = {};
};

/**
 * Name the calling thread in trace exports ("serve-worker-0",
 * "pool-worker").  No-op while tracing is disabled (buffers only exist
 * when spans record).
 */
void set_thread_name(const char* name);

/** Monotonic clock, nanoseconds since an arbitrary process epoch. */
std::uint64_t now_ns();

/** Spans currently resident across every thread's ring buffer (test
 *  and sizing hook; spans dropped by full rings are counted in the
 *  "obs.spans_dropped" counter). */
std::size_t trace_span_count();

/** Drop every buffered span (test hook; thread names survive). */
void clear_trace();

/** Write the Chrome trace-event JSON of everything buffered (plus one
 *  counter event per registered counter/gauge) to @p os.  One event
 *  object per line — greppable, and trivially parseable line-wise. */
void write_trace(std::ostream& os);

/** write_trace to @p path; returns false (and warns on stderr) when
 *  the file cannot be written. */
bool write_trace(const std::string& path);

/** The Prometheus-style text dump of every registered counter, gauge,
 *  and histogram. */
std::string metrics_text();

/** metrics_text() to @p path; returns false (and warns on stderr) when
 *  the file cannot be written. */
bool write_metrics(const std::string& path);

} // namespace obs
} // namespace mx
