/**
 * @file
 * mx_e2e: the end-to-end MX serving benchmark driver (see README.md in
 * this directory for the metric glossary and how to run it).
 *
 * One process serves one workload against a direct-cast MX9 model that
 * it loads from an MXFROZEN artifact.  A separate `--export` process
 * builds the FP32 model, freezes it and writes that artifact first, so
 * the serving process's memory never includes the FP32 build:
 *
 *   $ mx_e2e --export --workload gpt_decode
 *   $ mx_e2e --workload gpt_decode --seed 1 --seconds 28 --trace 0
 *
 * Workloads (all load comes from this one driver thread):
 *   mlp_open     open loop of single-row MLP requests, Poisson arrivals
 *                at fixed steps of 2k, 5k, 10k and 15k rows/s
 *   gpt_decode   closed loop of 16 greedy decode streams (8-token
 *                prompt, 56 generated tokens, then a new session)
 *   gpt_prefill  closed loop of 8 callers, each request a new session
 *                with a 48-token prompt that reads one token
 *
 * The seed picks the inputs only (MLP rows, prompts, arrival times);
 * the model weights are fixed, so every run serves the same model.
 * Every reply is checked bit for bit against a direct call on the same
 * model, computed once per process outside every timer.
 *
 * With --trace 1 the driver records obs spans around its own calls
 * (loadgen.submit, models.batch, artifact.open, artifact.load, and a
 * loadgen.window marking the traced phase) and writes
 * TRACE_<workload>.json; fold_trace.py folds it into per-layer metrics.
 *
 * Outputs go to $MX_BENCH_OUT_DIR (default "."): the artifact,
 * E2E_<workload>.json, and the trace.  Any other MX_* variable in the
 * environment is refused, so ambient knobs cannot change the measured
 * configuration.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "artifact/reader.h"
#include "core/bdr_format.h"
#include "core/kernels/dispatch.h"
#include "gemm/packed_gemm.h"
#include "models/mlp.h"
#include "models/serve_adapters.h"
#include "models/transformer.h"
#include "nn/quant.h"
#include "obs/obs.h"
#include "serve/engine.h"
#include "serve/session_cache.h"
#include "stats/rng.h"

extern char** environ;

using namespace mx;
using tensor::Tensor;

namespace {

// ---------------------------------------------------------------------
// Fixed configuration.  Model seeds are constants: the workload seed
// varies the inputs, never the system under test.
// ---------------------------------------------------------------------

constexpr std::int64_t kMlpIn = 256;
constexpr std::int64_t kMlpOut = 64;
constexpr std::uint64_t kMlpModelSeed = 71;
constexpr std::size_t kMlpPoolRows = 1024;
constexpr double kMlpSteps[] = {2000, 5000, 10000, 15000};
/** The step the traced phase runs at. */
constexpr double kMlpTracedStep = 10000;
/** The step whose latency is reported as latency_p50_ms.  At 10k rows/s
 *  the queue amplifies any drift in the host's speed: on 4 shared
 *  vCPUs the p50 there spread 31-46% over ten runs, against 21% at 5k
 *  (README.md, calibration). */
constexpr double kMlpLatencyStep = 5000;
constexpr double kSloMs = 2.0;

/** An untraced run measures kSegments equal segments, each after a
 *  group of set-up cycles whose last model then serves it, so setup_s
 *  samples the host across the whole run, not in its first fraction of
 *  a second (README.md, calibration).  mlp_open's segments are its
 *  steps. */
constexpr int kSegments = 4;
static_assert(std::size(kMlpSteps) == static_cast<std::size_t>(kSegments));
/** Set-up cycles per group: an MLP cycle takes about 5 ms, a GPT one
 *  about 120 ms. */
constexpr int kMlpSetupCycles = 24;
constexpr int kGptSetupCycles = 5;
/** The traced run sets up once, in one group of this many cycles. */
constexpr int kTracedSetupCycles = 9;
/** The traced phase stops once this many spans are buffered in total,
 *  so no single thread's 65,536-span ring can wrap. */
constexpr std::size_t kSpanBudget = 56000;
/** Load before each measured phase.  Lazy set-up (the thread pool, the
 *  first batch) has already run in the set-up cycles. */
constexpr double kWarmupSeconds = 0.25;
/** Every end-to-end metric is a median over this many equal windows of
 *  its phase (see windowed()). */
constexpr int kWindows = 7;

/** One GPT workload's shape. */
struct GptLoad
{
    int clients;        ///< Streams/callers, one outstanding request each.
    int prompt_len;     ///< Tokens in every prompt.
    int gen_tokens;     ///< Replies read per session before it ends.
    int prompt_pool;    ///< Distinct prompts drawn from the seed.
    std::size_t sessions; ///< SessionCache capacity.
    bool erase_finished; ///< erase() a session once its stream ends.
};

constexpr GptLoad kDecode{16, 8, 56, 16, 64, true};
constexpr GptLoad kPrefill{8, 48, 1, 32, 8, false};

models::TransformerConfig
gpt_config()
{
    models::TransformerConfig cfg;
    cfg.vocab = 256;
    cfg.d_model = 256;
    cfg.heads = 8;
    cfg.layers = 4;
    cfg.seq_len = 64;
    cfg.spec = nn::QuantSpec::forward_only(core::mx9());
    cfg.seed = 73;
    return cfg;
}

// ---------------------------------------------------------------------
// Small utilities.
// ---------------------------------------------------------------------

double
now_s()
{
    return static_cast<double>(obs::now_ns()) * 1e-9;
}

/** Nearest-rank percentile of @p v (0 when empty). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p * static_cast<double>(v.size()));
    const std::size_t i = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[i - 1];
}

double
median(const std::vector<double>& v)
{
    return percentile(v, 0.5);
}

/** Samples of one phase: when each was taken (seconds since the phase
 *  began) and its value. */
struct Series
{
    std::vector<double> t, v;

    void
    add(double ti, double vi)
    {
        t.push_back(ti);
        v.push_back(vi);
    }
};

/**
 * Median, over kWindows equal windows of [0, span), of @p stat applied
 * to each window's values (empty windows skipped).  On a shared host a
 * one-second burst of interference from other tenants moves the raw tail
 * of a whole run, but only one window's value here.
 */
template <typename Stat>
double
windowed(const Series& s, double span, Stat&& stat)
{
    std::vector<std::vector<double>> w(kWindows);
    for (std::size_t i = 0; i < s.t.size(); ++i) {
        const int k = std::clamp(
            static_cast<int>(s.t[i] / span * kWindows), 0, kWindows - 1);
        w[static_cast<std::size_t>(k)].push_back(s.v[i]);
    }
    std::vector<double> per;
    for (const std::vector<double>& x : w)
        if (!x.empty())
            per.push_back(stat(x));
    return median(per);
}

/** windowed() percentile @p p. */
double
windowed_pct(const Series& s, double span, double p)
{
    return windowed(s, span,
                    [p](const std::vector<double>& x) {
                        return percentile(x, p);
                    });
}

/** Samples per second over [0, span); the drain after a phase's end
 *  is not counted. */
double
per_second(const Series& s, double span)
{
    return static_cast<double>(std::count_if(
               s.t.begin(), s.t.end(), [span](double t) { return t < span; })) /
           span;
}

bool
bit_equal(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

int
argmax(const std::vector<float>& v)
{
    return static_cast<int>(std::max_element(v.begin(), v.end()) -
                            v.begin());
}

double
peak_rss_mb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
current_rss_mb()
{
    std::ifstream statm("/proc/self/statm");
    long pages = 0, resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string
out_dir()
{
    const char* d = std::getenv("MX_BENCH_OUT_DIR");
    return d != nullptr && d[0] != '\0' ? d : ".";
}

const char*
simd_name()
{
    switch (core::kernels::active_simd_level()) {
      case core::kernels::SimdLevel::Avx512: return "avx512";
      case core::kernels::SimdLevel::Avx2: return "avx2";
      case core::kernels::SimdLevel::Scalar: break;
    }
    return "scalar";
}

/** Named measurements in emission order; the JSON writer and the
 *  `name value unit` printer both walk it. */
struct Sheet
{
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };

    void
    put(const std::string& name, double value, const char* unit)
    {
        entries.push_back({name, value, unit});
    }

    std::vector<Entry> entries;
};

/** Requests attempted, thrown, and answered with wrong bits. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t errors = 0;
    std::uint64_t mismatches = 0;

    Tally&
    operator+=(const Tally& o)
    {
        attempted += o.attempted;
        errors += o.errors;
        mismatches += o.mismatches;
        return *this;
    }
};

/** Ends a phase early; called with the requests sent (open loop) or
 *  replies read (closed loop) so far. */
using StopFn = std::function<bool(std::uint64_t done)>;

// ---------------------------------------------------------------------
// Serving stacks.  The bench wraps each batch function in a
// models.batch span so the trace separates model time from engine
// time; nothing inside src/ is instrumented by this driver.
// ---------------------------------------------------------------------

serve::EngineConfig
mlp_engine_config()
{
    // The frozen MLP's rows are independent, as serve_latency declares;
    // every other sizing knob is the engine default.
    serve::EngineConfig cfg;
    cfg.rows_independent = true;
    return cfg;
}

serve::InferenceEngine::BatchFn
mlp_batch_fn(models::MlpClassifier& model)
{
    return [&model](const Tensor& batch) {
        obs::Span span("models.batch");
        span.arg("rows", static_cast<double>(batch.dim(0)));
        return model.logits(batch, false);
    };
}

serve::InferenceEngine::SessionBatchFn
gpt_batch_fn(models::GptMini& model, serve::SessionCache& cache)
{
    return [fn = models::gpt_decode_batch_fn(model, cache)](
               const Tensor& batch,
               const std::vector<std::uint64_t>& sessions) {
        obs::Span span("models.batch");
        span.arg("rows", static_cast<double>(batch.dim(0)));
        return fn(batch, sessions);
    };
}

/** A GPT serving stack; the cache is declared first so the engine
 *  (which drains on destruction) dies before it. */
struct GptStack
{
    GptStack(models::GptMini& model, std::size_t sessions)
        : cache(sessions),
          engine(gpt_batch_fn(model, cache), model.config().seq_len)
    {
    }

    serve::SessionCache cache;
    serve::InferenceEngine engine;
};

// ---------------------------------------------------------------------
// Set-up: fresh open -> load_frozen -> engine -> first reply cycles.
// ---------------------------------------------------------------------

struct SetupTimes
{
    std::vector<double> total_s, first_reply_ms;
    double rss_after_load_mb = 0;
};

/** Runs one group of @p cycles cycles, adding to @p st; returns the
 *  last cycle's model.  @p first_reply builds a serving stack on the
 *  model, sends one request and waits for its reply. */
template <typename Model, typename FirstReply>
Model
measure_setup(const std::string& path, int cycles, SetupTimes& st,
              FirstReply&& first_reply)
{
    std::optional<Model> model;
    for (int c = 0; c < cycles; ++c) {
        model.reset();
        const double t0 = now_s();
        std::optional<artifact::ArtifactReader> reader;
        {
            obs::Span span("artifact.open");
            span.arg("cycle", c);
            reader.emplace(path);
        }
        {
            obs::Span span("artifact.load");
            span.arg("cycle", c);
            model.emplace(Model::load_frozen(*reader));
        }
        const double t2 = now_s();
        if (st.total_s.empty())
            st.rss_after_load_mb = current_rss_mb();
        first_reply(*model);
        const double t3 = now_s();
        st.total_s.push_back(t3 - t0);
        st.first_reply_ms.push_back((t3 - t2) * 1e3);
    }
    return std::move(*model);
}

void
put_setup(Sheet& sheet, const SetupTimes& st, bool trace)
{
    if (trace) {
        sheet.put("setup.first_reply_ms", median(st.first_reply_ms), "ms");
        sheet.put("setup.rss_after_load_mb", st.rss_after_load_mb, "MB");
    } else {
        sheet.put("setup_s", median(st.total_s), "s");
    }
}

// ---------------------------------------------------------------------
// mlp_open: open-loop Poisson arrivals of single-row requests.
// ---------------------------------------------------------------------

struct MlpInputs
{
    std::vector<std::vector<float>> rows;
    std::vector<std::vector<float>> refs; ///< Direct single-row logits.
};

MlpInputs
make_mlp_inputs(models::MlpClassifier& mlp, std::uint64_t seed)
{
    MlpInputs in;
    stats::Rng rng(seed);
    in.rows.resize(kMlpPoolRows);
    for (std::vector<float>& r : in.rows) {
        r.resize(static_cast<std::size_t>(kMlpIn));
        for (float& v : r)
            v = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    for (const std::vector<float>& r : in.rows) {
        Tensor x({1, kMlpIn});
        std::copy(r.begin(), r.end(), x.data());
        Tensor y = mlp.logits(x, false);
        in.refs.emplace_back(y.data(), y.data() + kMlpOut);
    }
    return in;
}

/** One open-loop phase at a fixed offered rate. */
struct OpenPhase
{
    double span = 0;    ///< Seconds of schedule actually sent.
    Series latency_ms;  ///< At its due time: due time -> completion.
    std::vector<double> late_ms;  ///< Submit start minus due time.
    std::vector<double> queue_ms; ///< Reply::queue_ms.
    Tally tally;
};

/**
 * Sends Poisson arrivals at @p rate for @p seconds of schedule.  The
 * schedule is drawn before the first send so the generator does no RNG
 * work between sends; ready replies are harvested while the driver
 * spin-waits for the next due time.  @p stop (checked every 64 sends)
 * ends the phase early.
 *
 * The spin yields on every turn.  On 4 vCPUs, a driver that spins
 * without yielding kept woken engine and pool threads off its core (p99
 * at 2k rows/s reached 5 ms), and one that blocked until the due time
 * was woken up to 0.1 ms late when the cores were busy.
 */
OpenPhase
run_open(serve::InferenceEngine& engine, const MlpInputs& in, double rate,
         double seconds, stats::Rng& rng, std::uint64_t& req_id,
         const StopFn& stop = {})
{
    OpenPhase ph;
    std::vector<std::pair<double, std::uint32_t>> arrivals;
    for (double t = -std::log(1.0 - rng.uniform()) / rate; t < seconds;
         t += -std::log(1.0 - rng.uniform()) / rate)
        arrivals.emplace_back(t, static_cast<std::uint32_t>(
                                     rng.uniform_u64(in.rows.size())));

    struct Inflight
    {
        double due, submitted;
        std::uint32_t idx;
        std::future<serve::Reply> fut;
    };
    // Sized up front, so peak RSS does not depend on how far a vector's
    // capacity happened to double.
    ph.latency_ms.t.reserve(arrivals.size());
    ph.latency_ms.v.reserve(arrivals.size());
    ph.late_ms.reserve(arrivals.size());
    ph.queue_ms.reserve(arrivals.size());
    std::deque<Inflight> inflight;
    double t0 = 0;
    const auto finish = [&](Inflight& f) {
        try {
            const serve::Reply r = f.fut.get();
            ph.latency_ms.add(f.due - t0, (f.submitted - f.due) * 1e3 +
                                              r.latency_ms);
            ph.queue_ms.push_back(r.queue_ms);
            if (!bit_equal(r.output, in.refs[f.idx]))
                ++ph.tally.mismatches;
        } catch (const std::exception&) {
            ++ph.tally.errors;
        }
    };
    // One replica serves the queue in FIFO order, so replies complete
    // in submission order and only the oldest needs polling.
    const auto harvest = [&](bool wait) {
        while (!inflight.empty() &&
               (wait || inflight.front().fut.wait_for(
                            std::chrono::seconds(0)) ==
                            std::future_status::ready)) {
            finish(inflight.front());
            inflight.pop_front();
        }
    };

    t0 = now_s();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const double due = t0 + arrivals[i].first;
        for (harvest(false); now_s() < due; harvest(false))
            std::this_thread::yield();
        const double start = now_s();
        ph.late_ms.push_back((start - due) * 1e3);
        ++ph.tally.attempted;
        try {
            obs::Span span("loadgen.submit");
            span.arg("req", static_cast<double>(req_id++));
            std::future<serve::Reply> fut =
                engine.submit(in.rows[arrivals[i].second]);
            inflight.push_back(
                {due, now_s(), arrivals[i].second, std::move(fut)});
        } catch (const std::exception&) {
            ++ph.tally.errors;
        }
        if (stop && i % 64 == 63 && stop(ph.tally.attempted))
            break;
    }
    harvest(true);
    const std::size_t sent = ph.tally.attempted;
    ph.span = sent == arrivals.size() ? seconds : arrivals[sent - 1].first;
    return ph;
}

// ---------------------------------------------------------------------
// GPT workloads: closed loops of streams with one outstanding request.
// ---------------------------------------------------------------------

struct GptInputs
{
    std::vector<std::vector<int>> prompts;
    /** refs[prompt][step]: direct warm decode_logits continuation. */
    std::vector<std::vector<std::vector<float>>> refs;
    /** Session bytes per cached token at a finished stream's length. */
    double bytes_per_token = 0;
};

GptInputs
make_gpt_inputs(models::GptMini& gpt, const GptLoad& load,
                std::uint64_t seed)
{
    const models::TransformerConfig& cfg = gpt.config();
    GptInputs in;
    stats::Rng rng(seed);
    in.prompts.resize(static_cast<std::size_t>(load.prompt_pool));
    for (std::vector<int>& p : in.prompts) {
        p.resize(static_cast<std::size_t>(load.prompt_len));
        for (int& t : p)
            t = static_cast<int>(
                rng.uniform_u64(static_cast<std::uint64_t>(cfg.vocab)));
    }
    for (const std::vector<int>& p : in.prompts) {
        models::GptDecodeSession session;
        std::vector<int> ctx = p;
        std::vector<std::vector<float>> steps;
        for (int s = 0; s < load.gen_tokens; ++s) {
            Tensor logits = gpt.decode_logits(ctx, &session);
            steps.emplace_back(logits.data(), logits.data() + cfg.vocab);
            ctx.push_back(argmax(steps.back()));
        }
        in.refs.push_back(std::move(steps));
        in.bytes_per_token =
            static_cast<double>(models::decode_session_bytes(session)) /
            static_cast<double>(session.tokens.size());
    }
    return in;
}

/** One closed-loop phase. */
struct ClosedPhase
{
    double seconds = 0; ///< Until the last reply of the drain.
    std::uint64_t replies = 0;    ///< Replies read (generated tokens).
    Series ttft_ms;               ///< First reply of each session.
    Series itl_ms;                ///< Every later reply.
    std::vector<double> react_ms; ///< Reply completion -> next submit.
    std::vector<double> queue_ms;
    Tally tally;
};

/** Ids and prompt order continue across phases, so no session id is
 *  ever reused. */
struct GptCounters
{
    std::uint64_t next_session = 1;
    std::uint64_t next_prompt = 0;
    std::uint64_t req_id = 0;
};

/**
 * Runs @p load's closed loop for @p seconds (or until @p stop, checked
 * after every reply), then drains.  Every stream starts a fresh session,
 * so each phase begins with a burst of prompts.  Each reply is timed
 * from the submit call's start to the engine's completion stamp:
 * (submit return - submit start) + Reply::latency_ms.
 */
ClosedPhase
run_closed(GptStack& stack, const GptLoad& load, const GptInputs& in,
           GptCounters& ids, double seconds, const StopFn& stop = {})
{
    struct Stream
    {
        int prompt = 0;
        int step = 0;
        std::vector<int> ctx;
        std::uint64_t session = 0;
        std::future<serve::Reply> fut;
        double start = 0, submitted = 0, done_at = -1;
    };

    const std::int64_t seq_len = gpt_config().seq_len;
    ClosedPhase ph;
    const double t0 = now_s();
    const auto close = [&](Stream& s) {
        if (load.erase_finished)
            stack.cache.erase(s.session);
    };
    const auto open = [&](Stream& s) {
        s.prompt = static_cast<int>(
            ids.next_prompt++ %
            static_cast<std::uint64_t>(load.prompt_pool));
        s.ctx = in.prompts[static_cast<std::size_t>(s.prompt)];
        s.step = 0;
        s.session = ids.next_session++;
    };
    const auto submit = [&](Stream& s) {
        s.start = now_s();
        if (s.done_at >= 0)
            ph.react_ms.push_back((s.start - s.done_at) * 1e3);
        ++ph.tally.attempted;
        obs::Span span("loadgen.submit");
        span.arg("req", static_cast<double>(ids.req_id++));
        s.fut = stack.engine.submit(
            models::GptMini::pack_decode_row(s.ctx, seq_len), s.session);
        s.submitted = now_s();
    };
    const auto finish = [&](Stream& s) {
        try {
            const serve::Reply r = s.fut.get();
            const double ms = (s.submitted - s.start) * 1e3 + r.latency_ms;
            s.done_at = s.submitted + r.latency_ms * 1e-3;
            (s.step == 0 ? ph.ttft_ms : ph.itl_ms).add(s.done_at - t0, ms);
            ph.queue_ms.push_back(r.queue_ms);
            ++ph.replies;
            const auto& ref = in.refs[static_cast<std::size_t>(s.prompt)]
                                     [static_cast<std::size_t>(s.step)];
            if (!bit_equal(r.output, ref))
                ++ph.tally.mismatches;
            s.ctx.push_back(argmax(r.output));
            if (++s.step == load.gen_tokens) {
                close(s);
                open(s);
            }
        } catch (const std::exception&) {
            ++ph.tally.errors;
            s.done_at = now_s();
            close(s);
            open(s);
        }
    };

    // One replica serves the queue in FIFO order, so the oldest request
    // completes first: block on it rather than spin, leaving every core
    // to the engine and its pool.
    std::vector<Stream> streams(static_cast<std::size_t>(load.clients));
    std::deque<Stream*> order;
    for (Stream& s : streams) {
        open(s);
        submit(s);
        order.push_back(&s);
    }
    const double t_end = t0 + seconds;
    bool running = true;
    while (!order.empty()) {
        Stream& s = *order.front();
        order.pop_front();
        finish(s);
        running = running && now_s() < t_end && !(stop && stop(ph.replies));
        if (running) {
            submit(s);
            order.push_back(&s);
        }
    }
    ph.seconds = now_s() - t0;
    for (Stream& s : streams)
        close(s);
    return ph;
}

// ---------------------------------------------------------------------
// Traced-phase helpers shared by every workload.
// ---------------------------------------------------------------------

/** Execute milliseconds per row accumulated by an engine so far. */
struct ExecTotals
{
    double exec_ms = 0;
    double rows = 0;
};

ExecTotals
exec_totals(const serve::InferenceEngine& engine)
{
    const serve::EngineStats s = engine.stats();
    return {s.batch_execute.mean_ms *
                static_cast<double>(s.batch_execute.count),
            static_cast<double>(s.requests)};
}

double
exec_ms_per_row(const ExecTotals& before, const ExecTotals& after)
{
    const double rows = after.rows - before.rows;
    return rows > 0 ? (after.exec_ms - before.exec_ms) / rows : 0.0;
}

bool
span_budget_spent(std::uint64_t)
{
    return obs::trace_span_count() >= kSpanBudget;
}

/** The packed kernel's best rate on a 256x1024x1024 prequantized GEMM
 *  (traced run only; timed with tracing off). */
double
peak_gmacs_per_s()
{
    const std::size_t m = 256, k = 1024, n = 1024;
    const core::kernels::QuantPlan plan =
        core::kernels::make_quant_plan(core::mx9());
    const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
    stats::Rng rng(5);
    Tensor x = Tensor::randn({static_cast<std::int64_t>(m),
                              static_cast<std::int64_t>(k)},
                             rng, 1.0f);
    Tensor y = Tensor::randn({static_cast<std::int64_t>(n),
                              static_cast<std::int64_t>(k)},
                             rng, 0.3f);
    core::Rounder rounder;
    const auto a = gemm::PackedOperand::quantize(plan, x.data(), m, k,
                                                 rounder);
    const auto b = gemm::PackedOperand::quantize(plan, y.data(), n, k,
                                                 rounder);
    double best = 0;
    for (int rep = 0; rep < 8; ++rep) {
        const double t0 = now_s();
        gemm::matmul_nt_prequant(gp, a, b);
        best = std::max(best, static_cast<double>(m * n * k) /
                                  (now_s() - t0) * 1e-9);
    }
    return best;
}

void
put_loadgen(Sheet& sheet, const Tally& t, std::uint64_t completed,
            const std::vector<double>& late_ms)
{
    sheet.put("loadgen.sent", static_cast<double>(t.attempted), "count");
    sheet.put("loadgen.completed", static_cast<double>(completed), "count");
    sheet.put("loadgen.failed", static_cast<double>(t.errors), "count");
    sheet.put("loadgen.late_p99_ms", percentile(late_ms, 0.99), "ms");
}

void
put_session(Sheet& sheet, const serve::SessionCache::Stats& before,
            const serve::SessionCache::Stats& after, double bytes_per_token)
{
    const double hits = static_cast<double>(after.hits - before.hits);
    const double lookups =
        hits + static_cast<double>(after.misses - before.misses);
    sheet.put("session.hit_ratio", lookups > 0 ? hits / lookups : 0.0,
              "ratio");
    sheet.put("session.lookups", lookups, "count");
    sheet.put("session.evictions",
              static_cast<double>(after.evictions - before.evictions),
              "count");
    sheet.put("session.resident_bytes",
              static_cast<double>(after.resident_bytes), "bytes");
    sheet.put("session.bytes_per_token", bytes_per_token, "bytes");
}

std::uint64_t
appended_tokens()
{
    static obs::Counter& c = obs::counter("attn.append.tokens");
    return c.value();
}

/** Traced run epilogue shared by every workload. */
void
put_trace_common(Sheet& sheet, const std::vector<double>& queue_ms,
                 std::uint64_t appended, double rows, double traced_ms_row,
                 double untraced_ms_row)
{
    sheet.put("serve.queue_wait_p50_ms", percentile(queue_ms, 0.5), "ms");
    sheet.put("serve.queue_wait_p99_ms", percentile(queue_ms, 0.99), "ms");
    sheet.put("attn.append_tokens_per_row",
              rows > 0 ? static_cast<double>(appended) / rows : 0.0,
              "tokens");
    sheet.put("trace.overhead_pct",
              untraced_ms_row > 0
                  ? 100.0 * (traced_ms_row / untraced_ms_row - 1.0)
                  : 0.0,
              "%");
    sheet.put("gemm.peak_gmacs_per_s", peak_gmacs_per_s(), "GMAC/s");
}

// ---------------------------------------------------------------------
// Workload runners.
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 28;
    bool trace = false;
    bool do_export = false;
    std::string git_sha = "unknown";
};

std::string
artifact_path(const std::string& workload)
{
    return out_dir() + "/" + workload + ".mxfrozen";
}

/** One mlp_open set-up group of @p cycles cycles. */
models::MlpClassifier
setup_mlp(const Args& a, int cycles, SetupTimes& st)
{
    return measure_setup<models::MlpClassifier>(
        artifact_path(a.workload), cycles, st,
        [](models::MlpClassifier& m) {
            serve::InferenceEngine engine(mlp_batch_fn(m), kMlpIn,
                                          mlp_engine_config());
            engine.submit(std::vector<float>(kMlpIn, 0.5f)).get();
        });
}

Tally
run_mlp(const Args& a, Sheet& sheet)
{
    SetupTimes st;
    stats::Rng rng(a.seed * 0x9e3779b97f4a7c15ULL + 1);
    std::uint64_t req_id = 0;
    Tally total;
    if (a.trace) {
        obs::set_trace_enabled(true);
        models::MlpClassifier mlp = setup_mlp(a, kTracedSetupCycles, st);
        obs::set_trace_enabled(false);
        put_setup(sheet, st, true);
        const MlpInputs in = make_mlp_inputs(mlp, a.seed);
        serve::InferenceEngine engine(mlp_batch_fn(mlp), kMlpIn,
                                      mlp_engine_config());
        run_open(engine, in, 5000, kWarmupSeconds, rng, req_id);
        const ExecTotals e0 = exec_totals(engine);
        const std::uint64_t app0 = appended_tokens();
        obs::set_trace_enabled(true);
        OpenPhase traced;
        {
            obs::Span window("loadgen.window");
            traced = run_open(engine, in, kMlpTracedStep, a.seconds / 2, rng,
                              req_id, span_budget_spent);
        }
        obs::set_trace_enabled(false);
        const ExecTotals e1 = exec_totals(engine);
        const std::uint64_t app1 = appended_tokens();
        // The same offered load and request count with tracing off: the
        // baseline of trace.overhead_pct.
        const OpenPhase same = run_open(
            engine, in, kMlpTracedStep, a.seconds / 2, rng, req_id,
            [n = traced.tally.attempted](std::uint64_t sent) {
                return sent >= n;
            });
        const ExecTotals e2 = exec_totals(engine);
        total += traced.tally;
        total += same.tally;
        put_trace_common(sheet, traced.queue_ms, app1 - app0,
                         static_cast<double>(traced.latency_ms.v.size()),
                         exec_ms_per_row(e0, e1), exec_ms_per_row(e1, e2));
        put_session(sheet, {}, {}, 0.0);
        put_loadgen(sheet, traced.tally, traced.latency_ms.v.size(),
                    traced.late_ms);
        return total;
    }

    // Untraced: the four offered-load steps, one after another, each
    // served by the model of the set-up group before it from a fresh
    // engine, so no two models are ever resident at once.  References
    // come from the first model; every load of the artifact must
    // reproduce them bit for bit.
    const double step_s = a.seconds / kSegments;
    double goodput_rps = 0;
    std::vector<double> late_all;
    std::uint64_t completed = 0;
    std::optional<MlpInputs> in;
    for (const double rate : kMlpSteps) {
        models::MlpClassifier mlp = setup_mlp(a, kMlpSetupCycles, st);
        if (!in)
            in = make_mlp_inputs(mlp, a.seed);
        serve::InferenceEngine engine(mlp_batch_fn(mlp), kMlpIn,
                                      mlp_engine_config());
        run_open(engine, *in, 5000, kWarmupSeconds, rng, req_id);
        const OpenPhase ph = run_open(engine, *in, rate, step_s, rng, req_id);
        total += ph.tally;
        completed += ph.latency_ms.v.size();
        late_all.insert(late_all.end(), ph.late_ms.begin(),
                        ph.late_ms.end());
        const std::string p = "step_" + std::to_string(
                                            static_cast<int>(rate)) + ".";
        const double p50 = windowed_pct(ph.latency_ms, ph.span, 0.5);
        const double p99 = windowed_pct(ph.latency_ms, ph.span, 0.99);
        // Goodput: rows answered within the latency limit, per second.
        Series good;
        for (std::size_t i = 0; i < ph.latency_ms.v.size(); ++i)
            if (ph.latency_ms.v[i] <= kSloMs)
                good.add(ph.latency_ms.t[i], 1.0);
        const double good_rps = per_second(good, ph.span);
        sheet.put(p + "latency_p50_ms", p50, "ms");
        sheet.put(p + "latency_p99_ms", p99, "ms");
        sheet.put(p + "late_p99_ms", percentile(ph.late_ms, 0.99), "ms");
        sheet.put(p + "samples", static_cast<double>(ph.latency_ms.v.size()),
                  "count");
        sheet.put(p + "goodput_rps", good_rps, "rows/s");
        if (rate == kMlpLatencyStep) {
            sheet.put("latency_p50_ms", p50, "ms");
            sheet.put("latency_p99_ms", p99, "ms");
        }
        if (rate == kMlpSteps[std::size(kMlpSteps) - 1])
            sheet.put("throughput_per_s", good_rps, "1/s");
        if (p99 <= kSloMs && ph.tally.errors == 0 &&
            ph.tally.mismatches == 0)
            goodput_rps = rate;
    }
    put_setup(sheet, st, false);
    sheet.put("goodput_rps", goodput_rps, "rows/s");
    put_loadgen(sheet, total, completed, late_all);
    return total;
}

/** One GPT set-up group of @p cycles cycles. */
models::GptMini
setup_gpt(const Args& a, const GptLoad& load, int cycles, SetupTimes& st)
{
    return measure_setup<models::GptMini>(
        artifact_path(a.workload), cycles, st, [&](models::GptMini& m) {
            GptStack stack(m, load.sessions);
            stack.engine
                .submit(models::GptMini::pack_decode_row(
                            std::vector<int>(
                                static_cast<std::size_t>(load.prompt_len),
                                1),
                            gpt_config().seq_len),
                        1)
                .get();
        });
}

/** Appends the samples of @p s taken before @p span, shifted by
 *  @p offset; a segment's drain falls outside its span. */
void
append(Series& dst, const Series& s, double offset, double span)
{
    for (std::size_t i = 0; i < s.t.size(); ++i)
        if (s.t[i] < span)
            dst.add(offset + s.t[i], s.v[i]);
}

Tally
run_gpt(const Args& a, const GptLoad& load, Sheet& sheet)
{
    SetupTimes st;
    GptCounters ids;
    if (a.trace) {
        obs::set_trace_enabled(true);
        models::GptMini gpt = setup_gpt(a, load, kTracedSetupCycles, st);
        obs::set_trace_enabled(false);
        put_setup(sheet, st, true);
        const GptInputs in = make_gpt_inputs(gpt, load, a.seed);
        GptStack stack(gpt, load.sessions);
        run_closed(stack, load, in, ids, kWarmupSeconds);
        const ExecTotals e0 = exec_totals(stack.engine);
        const std::uint64_t app0 = appended_tokens();
        obs::set_trace_enabled(true);
        ClosedPhase traced;
        {
            obs::Span window("loadgen.window");
            traced = run_closed(stack, load, in, ids, a.seconds / 2,
                                span_budget_spent);
        }
        obs::set_trace_enabled(false);
        const ExecTotals e1 = exec_totals(stack.engine);
        const std::uint64_t app1 = appended_tokens();
        // The same number of requests with tracing off: the baseline of
        // trace.overhead_pct.
        const ClosedPhase same = run_closed(
            stack, load, in, ids, a.seconds / 2,
            [n = traced.replies](std::uint64_t replies) {
                return replies >= n;
            });
        const ExecTotals e2 = exec_totals(stack.engine);
        // The span rings hold a few hundred decode steps, less than one
        // stream's lifetime; the session metrics need whole lifetimes,
        // so they come from a longer phase with tracing off.
        const serve::SessionCache::Stats s2 = stack.cache.stats();
        const ClosedPhase plain =
            run_closed(stack, load, in, ids, a.seconds / 2);
        const serve::SessionCache::Stats s3 = stack.cache.stats();
        put_trace_common(sheet, traced.queue_ms, app1 - app0,
                         static_cast<double>(traced.replies),
                         exec_ms_per_row(e0, e1), exec_ms_per_row(e1, e2));
        put_session(sheet, s2, s3, in.bytes_per_token);
        put_loadgen(sheet, traced.tally, traced.replies, traced.react_ms);
        Tally total = traced.tally;
        total += same.tally;
        total += plain.tally;
        return total;
    }

    // Untraced: kSegments equal segments, each served by the model of
    // the set-up group before it from a fresh stack, so no two models
    // are ever resident at once.  References come from the first model;
    // every load of the artifact must reproduce them bit for bit.  The
    // samples of all segments are laid end to end on one time axis.
    const double seg_s = a.seconds / kSegments;
    const double span = a.seconds;
    std::optional<GptInputs> in;
    Series ttft, itl;
    std::vector<double> react_ms;
    std::uint64_t replies = 0;
    Tally total;
    serve::SessionCache::Stats served;
    for (int k = 0; k < kSegments; ++k) {
        models::GptMini gpt = setup_gpt(a, load, kGptSetupCycles, st);
        if (!in)
            in = make_gpt_inputs(gpt, load, a.seed);
        GptStack stack(gpt, load.sessions);
        run_closed(stack, load, *in, ids, kWarmupSeconds);
        const serve::SessionCache::Stats s0 = stack.cache.stats();
        const ClosedPhase ph = run_closed(stack, load, *in, ids, seg_s);
        const serve::SessionCache::Stats s1 = stack.cache.stats();
        append(ttft, ph.ttft_ms, k * seg_s, seg_s);
        append(itl, ph.itl_ms, k * seg_s, seg_s);
        react_ms.insert(react_ms.end(), ph.react_ms.begin(),
                        ph.react_ms.end());
        replies += ph.replies;
        total += ph.tally;
        served.hits += s1.hits - s0.hits;
        served.misses += s1.misses - s0.misses;
        served.evictions += s1.evictions - s0.evictions;
        served.resident_bytes = s1.resident_bytes;
    }
    put_setup(sheet, st, false);
    const double tokens_per_s =
        static_cast<double>(ttft.t.size() + itl.t.size()) / span;
    const bool decode = load.gen_tokens > 1;
    // The latency users feel: the gap between tokens when decoding, the
    // time to the (only) token when prefilling.
    const Series& lat = decode ? itl : ttft;
    sheet.put("latency_p50_ms", windowed_pct(lat, span, 0.5), "ms");
    sheet.put("latency_p99_ms", windowed_pct(lat, span, 0.99), "ms");
    sheet.put("throughput_per_s",
              decode ? tokens_per_s : tokens_per_s * load.prompt_len, "1/s");
    sheet.put("tokens_per_s", tokens_per_s, "tok/s");
    sheet.put("ttft_p50_ms", windowed_pct(ttft, span, 0.5), "ms");
    sheet.put("ttft_p90_ms", windowed_pct(ttft, span, 0.9), "ms");
    sheet.put("ttft_samples", static_cast<double>(ttft.v.size()), "count");
    if (decode) {
        sheet.put("itl_p50_ms", windowed_pct(itl, span, 0.5), "ms");
        sheet.put("itl_p99_ms", windowed_pct(itl, span, 0.99), "ms");
        sheet.put("itl_samples", static_cast<double>(itl.v.size()), "count");
    }
    put_session(sheet, {}, served, in->bytes_per_token);
    put_loadgen(sheet, total, replies, react_ms);
    return total;
}

// ---------------------------------------------------------------------
// Export, output, and the command line.
// ---------------------------------------------------------------------

int
run_export(const Args& a)
{
    const std::string path = artifact_path(a.workload);
    if (a.workload == "mlp_open") {
        models::MlpClassifier mlp(kMlpIn, {256, 256}, kMlpOut,
                                  nn::QuantSpec::forward_only(core::mx9()),
                                  kMlpModelSeed);
        mlp.freeze();
        mlp.save_frozen(path);
    } else {
        models::GptMini gpt(gpt_config());
        gpt.freeze();
        gpt.save_frozen(path);
    }
    std::printf("mx_e2e: wrote %s\n", path.c_str());
    return 0;
}

std::string
json_string(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

std::string
json_number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

/** Workload parameters echoed into every output. */
std::vector<std::pair<std::string, std::string>>
workload_params(const Args& a)
{
    std::vector<std::pair<std::string, std::string>> p;
    const auto num = [&p](const char* k, double v) {
        p.emplace_back(k, json_number(v));
    };
    num("seed", static_cast<double>(a.seed));
    num("seconds", a.seconds);
    num("trace", a.trace ? 1 : 0);
    const bool mlp = a.workload == "mlp_open";
    num("segments", a.trace ? 1 : kSegments);
    num("setup_cycles_per_segment",
        a.trace ? kTracedSetupCycles
                : (mlp ? kMlpSetupCycles : kGptSetupCycles));
    num("warmup_s", kWarmupSeconds);
    if (mlp) {
        p.emplace_back("model", json_string("mlp 256-[256,256]-64 mx9"));
        p.emplace_back("steps_rps", "[2000,5000,10000,15000]");
        num("latency_step_rps", kMlpLatencyStep);
        num("traced_rps", kMlpTracedStep);
        num("slo_ms", kSloMs);
        num("input_pool", kMlpPoolRows);
        num("max_batch", static_cast<double>(
                             serve::EngineConfig::default_max_batch()));
    } else {
        const GptLoad& l = a.workload == "gpt_decode" ? kDecode : kPrefill;
        const models::TransformerConfig c = gpt_config();
        p.emplace_back("model", json_string(
                                    "gpt d256 h8 l4 T64 v256 mx9"));
        num("clients", l.clients);
        num("prompt_len", l.prompt_len);
        num("gen_tokens", l.gen_tokens);
        num("prompt_pool", l.prompt_pool);
        num("session_capacity", static_cast<double>(l.sessions));
        num("seq_len", c.seq_len);
    }
    return p;
}

void
write_output(const Args& a, const Sheet& sheet, const Tally& t)
{
    const std::string path = out_dir() + "/E2E_" + a.workload + ".json";
    std::ofstream os(path);
    os << "{\n  \"workload\": " << json_string(a.workload) << ",\n";
    os << "  \"fingerprint\": {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"simd\": " << json_string(simd_name())
       << ", \"compiler\": " << json_string(MX_E2E_COMPILER)
       << ", \"build_type\": " << json_string(MX_E2E_BUILD_TYPE)
       << ", \"git_sha\": " << json_string(a.git_sha) << "},\n";
    os << "  \"params\": {";
    bool first = true;
    for (const auto& [k, v] : workload_params(a)) {
        os << (first ? "" : ", ") << json_string(k) << ": " << v;
        first = false;
    }
    os << "},\n";
    const double attempted = static_cast<double>(std::max<std::uint64_t>(
        t.attempted, 1));
    os << "  \"attempted\": " << t.attempted << ",\n";
    os << "  \"errors\": " << t.errors << ",\n";
    os << "  \"mismatches\": " << t.mismatches << ",\n";
    os << "  \"error_rate\": "
       << json_number(static_cast<double>(t.errors + t.mismatches) /
                      attempted)
       << ",\n";
    os << "  \"metrics\": {";
    first = true;
    for (const Sheet::Entry& e : sheet.entries) {
        os << (first ? "\n" : ",\n") << "    " << json_string(e.name)
           << ": {\"value\": " << json_number(e.value)
           << ", \"unit\": " << json_string(e.unit) << "}";
        first = false;
    }
    os << "\n  }\n}\n";
    if (!os.good()) {
        std::fprintf(stderr, "mx_e2e: cannot write %s\n", path.c_str());
        std::exit(1);
    }
    std::printf("mx_e2e: wrote %s\n", path.c_str());
}

/** Refuse ambient MX_* knobs: the benchmark measures the defaults. */
bool
environment_clean()
{
    bool clean = true;
    for (char** e = environ; *e != nullptr; ++e) {
        const std::string var(*e);
        if (var.rfind("MX_", 0) == 0 &&
            var.rfind("MX_BENCH_OUT_DIR=", 0) != 0) {
            std::fprintf(stderr, "mx_e2e: refusing to run with %s set\n",
                         var.substr(0, var.find('=')).c_str());
            clean = false;
        }
    }
    return clean;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: mx_e2e --workload mlp_open|gpt_decode|gpt_prefill "
                 "[--export] [--seed N] [--seconds S] [--trace 0|1] "
                 "[--git-sha SHA]\n");
    std::exit(2);
}

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--export") {
            a.do_export = true;
            continue;
        }
        if (i + 1 >= argc)
            usage();
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--git-sha")
            a.git_sha = v;
        else
            usage();
    }
    if (a.workload != "mlp_open" && a.workload != "gpt_decode" &&
        a.workload != "gpt_prefill")
        usage();
    if (!(a.seconds > 0))
        usage();
    return a;
}

} // namespace

int
main(int argc, char** argv)
{
    if (!environment_clean())
        return 2;
    const Args a = parse_args(argc, argv);
    try {
        if (a.do_export)
            return run_export(a);
        Sheet sheet;
        const Tally t = a.workload == "mlp_open"
                            ? run_mlp(a, sheet)
                            : run_gpt(a,
                                      a.workload == "gpt_decode" ? kDecode
                                                                 : kPrefill,
                                      sheet);
        if (a.trace) {
            const std::string path =
                out_dir() + "/TRACE_" + a.workload + ".json";
            if (!obs::write_trace(path))
                return 1;
        } else {
            sheet.put("peak_rss_mb", peak_rss_mb(), "MB");
        }
        write_output(a, sheet, t);
        return t.errors + t.mismatches == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "mx_e2e: %s\n", e.what());
        return 1;
    }
}
