/**
 * @file
 * Freeze-and-serve latency/throughput bench (the deployment claim of
 * Section V / Table IV, engineered): the per-call-quantize baseline
 * re-quantizes every weight tensor on every request, while the frozen
 * path snapshots Q(W) once and the serve engine coalesces requests
 * into micro-batches.  Reports single-stream throughput for both modes
 * plus engine throughput, p50/p99 request latency and the coalesced
 * batch-size profile; and the decode-session comparison (warm prefix
 * reuse vs recomputing every visible position per token).  Into
 * BENCH_serve_latency.json.
 *
 *   $ ./bench/serve_latency
 */

#include <algorithm>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "artifact/reader.h"
#include "bench_report.h"
#include "models/mlp.h"
#include "models/serve_adapters.h"
#include "models/transformer.h"
#include "nn/quant.h"
#include "obs/obs.h"
#include "serve/engine.h"
#include "serve/session_cache.h"
#include "stats/rng.h"

using namespace mx;
using tensor::Tensor;

namespace {

double
now_sec()
{
    return static_cast<double>(bench::detail::now_ns()) * 1e-9;
}

/** Drive one engine over @p rows; returns wall seconds.  Latency
 *  percentiles come from the engine's own histogram-backed stats()
 *  afterwards (the obs::Histogram path replaced this bench's ad-hoc
 *  sort-and-index percentile math). */
double
run_engine(serve::InferenceEngine& engine,
           const std::vector<std::vector<float>>& rows)
{
    std::vector<std::future<serve::Reply>> futures;
    futures.reserve(rows.size());
    const double t0 = now_sec();
    for (const auto& r : rows)
        futures.push_back(engine.submit(r));
    for (auto& f : futures)
        bench::do_not_optimize(f.get());
    return now_sec() - t0;
}

/** Emit one latency distribution's p50/p99 as <prefix>_p50_ms /
 *  <prefix>_p99_ms (informational metrics; stage-level breakdown of
 *  where a request's time went). */
void
report_stage(bench::Report& report, const std::string& prefix,
             const serve::LatencySummary& s)
{
    report.metric(prefix + "_p50_ms", s.p50_ms, "ms");
    report.metric(prefix + "_p99_ms", s.p99_ms, "ms");
}

} // namespace

int
main()
{
    bench::Report report("serve_latency");
    const nn::QuantSpec spec = nn::QuantSpec::forward_only(core::mx9());
    bool ok = true;

    // ------------------------------------------------------------------
    // MLP workload: single-row requests (the DLRM/MLP-style serving
    // shape where weight quantization dominates the per-request cost).
    // ------------------------------------------------------------------
    bench::banner("MLP serving: per-call quantize vs frozen snapshot");
    const std::int64_t mlp_in = 256, mlp_out = 64;
    const std::size_t mlp_requests = bench::scaled(512, 96);
    models::MlpClassifier mlp(mlp_in, {256, 256}, mlp_out, spec, 71);

    stats::Rng rng(72);
    std::vector<std::vector<float>> mlp_rows(mlp_requests);
    for (auto& r : mlp_rows) {
        r.resize(static_cast<std::size_t>(mlp_in));
        for (float& v : r)
            v = static_cast<float>(rng.uniform(-2.0, 2.0));
    }

    auto mlp_single_stream = [&]() {
        const double t0 = now_sec();
        for (const auto& r : mlp_rows) {
            Tensor x({1, mlp_in});
            std::copy(r.begin(), r.end(), x.data());
            bench::do_not_optimize(mlp.logits(x, false));
        }
        return static_cast<double>(mlp_requests) / (now_sec() - t0);
    };

    // Frozen pairable layers run the packed GEMM on every kernel.
    const double mlp_fake = mlp_single_stream();
    mlp.freeze();
    const double mlp_frozen = mlp_single_stream();

    serve::EngineConfig mlp_cfg;
    mlp_cfg.rows_independent = true;
    serve::InferenceEngine mlp_engine(
        [&](const Tensor& batch) { return mlp.logits(batch, false); },
        mlp_in, mlp_cfg);
    const double mlp_engine_wall = run_engine(mlp_engine, mlp_rows);
    const serve::EngineStats mlp_stats = mlp_engine.stats();
    const double mlp_mean_batch = mlp_stats.mean_batch_rows();
    const double mlp_engine_rps =
        static_cast<double>(mlp_requests) / mlp_engine_wall;

    const double mlp_speedup = mlp_frozen / mlp_fake;
    std::printf("  fake-quant single-stream : %10.1f rows/s\n", mlp_fake);
    std::printf("  frozen single-stream     : %10.1f rows/s  (%.2fx)\n",
                mlp_frozen, mlp_speedup);
    std::printf("  frozen engine            : %10.1f rows/s  "
                "(p50 %.3f ms, p99 %.3f ms, mean batch %.1f)\n",
                mlp_engine_rps, mlp_stats.request_total.p50_ms,
                mlp_stats.request_total.p99_ms, mlp_mean_batch);
    std::printf("  stage breakdown          : queue p50 %.3f / p99 %.3f "
                "ms, assemble p50 %.4f ms, execute p50 %.3f / p99 %.3f "
                "ms\n",
                mlp_stats.queue_wait.p50_ms, mlp_stats.queue_wait.p99_ms,
                mlp_stats.batch_assemble.p50_ms,
                mlp_stats.batch_execute.p50_ms,
                mlp_stats.batch_execute.p99_ms);

    report.metric("serve_mlp_fakequant_items_per_sec", mlp_fake, "rows/s");
    report.metric("serve_mlp_frozen_items_per_sec", mlp_frozen, "rows/s");
    report.metric("serve_mlp_engine_items_per_sec", mlp_engine_rps,
                  "rows/s");
    report.metric("mlp_frozen_speedup", mlp_speedup, "x");
    report_stage(report, "mlp_engine", mlp_stats.request_total);
    report_stage(report, "mlp_engine_queue", mlp_stats.queue_wait);
    report_stage(report, "mlp_engine_assemble", mlp_stats.batch_assemble);
    report_stage(report, "mlp_engine_execute", mlp_stats.batch_execute);
    report.metric("mlp_engine_mean_batch_rows", mlp_mean_batch, "rows");

    const bool mlp_ok = mlp_frozen >= 2.0 * mlp_fake;
    report.flag("mlp_frozen_ge_2x_single_stream", mlp_ok);
    ok = ok && mlp_ok;

    // ------------------------------------------------------------------
    // Instrumentation overhead: with MX_TRACE unset a span is one
    // relaxed atomic load + branch and the always-on counters /
    // histograms are relaxed fetch_adds.  Measure each primitive's
    // disabled-path cost in a tight loop, charge a conservative
    // per-request op budget, and claim the implied serve-throughput
    // overhead stays under 2% — the contract that lets the
    // instrumentation stay compiled in everywhere.
    // ------------------------------------------------------------------
    bench::banner("mx_obs: disabled-instrumentation overhead");
    const bool was_tracing = obs::trace_enabled();
    obs::set_trace_enabled(false);
    obs::Histogram probe_hist;
    static obs::Counter& probe_counter =
        obs::counter("bench.obs_probe");
    const int obs_iters = 1 << 18;
    double span_ns = 0, count_ns = 0, hist_ns = 0;
    {
        const double t0 = now_sec();
        for (int i = 0; i < obs_iters; ++i) {
            obs::Span s("bench.noop");
            s.arg("i", i);
            bench::do_not_optimize(s); // keep the load+branch per iter
        }
        span_ns = (now_sec() - t0) * 1e9 / obs_iters;
    }
    {
        const double t0 = now_sec();
        for (int i = 0; i < obs_iters; ++i)
            probe_counter.add(1);
        count_ns = (now_sec() - t0) * 1e9 / obs_iters;
    }
    {
        const double t0 = now_sec();
        for (int i = 0; i < obs_iters; ++i)
            probe_hist.record(static_cast<std::uint64_t>(i));
        hist_ns = (now_sec() - t0) * 1e9 / obs_iters;
    }
    obs::set_trace_enabled(was_tracing);
    // Per-request op budget on the serve path, each primitive counted
    // at several times what a request actually crosses: the engine
    // opens 3 spans and records 8 histogram samples per BATCH (2
    // engine-owned + 2 registry per request, 2+2 per batch), and the
    // GEMM/kernel/attn counters tick a handful of times per batch —
    // 32 spans, 32 counter bumps, and 8 histogram records per single
    // request is a >= 10x cushion over all of it.
    const double spans_per_request = 32.0;
    const double counts_per_request = 32.0;
    const double hists_per_request = 8.0;
    const double request_ns = 1e9 / mlp_engine_rps;
    const double overhead_pct = 100.0 *
                                (spans_per_request * span_ns +
                                 counts_per_request * count_ns +
                                 hists_per_request * hist_ns) /
                                request_ns;
    std::printf("  disabled span            : %10.2f ns/op\n", span_ns);
    std::printf("  counter add              : %10.2f ns/op\n", count_ns);
    std::printf("  histogram record         : %10.2f ns/op\n", hist_ns);
    std::printf("  implied serve overhead   : %10.3f %% of a %.1f us "
                "request (%.0f/%.0f/%.0f span/counter/histogram "
                "budget)\n",
                overhead_pct, request_ns * 1e-3, spans_per_request,
                counts_per_request, hists_per_request);
    report.metric("obs_disabled_span_ns", span_ns, "ns");
    report.metric("obs_counter_add_ns", count_ns, "ns");
    report.metric("obs_histogram_record_ns", hist_ns, "ns");
    report.metric("obs_disabled_overhead_pct", overhead_pct, "%");
    const bool obs_ok = overhead_pct < 2.0;
    report.flag("obs_disabled_overhead_lt_2pct", obs_ok);
    ok = ok && obs_ok;

    // ------------------------------------------------------------------
    // Transformer workload: one decode window per request (Table IV
    // generative serving).  The forward is matmul-bound (seq_len rows
    // amortize each weight), so the frozen win is smaller than the
    // MLP's — the packed dequant-free matmul is the next lever.
    // ------------------------------------------------------------------
    bench::banner("GPT serving: per-call quantize vs frozen snapshot");
    models::TransformerConfig cfg;
    cfg.vocab = 64;
    cfg.d_model = 64;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.seq_len = 8;
    cfg.spec = spec;
    cfg.seed = 73;
    models::GptMini gpt(cfg);
    const std::size_t gpt_requests = bench::scaled(192, 48);

    std::vector<std::vector<float>> windows(gpt_requests);
    for (auto& w : windows) {
        w.resize(static_cast<std::size_t>(cfg.seq_len));
        for (float& t : w)
            t = static_cast<float>(rng.next_u64() %
                                   static_cast<std::uint64_t>(cfg.vocab));
    }

    auto window_batch = [&](const Tensor& in) {
        return gpt.window_logits(in);
    };

    auto gpt_single_stream = [&]() {
        const double t0 = now_sec();
        for (const auto& w : windows) {
            Tensor x({1, cfg.seq_len});
            std::copy(w.begin(), w.end(), x.data());
            bench::do_not_optimize(window_batch(x));
        }
        return static_cast<double>(gpt_requests) / (now_sec() - t0);
    };

    const double gpt_fake = gpt_single_stream();
    gpt.freeze();
    const double gpt_frozen = gpt_single_stream();

    serve::EngineConfig gpt_cfg;
    gpt_cfg.rows_independent = true;
    serve::InferenceEngine gpt_engine(window_batch, cfg.seq_len, gpt_cfg);
    const double gpt_engine_wall = run_engine(gpt_engine, windows);
    const serve::EngineStats gpt_stats = gpt_engine.stats();
    const double gpt_mean_batch = gpt_stats.mean_batch_rows();
    const double gpt_engine_rps =
        static_cast<double>(gpt_requests) / gpt_engine_wall;

    const double gpt_speedup = gpt_frozen / gpt_fake;
    std::printf("  fake-quant single-stream : %10.1f windows/s\n",
                gpt_fake);
    std::printf("  frozen single-stream     : %10.1f windows/s  (%.2fx)\n",
                gpt_frozen, gpt_speedup);
    std::printf("  frozen engine            : %10.1f windows/s  "
                "(p50 %.3f ms, p99 %.3f ms, mean batch %.1f)\n",
                gpt_engine_rps, gpt_stats.request_total.p50_ms,
                gpt_stats.request_total.p99_ms, gpt_mean_batch);
    std::printf("  stage breakdown          : queue p50 %.3f / p99 %.3f "
                "ms, assemble p50 %.4f ms, execute p50 %.3f / p99 %.3f "
                "ms\n",
                gpt_stats.queue_wait.p50_ms, gpt_stats.queue_wait.p99_ms,
                gpt_stats.batch_assemble.p50_ms,
                gpt_stats.batch_execute.p50_ms,
                gpt_stats.batch_execute.p99_ms);

    report.metric("serve_gpt_fakequant_items_per_sec", gpt_fake,
                  "windows/s");
    report.metric("serve_gpt_frozen_items_per_sec", gpt_frozen,
                  "windows/s");
    report.metric("serve_gpt_engine_items_per_sec", gpt_engine_rps,
                  "windows/s");
    report.metric("gpt_frozen_speedup", gpt_speedup, "x");
    report_stage(report, "gpt_engine", gpt_stats.request_total);
    report_stage(report, "gpt_engine_queue", gpt_stats.queue_wait);
    report_stage(report, "gpt_engine_assemble", gpt_stats.batch_assemble);
    report_stage(report, "gpt_engine_execute", gpt_stats.batch_execute);
    report.metric("gpt_engine_mean_batch_rows", gpt_mean_batch, "rows");

    const bool gpt_ok = gpt_frozen >= 1.2 * gpt_fake;
    report.flag("gpt_frozen_ge_1_2x_single_stream", gpt_ok);
    ok = ok && gpt_ok;

    // ------------------------------------------------------------------
    // Decode sessions: greedy decode of growing contexts through
    // decode_logits, warm (per-layer K/V prefix reuse) vs cold
    // (recompute every visible position per token).  Both run
    // causal-visibility quantization, so the token streams must be
    // identical — the speedup is pure work elimination.
    // ------------------------------------------------------------------
    bench::banner("GPT decode: warm session prefix vs full recompute");
    models::TransformerConfig dcfg;
    dcfg.vocab = 64;
    dcfg.d_model = 64;
    dcfg.heads = 4;
    dcfg.layers = 2;
    dcfg.seq_len = 16;
    dcfg.spec = spec;
    dcfg.seed = 79;
    models::GptMini dgpt(dcfg);
    dgpt.freeze();
    const int dstreams = static_cast<int>(bench::scaled(8, 4));
    const int prompt_len = 2;
    std::vector<std::vector<int>> prompts(
        static_cast<std::size_t>(dstreams));
    for (int s = 0; s < dstreams; ++s) {
        auto& p = prompts[static_cast<std::size_t>(s)];
        p.resize(prompt_len);
        for (int& t : p)
            t = static_cast<int>(rng.next_u64() %
                                 static_cast<std::uint64_t>(dcfg.vocab));
    }
    auto argmax_tok = [&](const float* logits) {
        int best = 0;
        for (int v = 1; v < dcfg.vocab; ++v)
            if (logits[v] > logits[best])
                best = v;
        return best;
    };

    // Direct model-level decode (no engine) isolates the algorithmic
    // win per token.
    auto decode_direct = [&](bool warm) {
        std::vector<models::GptDecodeSession> sessions(
            static_cast<std::size_t>(dstreams));
        auto ctx = prompts;
        std::int64_t tokens = 0;
        const double t0 = now_sec();
        for (int step = prompt_len; step < dcfg.seq_len; ++step)
            for (int s = 0; s < dstreams; ++s) {
                auto& c = ctx[static_cast<std::size_t>(s)];
                Tensor logits = dgpt.decode_logits(
                    c, warm ? &sessions[static_cast<std::size_t>(s)]
                            : nullptr);
                c.push_back(argmax_tok(logits.data()));
                ++tokens;
            }
        const double tps = static_cast<double>(tokens) /
                           (now_sec() - t0);
        return std::make_pair(tps, ctx);
    };
    auto [cold_tps, cold_ctx] = decode_direct(false);
    auto [warm_tps, warm_ctx] = decode_direct(true);

    // The full serving stack: the engine + session-aware batch
    // function + LRU session cache.
    double engine_warm_tps = 0;
    {
        serve::SessionCache sessions(
            static_cast<std::size_t>(2 * dstreams));
        serve::EngineConfig ec;
        ec.queue_capacity = 64;
        serve::InferenceEngine engine(
            models::gpt_decode_batch_fn(dgpt, sessions), dcfg.seq_len,
            ec);
        auto ctx = prompts;
        std::int64_t tokens = 0;
        const double t0 = now_sec();
        for (int step = prompt_len; step < dcfg.seq_len; ++step) {
            std::vector<std::future<serve::Reply>> futures;
            futures.reserve(static_cast<std::size_t>(dstreams));
            for (int s = 0; s < dstreams; ++s)
                futures.push_back(engine.submit(
                    models::GptMini::pack_decode_row(
                        ctx[static_cast<std::size_t>(s)], dcfg.seq_len),
                    static_cast<std::uint64_t>(s + 1)));
            for (int s = 0; s < dstreams; ++s) {
                serve::Reply r = futures[static_cast<std::size_t>(s)]
                                     .get();
                ctx[static_cast<std::size_t>(s)].push_back(
                    argmax_tok(r.output.data()));
                ++tokens;
            }
        }
        engine_warm_tps = static_cast<double>(tokens) /
                          (now_sec() - t0);

        const serve::EngineStats dstats = engine.stats();
        report_stage(report, "gpt_session_engine", dstats.request_total);
        report_stage(report, "gpt_session_engine_queue",
                     dstats.queue_wait);
        report_stage(report, "gpt_session_engine_execute",
                     dstats.batch_execute);

        // Session-memory accounting: the LRU now tracks the bytes each
        // resident GptDecodeSession pins (native MX streams, not FP32
        // rows), the capacity-planning number for MX_SERVE_SESSIONS.
        const serve::SessionCache::Stats sst = sessions.stats();
        std::printf("  session cache            : %zu resident, "
                    "%llu bytes resident, %llu hits / %llu misses, "
                    "%llu evictions (%llu bytes)\n",
                    sessions.size(),
                    static_cast<unsigned long long>(sst.resident_bytes),
                    static_cast<unsigned long long>(sst.hits),
                    static_cast<unsigned long long>(sst.misses),
                    static_cast<unsigned long long>(sst.evictions),
                    static_cast<unsigned long long>(sst.evicted_bytes));
        report.metric("gpt_session_cache_resident_bytes",
                      static_cast<double>(sst.resident_bytes), "bytes");
        report.metric("gpt_session_cache_hits",
                      static_cast<double>(sst.hits), "ops");
        report.metric("gpt_session_cache_misses",
                      static_cast<double>(sst.misses), "ops");
        report.metric("gpt_session_cache_evicted_bytes",
                      static_cast<double>(sst.evicted_bytes), "bytes");
    }

    const double reuse_speedup = warm_tps / cold_tps;
    std::printf("  cold (recompute window)  : %10.1f tokens/s\n",
                cold_tps);
    std::printf("  warm (prefix reuse)      : %10.1f tokens/s  (%.2fx)\n",
                warm_tps, reuse_speedup);
    std::printf("  warm via session engine  : %10.1f tokens/s\n",
                engine_warm_tps);
    std::printf("  warm streams match cold  : %s\n",
                warm_ctx == cold_ctx ? "yes" : "NO (bug!)");

    report.metric("serve_gpt_decode_cold_items_per_sec", cold_tps,
                  "tokens/s");
    report.metric("serve_gpt_decode_warm_items_per_sec", warm_tps,
                  "tokens/s");
    report.metric("serve_gpt_session_engine_items_per_sec",
                  engine_warm_tps, "tokens/s");
    report.metric("gpt_prefix_reuse_speedup", reuse_speedup, "x");

    const bool decode_match = warm_ctx == cold_ctx;
    report.flag("gpt_decode_warm_matches_cold", decode_match);
    ok = ok && decode_match;
    const bool reuse_ok = warm_tps >= 1.15 * cold_tps;
    report.flag("gpt_warm_prefix_beats_recompute", reuse_ok);
    ok = ok && reuse_ok;

    // ------------------------------------------------------------------
    // Native MX K/V cache footprint: one stream decoded to a full
    // window, then the bytes its session actually pins (packed MX K
    // rows + transposed-V slabs) against the FP32 rows the legacy
    // cache stored for the same prefix.  MX9 keys+values cost 9 bits
    // per element plus per-block headers (~2.25 B/elem for K+V
    // together) vs 8 B/elem in FP32 — the >= 3x claim below is the
    // paper's storage story applied to serving state, and it is also
    // the bytes a warm decode step READS per token of prefix (the
    // packed kernels consume the streams directly; nothing is
    // dequantized up front).
    // ------------------------------------------------------------------
    bench::banner("GPT decode: native MX K/V cache footprint");
    models::GptDecodeSession fses;
    bench::do_not_optimize(dgpt.decode_logits(warm_ctx[0], &fses));
    const double ftokens = static_cast<double>(fses.tokens.size());
    const double kv_packed_bytes =
        static_cast<double>(models::decode_session_bytes(fses));
    // What the legacy cache held for the same prefix: the token ids
    // plus per layer the [prefix, d_model] FP32 K and V tensors.
    const double kv_fp32_bytes =
        ftokens * static_cast<double>(sizeof(int)) +
        static_cast<double>(dcfg.layers) * 2.0 * ftokens *
            static_cast<double>(dcfg.d_model) *
            static_cast<double>(sizeof(float));
    const double kv_ratio = kv_fp32_bytes / kv_packed_bytes;
    std::printf("  FP32 rows (legacy cache) : %10.1f bytes/token\n",
                kv_fp32_bytes / ftokens);
    std::printf("  native MX streams        : %10.1f bytes/token  "
                "(%.2fx smaller)\n",
                kv_packed_bytes / ftokens, kv_ratio);
    report.metric("gpt_kv_fp32_bytes_per_token", kv_fp32_bytes / ftokens,
                  "bytes");
    report.metric("gpt_kv_packed_bytes_per_token",
                  kv_packed_bytes / ftokens, "bytes");
    report.metric("gpt_kv_cache_compression", kv_ratio, "x");
    const bool kv_ok = kv_ratio >= 3.0;
    report.flag("gpt_native_kv_ge_3x_smaller_than_fp32", kv_ok);
    ok = ok && kv_ok;

    // ------------------------------------------------------------------
    // Cold start: process -> first token.  The artifact path mmaps the
    // frozen bit streams written at export time (src/artifact/) and
    // never quantizes (on a SIMD host it decodes no FP32 grid for the
    // Linear layers either); the rebuild path re-initializes the model and
    // pays quantize+pack for every weight before it can serve.  Same
    // config + seed, so both must produce the identical first token.
    // ------------------------------------------------------------------
    bench::banner("GPT cold start: artifact mmap-load vs rebuild+refreeze");
    const std::string apath = "serve_latency_coldstart.mxfrozen";
    dgpt.save_frozen(apath);
    const std::vector<int>& cold_prompt = prompts[0];

    auto best_of = [&](auto&& fn) {
        double best = 0.0;
        int first_tok = -1;
        for (int rep = 0; rep < 3; ++rep) {
            const double t0 = now_sec();
            const int tok = fn();
            const double ms = (now_sec() - t0) * 1e3;
            if (rep == 0 || ms < best)
                best = ms;
            first_tok = tok;
        }
        return std::make_pair(best, first_tok);
    };

    auto [artifact_ms, artifact_tok] = best_of([&]() {
        artifact::ArtifactReader reader(apath);
        models::GptMini m = models::GptMini::load_frozen(reader);
        return argmax_tok(m.decode_logits(cold_prompt).data());
    });
    auto [rebuild_ms, rebuild_tok] = best_of([&]() {
        models::GptMini m(dcfg);
        m.freeze();
        return argmax_tok(m.decode_logits(cold_prompt).data());
    });
    std::remove(apath.c_str());

    const double coldstart_speedup = rebuild_ms / artifact_ms;
    std::printf("  artifact mmap-load       : %10.3f ms to first token  "
                "(%.2fx vs rebuild)\n",
                artifact_ms, coldstart_speedup);
    std::printf("  rebuild + refreeze       : %10.3f ms to first token\n",
                rebuild_ms);

    report.metric("gpt_coldstart_artifact_ms", artifact_ms, "ms");
    report.metric("gpt_coldstart_rebuild_ms", rebuild_ms, "ms");
    report.metric("gpt_coldstart_speedup", coldstart_speedup, "x");

    // Determinism across the two cold-start routes is part of the
    // artifact contract; the timing itself is informational.
    const bool coldstart_match = artifact_tok == rebuild_tok;
    report.flag("gpt_coldstart_first_token_matches_rebuild",
                coldstart_match);
    ok = ok && coldstart_match;

    // The engine's micro-batching must not give back the frozen win to
    // queueing overhead (loose floor: throughput is noisy).
    const bool engine_ok = mlp_engine_rps >= 0.5 * mlp_frozen &&
                           gpt_engine_rps >= 0.5 * gpt_frozen;
    report.flag("engine_keeps_frozen_throughput", engine_ok);
    ok = ok && engine_ok;

    std::printf("\nfreeze once, serve forever: the fake-quant tax is "
                "gone from the hot path.\n");
    return report.finish(ok);
}
