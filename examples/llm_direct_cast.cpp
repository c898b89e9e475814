/**
 * @file
 * Direct-cast LLM serving example: pretrain a small causal LM in FP32,
 * freeze it under progressively narrower MX formats — weights quantized
 * **once** via nn/frozen.h, exactly the paper's Table IV deployment
 * story — and serve batched greedy decoding through the mx_serve
 * InferenceEngine.  On hosts with AVX2 the frozen weight matmuls run in
 * the packed domain (mx_gemm, the Figure 6 pipeline): integer mantissa
 * dot products against the MX bit stream, no dequantized FP32 weights.
 * The values-path frozen forward stays bit-identical to fake
 * quantization, so the quality table matches the per-call-quantize path
 * while decoding stops paying the weight-quantize tax every step.
 *
 * The decode-session epilogue serves *growing* contexts through a
 * batched engine with a per-stream prefix cache: each step reuses
 * the per-layer K/V rows of the unchanged context prefix and computes
 * only the new token's column (serve/session_cache.h) — bit-identical
 * to recomputing every visible position, several times faster.
 *
 *   $ ./examples/llm_direct_cast
 *
 * Knobs: MX_SERVE_BATCH (max coalesced rows), MX_SERVE_QUEUE (bounded
 * queue capacity), MX_SERVE_SESSIONS (decode prefix-cache capacity;
 * 0 disables).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <vector>

#include "data/synthetic.h"
#include "gemm/packed_gemm.h"
#include "models/serve_adapters.h"
#include "models/transformer.h"
#include "nn/optimizer.h"
#include "serve/engine.h"
#include "serve/session_cache.h"

using namespace mx;
using namespace mx::models;
using tensor::Tensor;

namespace {

double
now_sec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main()
{
    data::MarkovText corpus(16, 41);
    TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 48;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.seq_len = 12;
    cfg.seed = 51;
    GptMini model(cfg);
    std::printf("pretraining a %lld-parameter causal LM in FP32...\n",
                static_cast<long long>(model.param_count()));

    nn::Adam opt(model.params(), 4e-3);
    stats::Rng rng(61);
    for (int step = 0; step < 400; ++step) {
        auto b = corpus.windows(24, cfg.seq_len, rng);
        opt.zero_grad();
        model.train_loss(b);
        opt.step();
    }

    // --- Quality under direct cast: freeze once per format.  The
    // frozen forward is bit-identical to fake quantization, so this is
    // the same Table IV story with the weights quantized exactly once.
    auto eval = corpus.windows(256, cfg.seq_len, rng);
    std::printf("\n%-24s %10s\n", "serving format (w, a)", "LM loss");
    std::printf("%-24s %10.4f\n", "FP32", model.eval_loss(eval));
    for (const auto& fmt : {core::mx9(), core::mx6(), core::mx4()}) {
        model.freeze(nn::QuantSpec::forward_only(fmt));
        std::printf("(%s, %s)%*s %10.4f\n", fmt.name.c_str(),
                    fmt.name.c_str(),
                    static_cast<int>(14 - 2 * fmt.name.size()), "",
                    model.eval_loss(eval));
    }

    // --- Serving quickstart: greedy decoding of several streams, each
    // step one window request, batched by the engine.
    const int streams = 6;
    const int new_tokens = 32;
    std::vector<std::vector<int>> ctx(static_cast<std::size_t>(streams));
    {
        stats::Rng prompt_rng(67);
        auto prompts = corpus.windows(streams, cfg.seq_len, prompt_rng);
        for (int s = 0; s < streams; ++s)
            ctx[static_cast<std::size_t>(s)] = prompts.row(s);
    }
    auto window_of = [&](const std::vector<int>& c) {
        std::vector<float> w(static_cast<std::size_t>(cfg.seq_len));
        const std::size_t off = c.size() - static_cast<std::size_t>(
                                               cfg.seq_len);
        for (int t = 0; t < cfg.seq_len; ++t)
            w[static_cast<std::size_t>(t)] = static_cast<float>(
                c[off + static_cast<std::size_t>(t)]);
        return w;
    };
    auto argmax = [&](const float* logits) {
        int best = 0;
        for (int v = 1; v < cfg.vocab; ++v)
            if (logits[v] > logits[best])
                best = v;
        return best;
    };
    auto last_token_logits = [&](const Tensor& in) {
        return model.window_logits(in);
    };

    // Baseline: the old example's serving mode — fake quantization
    // re-quantizes every weight tensor on every decode step.
    model.unfreeze();
    model.set_spec(nn::QuantSpec::forward_only(core::mx9()));
    auto baseline_ctx = ctx;
    const double t_base = now_sec();
    for (int step = 0; step < new_tokens; ++step)
        for (auto& c : baseline_ctx) {
            Tensor x({1, cfg.seq_len});
            auto w = window_of(c);
            std::copy(w.begin(), w.end(), x.data());
            Tensor logits = last_token_logits(x);
            c.push_back(argmax(logits.data()));
        }
    const double base_tps = static_cast<double>(streams * new_tokens) /
                            (now_sec() - t_base);

    // Frozen engine: quantize the weights once, then serve batched
    // decode requests against the snapshot.
    model.freeze(nn::QuantSpec::forward_only(core::mx9()));
    double frozen_tps = 0;
    double mean_batch = 0, p50_ms = 0;
    auto frozen_ctx = ctx;
    {
        serve::EngineConfig ec;
        ec.rows_independent = true; // eval forwards are mutation-free
        serve::InferenceEngine engine(last_token_logits, cfg.seq_len, ec);
        std::vector<double> lat;
        const double t0 = now_sec();
        for (int step = 0; step < new_tokens; ++step) {
            std::vector<std::future<serve::Reply>> futures;
            futures.reserve(frozen_ctx.size());
            for (auto& c : frozen_ctx)
                futures.push_back(engine.submit(window_of(c)));
            for (int s = 0; s < streams; ++s) {
                serve::Reply r = futures[static_cast<std::size_t>(s)].get();
                frozen_ctx[static_cast<std::size_t>(s)].push_back(
                    argmax(r.output.data()));
                lat.push_back(r.latency_ms);
            }
        }
        frozen_tps = static_cast<double>(streams * new_tokens) /
                     (now_sec() - t0);
        mean_batch = engine.stats().mean_batch_rows();
        std::sort(lat.begin(), lat.end());
        p50_ms = lat[lat.size() / 2];
    }

    std::printf("\ndecoding %d streams x %d tokens under (MX9, MX9):\n",
                streams, new_tokens);
    std::printf("  per-call quantize  : %8.1f tokens/s\n", base_tps);
    std::printf("  frozen + engine    : %8.1f tokens/s  (%.2fx, mean "
                "batch %.1f, p50 %.3f ms, %s gemm kernel)\n",
                frozen_tps, frozen_tps / base_tps, mean_batch, p50_ms,
                gemm::active_gemm_kernel().name());

    // Greedy decode is deterministic.  On the scalar kernel frozen
    // layers serve on their grid values, bit-identical to fake
    // quantization; the packed GEMM a SIMD kernel runs agrees to
    // FP32-accumulation tolerance on logits, which for greedy decode
    // virtually always means the same tokens.
    std::printf("  frozen decode matches fake-quant baseline: %s\n",
                frozen_ctx == baseline_ctx
                    ? "yes"
                    : "diverged (within FP32-accumulation tolerance)");

    std::printf("\nsample continuation (stream 0): ");
    const auto& c0 = frozen_ctx[0];
    for (std::size_t i = c0.size() - 12; i < c0.size(); ++i)
        std::printf("%d ", c0[i]);

    // --- Decode sessions: grow fresh contexts from short prompts, one
    // request per new token, served by the batched engine whose batch
    // function reuses each stream's cached K/V prefix.  Disabling the
    // session cache (MX_SERVE_SESSIONS=0) recomputes every visible
    // position instead — same bits, more work; we run both to show it.
    const int session_streams = 6;
    std::vector<std::vector<int>> prompts(
        static_cast<std::size_t>(session_streams));
    {
        stats::Rng prompt_rng(71);
        for (auto& p : prompts) {
            p.resize(3);
            for (int& t : p)
                t = static_cast<int>(prompt_rng.next_u64() %
                                     static_cast<std::uint64_t>(
                                         cfg.vocab));
        }
    }
    auto decode_streams = [&](bool warm) {
        serve::SessionCache sessions(warm ? 16 : 0);
        serve::InferenceEngine engine(
            models::gpt_decode_batch_fn(model, sessions), cfg.seq_len);
        auto ctx = prompts;
        int tokens = 0;
        const double t0 = now_sec();
        for (int step = 3; step < cfg.seq_len; ++step) {
            std::vector<std::future<serve::Reply>> futures;
            for (int s = 0; s < session_streams; ++s)
                futures.push_back(engine.submit(
                    GptMini::pack_decode_row(
                        ctx[static_cast<std::size_t>(s)], cfg.seq_len),
                    static_cast<std::uint64_t>(s + 1)));
            for (int s = 0; s < session_streams; ++s) {
                serve::Reply r = futures[static_cast<std::size_t>(s)]
                                     .get();
                ctx[static_cast<std::size_t>(s)].push_back(
                    argmax(r.output.data()));
                ++tokens;
            }
        }
        const double tps = tokens / (now_sec() - t0);
        return std::make_pair(tps, ctx);
    };
    auto [cold_tps, cold_streams] = decode_streams(false);
    auto [warm_tps, warm_streams] = decode_streams(true);
    std::printf("\n\ndecode sessions (%d streams, growing contexts):\n",
                session_streams);
    std::printf("  cache off (recompute)  : %8.1f tokens/s\n", cold_tps);
    std::printf("  warm prefix reuse      : %8.1f tokens/s  (%.2fx)\n",
                warm_tps, warm_tps / cold_tps);
    std::printf("  streams bit-identical  : %s\n",
                warm_streams == cold_streams ? "yes" : "NO (bug!)");

    std::printf("\nno fine-tuning, no outlier heuristics — just a "
                "cast, frozen once.\n");
    return warm_streams == cold_streams ? 0 : 1;
}
