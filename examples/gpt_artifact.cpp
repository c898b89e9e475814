/**
 * @file
 * Export/serve CLI for MXFROZEN artifacts: the freeze-once,
 * mmap-serve-anywhere workflow as two separate processes.
 *
 *   $ ./examples/gpt_artifact export model.mxfrozen
 *       Pretrains llm_direct_cast's small causal LM in FP32, freezes
 *       it under MX6 (direct cast — weights quantized ONCE), writes
 *       the artifact, and saves the frozen model's greedy decode to
 *       model.mxfrozen.tokens as the cross-process reference.
 *
 *   $ ./examples/gpt_artifact serve model.mxfrozen
 *       A *different process*: mmaps the artifact read-only, loads
 *       two models and checks that they share the single mapping,
 *       serves the same greedy decode through the batched
 *       InferenceEngine, and verifies it reproduces the export-side
 *       tokens bit-for-bit (exit 1 on any divergence).
 *
 * Together the two invocations are the artifact contract end to end:
 * quantize+pack on one machine, serve the exact same bits on another,
 * with cold start skipping the entire quantize/pack step.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "artifact/reader.h"
#include "data/synthetic.h"
#include "models/transformer.h"
#include "nn/frozen.h"
#include "nn/layer.h"
#include "nn/optimizer.h"
#include "serve/engine.h"

using namespace mx;
using namespace mx::models;
using tensor::Tensor;

namespace {

TransformerConfig
demo_config()
{
    TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 48;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.seq_len = 12;
    cfg.seed = 51;
    return cfg;
}

/** Greedy decode from a short prompt, via @p next (growing token
 *  context -> that context's [vocab] next-token logits). */
template <typename NextFn>
std::vector<int>
greedy_decode(const TransformerConfig& cfg, NextFn&& next)
{
    std::vector<int> tokens = {1, 2, 3};
    while (tokens.size() < static_cast<std::size_t>(cfg.seq_len)) {
        const std::vector<float> logits = next(tokens);
        int best = 0;
        for (int v = 1; v < cfg.vocab; ++v)
            if (logits[static_cast<std::size_t>(v)] >
                logits[static_cast<std::size_t>(best)])
                best = v;
        tokens.push_back(best);
    }
    return tokens;
}

int
run_export(const std::string& path)
{
    const TransformerConfig cfg = demo_config();
    GptMini model(cfg);
    std::printf("pretraining a %lld-parameter causal LM in FP32...\n",
                static_cast<long long>(model.param_count()));
    data::MarkovText corpus(16, 41);
    nn::Adam opt(model.params(), 4e-3);
    stats::Rng rng(61);
    for (int step = 0; step < 150; ++step) {
        auto b = corpus.windows(16, cfg.seq_len, rng);
        opt.zero_grad();
        model.train_loss(b);
        opt.step();
    }

    model.freeze(nn::QuantSpec::forward_only(core::mx6()));
    model.save_frozen(path);
    std::printf("froze under MX6 and wrote %s\n", path.c_str());

    const std::vector<int> tokens =
        greedy_decode(cfg, [&](const std::vector<int>& context) {
            Tensor logits = model.decode_logits(context);
            return std::vector<float>(logits.data(),
                                      logits.data() + cfg.vocab);
        });

    std::ofstream ref(path + ".tokens", std::ios::trunc);
    for (std::size_t i = 0; i < tokens.size(); ++i)
        ref << (i ? " " : "") << tokens[i];
    ref << "\n";
    if (!ref.good()) {
        std::fprintf(stderr, "cannot write %s.tokens\n", path.c_str());
        return 1;
    }
    std::printf("reference decode:");
    for (int t : tokens)
        std::printf(" %d", t);
    std::printf("  -> %s.tokens\n", path.c_str());
    return 0;
}

int
run_serve(const std::string& path)
{
    artifact::ArtifactReader reader(path);
    std::printf("%s: %zu entries, %zu bytes, %s\n", path.c_str(),
                reader.entry_count(), reader.file_size(),
                reader.mmapped() ? "mmapped read-only"
                                 : "read into memory");

    // Two models from the ONE reader: every loaded FrozenTensor views
    // the same mapping, so another model costs its eval scratch, not a
    // copy of the weights (or cold-start quantize work — there is
    // none).  Check that slot for slot; the engine then serves the
    // first, and its workers share it.
    GptMini model = GptMini::load_frozen(reader);
    GptMini twin = GptMini::load_frozen(reader);
    std::vector<nn::FrozenStateRef> mine, theirs;
    model.collect_state("", mine);
    twin.collect_state("", theirs);
    std::size_t shared = 0;
    for (std::size_t i = 0; i < mine.size(); ++i) {
        const nn::FrozenTensor* f = mine[i].frozen;
        if (f == nullptr || !f->valid() || !f->quantized())
            continue;
        if (i >= theirs.size() || theirs[i].frozen == nullptr ||
            !f->shares_payload_with(*theirs[i].frozen)) {
            std::printf("MISMATCH: %s is not shared between the two "
                        "loaded models\n",
                        mine[i].name.c_str());
            return 1;
        }
        ++shared;
    }
    const TransformerConfig cfg = model.config();
    std::printf("loaded 2 models sharing %zu weight payloads of the "
                "%zu-byte artifact\n",
                shared, reader.file_size());

    // Sessionless decode rows: unpack each request's context and
    // compute the batch's next-token logits from scratch in one fused
    // step.
    serve::InferenceEngine engine(
        [&model, &cfg](const Tensor& rows) {
            std::vector<std::vector<int>> contexts;
            for (std::int64_t i = 0; i < rows.dim(0); ++i)
                contexts.push_back(GptMini::unpack_decode_row(
                    rows.data() + i * cfg.seq_len, cfg.seq_len,
                    cfg.vocab));
            return model.decode_step(
                contexts, std::vector<GptDecodeSession*>(
                              contexts.size(), nullptr));
        },
        cfg.seq_len);

    const std::vector<int> tokens =
        greedy_decode(cfg, [&](const std::vector<int>& context) {
            return engine
                .submit(GptMini::pack_decode_row(context, cfg.seq_len))
                .get()
                .output;
        });

    std::ifstream ref(path + ".tokens");
    std::vector<int> expect;
    for (int t; ref >> t;)
        expect.push_back(t);
    std::printf("served decode:   ");
    for (int t : tokens)
        std::printf(" %d", t);
    std::printf("\nexport reference:");
    for (int t : expect)
        std::printf(" %d", t);
    std::printf("\n");
    if (tokens != expect) {
        std::printf("MISMATCH: served tokens diverge from the "
                    "export-side decode\n");
        return 1;
    }
    std::printf("MATCH: cross-process serve is bit-identical\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc == 3 && std::strcmp(argv[1], "export") == 0)
        return run_export(argv[2]);
    if (argc == 3 && std::strcmp(argv[1], "serve") == 0)
        return run_serve(argv[2]);
    std::fprintf(stderr,
                 "usage: %s export <artifact> | serve <artifact>\n",
                 argv[0]);
    return 2;
}
