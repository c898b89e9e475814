#pragma once

/**
 * @file
 * Glue between the model miniatures and mx_serve: the decode-serving
 * adapter that gives serve::InferenceEngine requests a per-stream
 * prefix cache.
 *
 * Header-only on purpose: mx_models stays link-independent of
 * mx_serve; binaries that serve (examples, benches, tests) link both.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "models/transformer.h"
#include "serve/engine.h"
#include "serve/session_cache.h"

namespace mx {
namespace models {

/**
 * Builds the session-aware batch function for GPT decode serving: each
 * request row is a pack_decode_row() context, each reply row the
 * stream's next-token logits.  One call runs the whole engine batch as
 * one GptMini::decode_step, so the batch's weight GEMMs run once at
 * M = the batch's new rows instead of once per stream.
 *
 * Per batch, in order:
 *  1. Every row is unpacked and validated (GptMini::unpack_decode_row)
 *     before any session is touched: one malformed row fails the whole
 *     batch with ArgumentError and leaves every cached session as it
 *     was.
 *  2. Every row's GptDecodeSession is checked out of @p cache
 *     (checkout semantics — see serve/session_cache.h), so the
 *     function is safe on any worker count.  Rows tagged session 0,
 *     a disabled cache, or a cache miss take the bit-identical
 *     full-recompute path.
 *  3. One decode_step; then every session is put back.  If the step
 *     throws, every checked-out session is dropped, never put back
 *     half-advanced; the streams' next requests miss and recompute.
 *
 * Two rows of one batch with the same session id: the first row's take
 * checks the session out, so the second misses and recomputes from
 * scratch (bit-identical, just slower); both are put back in row order
 * and the last put wins.
 *
 * @p model and @p cache must outlive the engine.  The model's eval
 * forward is mutation-free, so one model instance serves every
 * engine worker.
 */
inline serve::InferenceEngine::SessionBatchFn
gpt_decode_batch_fn(GptMini& model, serve::SessionCache& cache)
{
    return [&model, &cache](const tensor::Tensor& in,
                            const std::vector<std::uint64_t>& sessions) {
        const std::int64_t seq_len = model.config().seq_len;
        const std::size_t rows = static_cast<std::size_t>(in.dim(0));
        std::vector<std::vector<int>> contexts(rows);
        for (std::size_t r = 0; r < rows; ++r)
            contexts[r] = GptMini::unpack_decode_row(
                in.data() + static_cast<std::int64_t>(r) * seq_len,
                seq_len, model.config().vocab);

        std::vector<std::shared_ptr<GptDecodeSession>> states(rows);
        std::vector<GptDecodeSession*> ptrs(rows, nullptr);
        for (std::size_t r = 0; r < rows; ++r) {
            if (sessions[r] == 0 || !cache.enabled())
                continue;
            states[r] = cache.take<GptDecodeSession>(sessions[r]);
            if (states[r] == nullptr)
                states[r] = std::make_shared<GptDecodeSession>();
            ptrs[r] = states[r].get();
        }
        // A throw unwinds `states`: the checked-out sessions are gone.
        tensor::Tensor out = model.decode_step(contexts, ptrs);
        for (std::size_t r = 0; r < rows; ++r) {
            if (states[r] == nullptr)
                continue;
            const std::size_t bytes = decode_session_bytes(*states[r]);
            cache.put(sessions[r], std::move(states[r]), bytes);
        }
        return out;
    };
}

} // namespace models
} // namespace mx
