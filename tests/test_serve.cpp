/**
 * @file
 * InferenceEngine tests: replies match the direct forward bit-for-bit,
 * the batcher's coalescing choices cannot change any output (the serve
 * determinism contract), the bounded queue applies back-pressure, and
 * batch-function errors propagate through the request futures.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/kernels/dispatch.h"
#include "core/thread_pool.h"
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

/** A frozen MX9 MLP and its engine batch function. */
struct FrozenMlp
{
    models::MlpClassifier model;

    FrozenMlp()
        : model(16, {24}, 4, nn::QuantSpec::forward_only(core::mx9()), 91)
    {
        model.freeze();
    }

    serve::InferenceEngine::BatchFn
    fn()
    {
        return [this](const Tensor& batch) {
            return model.logits(batch, /*train=*/false);
        };
    }
};

std::vector<std::vector<float>>
random_rows(std::size_t n, std::int64_t dim, std::uint64_t seed)
{
    stats::Rng rng(seed);
    std::vector<std::vector<float>> rows(n);
    for (auto& r : rows) {
        r.resize(static_cast<std::size_t>(dim));
        for (float& v : r)
            v = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    return rows;
}

} // namespace

TEST(InferenceEngine, RepliesMatchDirectForwardBitForBit)
{
    FrozenMlp m;
    serve::EngineConfig cfg;
    cfg.max_batch = 4;
    cfg.queue_capacity = 32;
    cfg.rows_independent = true;
    serve::InferenceEngine engine(m.fn(), 16, cfg);

    auto rows = random_rows(10, 16, 7);
    std::vector<std::future<serve::Reply>> futures;
    for (const auto& r : rows)
        futures.push_back(engine.submit(r));

    for (std::size_t i = 0; i < rows.size(); ++i) {
        serve::Reply reply = futures[i].get();
        Tensor x({1, 16});
        std::copy(rows[i].begin(), rows[i].end(), x.data());
        Tensor direct = m.model.logits(x, false);
        ASSERT_EQ(reply.output.size(), static_cast<std::size_t>(4));
        for (std::int64_t j = 0; j < 4; ++j)
            EXPECT_EQ(reply.output[static_cast<std::size_t>(j)],
                      direct.data()[j])
                << "request " << i << " logit " << j;
        EXPECT_GE(reply.batch_rows, 1u);
        EXPECT_LE(reply.batch_rows, 4u);
        EXPECT_GE(reply.latency_ms, reply.queue_ms);
        EXPECT_GE(reply.queue_ms, 0.0);
    }

    serve::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.requests, 10u);
    std::uint64_t hist_rows = 0, hist_batches = 0;
    for (std::size_t b = 0; b < stats.batch_size_hist.size(); ++b) {
        hist_rows += stats.batch_size_hist[b] * b;
        hist_batches += stats.batch_size_hist[b];
    }
    EXPECT_EQ(hist_rows, stats.requests);
    EXPECT_EQ(hist_batches, stats.batches);
}

TEST(InferenceEngine, CoalescingOrderCannotChangeOutputs)
{
    // The same request stream through a no-batching engine, a heavily
    // coalescing engine, and a sharded engine must produce identical
    // bits: batching is an execution detail, never a numeric one.
    FrozenMlp m;
    auto rows = random_rows(16, 16, 11);

    auto run = [&](std::size_t max_batch, bool rows_independent,
                   core::ThreadPool* pool) {
        serve::EngineConfig cfg;
        cfg.max_batch = max_batch;
        cfg.queue_capacity = 64;
        cfg.rows_independent = rows_independent;
        cfg.pool = pool;
        serve::InferenceEngine engine(m.fn(), 16, cfg);
        std::vector<std::future<serve::Reply>> futures;
        for (const auto& r : rows)
            futures.push_back(engine.submit(r));
        std::vector<std::vector<float>> outs;
        for (auto& f : futures)
            outs.push_back(f.get().output);
        return outs;
    };

    core::ThreadPool pool(4);
    auto singles = run(1, false, nullptr);
    auto batched = run(8, false, nullptr);
    auto sharded = run(16, true, &pool);
    ASSERT_EQ(singles.size(), batched.size());
    for (std::size_t i = 0; i < singles.size(); ++i) {
        EXPECT_EQ(singles[i], batched[i]) << "request " << i;
        EXPECT_EQ(singles[i], sharded[i]) << "request " << i;
    }
}

TEST(InferenceEngine, TransformerSequencesAreCoalescingInvariant)
{
    // Sequence models serve one whole token window per request row; the
    // batcher coalesces windows, never tokens, so outputs stay exact.
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 32;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.seq_len = 8;
    cfg.spec = nn::QuantSpec::forward_only(core::mx9());
    models::GptMini model(cfg);
    model.freeze();

    // One output row per request window: the last position's logits.
    auto batch_fn = [&](const Tensor& in) {
        return model.window_logits(in);
    };

    stats::Rng rng(13);
    std::vector<std::vector<float>> windows(6);
    for (auto& w : windows) {
        w.resize(static_cast<std::size_t>(cfg.seq_len));
        for (float& t : w)
            t = static_cast<float>(rng.next_u64() % cfg.vocab);
    }

    auto run = [&](std::size_t max_batch, bool shard) {
        serve::EngineConfig ec;
        ec.max_batch = max_batch;
        ec.queue_capacity = 16;
        ec.rows_independent = shard;
        serve::InferenceEngine engine(batch_fn, cfg.seq_len, ec);
        std::vector<std::future<serve::Reply>> futures;
        for (const auto& w : windows)
            futures.push_back(engine.submit(w));
        std::vector<std::vector<float>> outs;
        for (auto& f : futures)
            outs.push_back(f.get().output);
        return outs;
    };

    auto singles = run(1, false);
    auto coalesced = run(6, true);
    for (std::size_t i = 0; i < windows.size(); ++i)
        EXPECT_EQ(singles[i], coalesced[i]) << "window " << i;
}

TEST(InferenceEngine, BoundedQueueAppliesBackpressure)
{
    serve::EngineConfig cfg;
    cfg.max_batch = 1;
    cfg.queue_capacity = 2;
    serve::InferenceEngine engine(
        [](const Tensor& in) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            return in; // echo
        },
        4, cfg);

    auto rows = random_rows(12, 4, 17);
    std::vector<std::future<serve::Reply>> futures;
    for (const auto& r : rows)
        futures.push_back(engine.submit(r)); // blocks while queue full
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(futures[i].get().output, rows[i]);

    serve::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.requests, 12u);
    EXPECT_LE(stats.max_queue_depth, 2u);
}

TEST(InferenceEngine, DrainWaitsForAllAcceptedWork)
{
    serve::EngineConfig cfg;
    cfg.max_batch = 4;
    cfg.queue_capacity = 16;
    serve::InferenceEngine engine(
        [](const Tensor& in) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return in;
        },
        4, cfg);
    auto rows = random_rows(8, 4, 19);
    std::vector<std::future<serve::Reply>> futures;
    for (const auto& r : rows)
        futures.push_back(engine.submit(r));
    engine.drain();
    for (auto& f : futures)
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
}

TEST(InferenceEngine, BatchFunctionErrorsPropagateToFutures)
{
    serve::EngineConfig cfg;
    cfg.max_batch = 4;
    cfg.queue_capacity = 8;
    serve::InferenceEngine engine(
        [](const Tensor&) -> Tensor {
            throw std::runtime_error("model exploded");
        },
        4, cfg);
    auto fut = engine.submit(std::vector<float>(4, 0.5f));
    EXPECT_THROW(fut.get(), std::runtime_error);
    // The engine keeps serving after a failed batch.
    auto fut2 = engine.submit(std::vector<float>(4, 0.25f));
    EXPECT_THROW(fut2.get(), std::runtime_error);
}

TEST(InferenceEngine, RejectsMalformedRequestsAndBatchFns)
{
    FrozenMlp m;
    serve::InferenceEngine engine(m.fn(), 16);
    EXPECT_THROW(engine.submit(std::vector<float>(3, 0.0f)),
                 ArgumentError);
    EXPECT_THROW(
        serve::InferenceEngine(serve::InferenceEngine::BatchFn{}, 4),
        ArgumentError);
    EXPECT_THROW(serve::InferenceEngine(m.fn(), 0), ArgumentError);
    EXPECT_THROW(
        serve::InferenceEngine(serve::InferenceEngine::ReplicaFactory{},
                               4),
        ArgumentError);
}

TEST(InferenceEngine, EnvironmentKnobsResolveDefaults)
{
    ::setenv("MX_SERVE_BATCH", "3", 1);
    ::setenv("MX_SERVE_QUEUE", "5", 1);
    ::setenv("MX_SERVE_REPLICAS", "2", 1);
    EXPECT_EQ(serve::EngineConfig::default_max_batch(), 3u);
    EXPECT_EQ(serve::EngineConfig::default_queue_capacity(), 5u);
    EXPECT_EQ(serve::EngineConfig::default_replicas(), 2u);
    {
        FrozenMlp m;
        serve::InferenceEngine engine(m.fn(), 16);
        EXPECT_EQ(engine.max_batch(), 3u);
        EXPECT_EQ(engine.queue_capacity(), 5u);
        EXPECT_EQ(engine.replicas(), 2u);
        EXPECT_EQ(engine.stats().replicas, 2u);
    }
    // Malformed values fall back (with a once-per-variable warning).
    ::setenv("MX_SERVE_BATCH", "not-a-number", 1);
    ::setenv("MX_SERVE_REPLICAS", "0", 1);
    EXPECT_EQ(serve::EngineConfig::default_max_batch(), 16u);
    EXPECT_EQ(serve::EngineConfig::default_replicas(), 1u);
    ::unsetenv("MX_SERVE_BATCH");
    ::unsetenv("MX_SERVE_QUEUE");
    ::unsetenv("MX_SERVE_REPLICAS");
    EXPECT_EQ(serve::EngineConfig::default_max_batch(), 16u);
    EXPECT_EQ(serve::EngineConfig::default_queue_capacity(), 256u);
    EXPECT_EQ(serve::EngineConfig::default_replicas(), 1u);

    ::setenv("MX_SERVE_SESSIONS", "7", 1);
    EXPECT_EQ(serve::SessionCache::default_capacity(), 7u);
    ::setenv("MX_SERVE_SESSIONS", "0", 1); // documented off switch
    EXPECT_EQ(serve::SessionCache::default_capacity(), 0u);
    EXPECT_FALSE(serve::SessionCache().enabled());
    ::unsetenv("MX_SERVE_SESSIONS");
    EXPECT_EQ(serve::SessionCache::default_capacity(), 64u);
}

TEST(InferenceEngine, ReplicasMatchSingleWorkerBitForBit)
{
    // The replica count is an execution detail, never a numeric one:
    // the same request stream through 1 and 4 replica workers must
    // produce identical bits, and the stats must stay consistent
    // (every accepted row lands in exactly one batch's histogram).
    FrozenMlp m;
    auto rows = random_rows(24, 16, 23);

    auto run = [&](std::size_t replicas) {
        serve::EngineConfig cfg;
        cfg.max_batch = 4;
        cfg.queue_capacity = 64;
        cfg.replicas = replicas;
        serve::InferenceEngine engine(m.fn(), 16, cfg);
        EXPECT_EQ(engine.replicas(), replicas);
        std::vector<std::future<serve::Reply>> futures;
        for (const auto& r : rows)
            futures.push_back(engine.submit(r));
        std::vector<std::vector<float>> outs;
        for (auto& f : futures)
            outs.push_back(f.get().output);
        engine.drain();

        serve::EngineStats stats = engine.stats();
        EXPECT_EQ(stats.requests, rows.size());
        EXPECT_EQ(stats.replicas, replicas);
        std::uint64_t hist_rows = 0, hist_batches = 0;
        for (std::size_t b = 0; b < stats.batch_size_hist.size(); ++b) {
            hist_rows += stats.batch_size_hist[b] * b;
            hist_batches += stats.batch_size_hist[b];
        }
        EXPECT_EQ(hist_rows, stats.requests)
            << "with " << replicas << " replicas";
        EXPECT_EQ(hist_batches, stats.batches);
        return outs;
    };

    auto single = run(1);
    auto replicated = run(4);
    ASSERT_EQ(single.size(), replicated.size());
    for (std::size_t i = 0; i < single.size(); ++i)
        EXPECT_EQ(single[i], replicated[i]) << "request " << i;
}

TEST(InferenceEngine, ReplicaFactoryClonesServeIdentically)
{
    // Per-replica model clones: the factory builds one frozen MLP per
    // worker (deterministic init -> identical weights; FrozenTensor
    // handles would let a real clone share the packed artifacts).
    // Outputs must match the single shared-model engine bit for bit.
    FrozenMlp reference;
    auto rows = random_rows(12, 16, 29);

    std::vector<std::unique_ptr<FrozenMlp>> clones;
    serve::EngineConfig cfg;
    cfg.max_batch = 2;
    cfg.queue_capacity = 32;
    cfg.replicas = 3;
    serve::InferenceEngine engine(
        serve::InferenceEngine::ReplicaFactory(
            [&clones](std::size_t) -> serve::InferenceEngine::BatchFn {
                clones.push_back(std::make_unique<FrozenMlp>());
                return clones.back()->fn();
            }),
        16, cfg);
    EXPECT_EQ(clones.size(), 3u);

    std::vector<std::future<serve::Reply>> futures;
    for (const auto& r : rows)
        futures.push_back(engine.submit(r));
    for (std::size_t i = 0; i < rows.size(); ++i) {
        Tensor x({1, 16});
        std::copy(rows[i].begin(), rows[i].end(), x.data());
        Tensor direct = reference.model.logits(x, false);
        serve::Reply reply = futures[i].get();
        for (std::int64_t j = 0; j < 4; ++j)
            EXPECT_EQ(reply.output[static_cast<std::size_t>(j)],
                      direct.data()[j])
                << "request " << i << " logit " << j;
    }
}

TEST(InferenceEngine, ShutdownRejectsBlockedSubmitterDistinctly)
{
    // A submitter blocked on back-pressure when the engine dies must
    // observe EngineShutdownError — a distinct type, so callers can
    // tell "engine shut down" from "bad request" — while every
    // request accepted before shutdown still drains and completes.
    std::atomic<bool> release{false};
    auto engine = std::make_unique<serve::InferenceEngine>(
        [&release](const Tensor& in) {
            while (!release.load())
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return in;
        },
        4,
        [] {
            serve::EngineConfig cfg;
            cfg.max_batch = 1;
            cfg.queue_capacity = 1;
            cfg.replicas = 1;
            return cfg;
        }());

    // First request: picked up by the worker, parked in the batch fn.
    auto accepted1 = engine->submit(std::vector<float>(4, 1.0f));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // Second request: fills the queue (capacity 1).
    auto accepted2 = engine->submit(std::vector<float>(4, 2.0f));

    // Third submitter: blocks on back-pressure.  It must hold a raw
    // pointer, not read the unique_ptr: main resets the unique_ptr
    // while this thread is still inside submit(), and the engine's
    // in-flight-submitter guarantee covers the object, not the handle.
    serve::InferenceEngine* raw = engine.get();
    std::promise<void> blocked_entered;
    std::future<void> entered = blocked_entered.get_future();
    bool saw_shutdown_error = false;
    bool saw_other_error = false;
    std::thread blocked([&] {
        blocked_entered.set_value();
        try {
            raw->submit(std::vector<float>(4, 3.0f));
        } catch (const serve::EngineShutdownError&) {
            saw_shutdown_error = true;
        } catch (...) {
            saw_other_error = true;
        }
        // Only now let the parked worker finish: the queue stays full
        // until the submitter has been rejected, so the rejection can
        // only come from shutdown — never from a freed slot winning
        // the race.  (The destructor waits out in-flight submitters
        // before joining, so this ordering is deadlock-free.)
        release.store(true);
    });
    entered.wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    engine.reset(); // destructor: reject the blocked submitter, drain
    blocked.join();

    EXPECT_TRUE(saw_shutdown_error)
        << "blocked submitter escaped without EngineShutdownError";
    EXPECT_FALSE(saw_other_error);
    // The accepted-requests-drain guarantee.
    ASSERT_EQ(accepted1.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    ASSERT_EQ(accepted2.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(accepted1.get().output, std::vector<float>(4, 1.0f));
    EXPECT_EQ(accepted2.get().output, std::vector<float>(4, 2.0f));
}

TEST(InferenceEngine, DrainCannotReturnWhileAnyReplicaHoldsABatch)
{
    // With N workers, "queue empty" alone is not "all work done": a
    // popped batch lives in its replica, not the queue.  drain() must
    // also wait out the per-worker busy count.
    std::atomic<int> in_flight{0};
    std::atomic<bool> saw_busy_violation{false};
    serve::EngineConfig cfg;
    cfg.max_batch = 1;
    cfg.queue_capacity = 32;
    cfg.replicas = 4;
    serve::InferenceEngine engine(
        [&](const Tensor& in) {
            ++in_flight;
            std::this_thread::sleep_for(std::chrono::milliseconds(3));
            --in_flight;
            return in;
        },
        4, cfg);

    auto rows = random_rows(16, 4, 31);
    std::vector<std::future<serve::Reply>> futures;
    for (const auto& r : rows)
        futures.push_back(engine.submit(r));
    engine.drain();
    // At the moment drain() returned, no replica may still be
    // executing and every accepted future must be ready.
    EXPECT_EQ(in_flight.load(), 0) << "drain returned mid-batch";
    for (auto& f : futures)
        EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    (void)saw_busy_violation;
}

TEST(SessionCache, CheckoutLruAndDisabledSemantics)
{
    serve::SessionCache cache(2);
    ASSERT_TRUE(cache.enabled());
    auto s1 = std::make_shared<int>(1);
    auto s2 = std::make_shared<int>(2);
    auto s3 = std::make_shared<int>(3);

    cache.put(1, s1);
    cache.put(2, s2);
    EXPECT_EQ(cache.size(), 2u);

    // take() checks out: a second take of the same id misses.
    auto got = cache.take<int>(1);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, 1);
    EXPECT_EQ(cache.take<int>(1), nullptr);
    cache.put(1, got); // check back in (1 is now the freshest)

    // Capacity 2: inserting id 3 evicts the least recently used (2).
    cache.put(3, s3);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.take<int>(2), nullptr);
    EXPECT_NE(cache.take<int>(3), nullptr);

    serve::SessionCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_GE(stats.hits, 2u);
    EXPECT_GE(stats.misses, 2u);

    // Disabled cache: every take misses, puts are dropped.
    serve::SessionCache off(0);
    EXPECT_FALSE(off.enabled());
    off.put(7, std::make_shared<int>(7));
    EXPECT_EQ(off.size(), 0u);
    EXPECT_EQ(off.take<int>(7), nullptr);
}

namespace {

/** A small frozen causal LM for the decode-session tests. */
models::GptMini
make_decode_gpt()
{
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 32;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.seq_len = 8;
    cfg.spec = nn::QuantSpec::forward_only(core::mx9());
    cfg.seed = 37;
    models::GptMini model(cfg);
    model.freeze();
    return model;
}

/** Greedy argmax over one logits row. */
int
argmax_row(const float* logits, int vocab)
{
    int best = 0;
    for (int v = 1; v < vocab; ++v)
        if (logits[v] > logits[best])
            best = v;
    return best;
}

} // namespace

TEST(DecodeSession, PrefixReuseIsBitIdenticalAcrossLegsAndModes)
{
    // The decode contract: a warm session (prefix reuse) produces the
    // same bits as a cold full recompute, for every dispatch leg the
    // model is frozen on and served on (the projections hold no grid
    // and run packed on every leg) — and the full-window cold path
    // matches window_logits exactly.
    for (bool freeze_scalar : {false, true}) {
        for (bool serve_scalar : {false, true}) {
            core::kernels::set_force_scalar(freeze_scalar);
            models::GptMini model = make_decode_gpt();
            core::kernels::set_force_scalar(serve_scalar);
            const auto& cfg = model.config();

            models::GptDecodeSession session;
            std::vector<int> ctx = {3, 1};
            while (static_cast<std::int64_t>(ctx.size()) < cfg.seq_len) {
                Tensor warm = model.decode_logits(ctx, &session);
                Tensor cold = model.decode_logits(ctx, nullptr);
                ASSERT_EQ(warm.numel(), cold.numel());
                for (std::int64_t j = 0; j < warm.numel(); ++j)
                    ASSERT_EQ(warm.data()[j], cold.data()[j])
                        << "frozen scalar=" << freeze_scalar
                        << " served scalar=" << serve_scalar << " step "
                        << ctx.size() << " logit " << j;
                ctx.push_back(argmax_row(warm.data(), cfg.vocab));
            }

            // A fresh session fed the full context in one shot must
            // also land on the same bits (the incremental result is a
            // pure function of the tokens, not of the step history).
            models::GptDecodeSession oneshot;
            Tensor via_oneshot = model.decode_logits(ctx, &oneshot);
            Tensor via_cold = model.decode_logits(ctx, nullptr);
            for (std::int64_t j = 0; j < via_cold.numel(); ++j)
                ASSERT_EQ(via_oneshot.data()[j], via_cold.data()[j])
                    << "one-shot logit " << j;
        }
    }
    core::kernels::set_force_scalar(false); // re-resolve (honours env)
}

TEST(DecodeSession, PerTensorScaledSpecsFallBackInsteadOfThrowing)
{
    // FP8 activations use one per-tensor JIT scale, so prefix reuse is
    // off the table — but decode_logits documents a full-recompute
    // fallback there, not an error.  A session may be passed; it just
    // never engages, and results stay deterministic.
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 32;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.seq_len = 8;
    cfg.spec = nn::QuantSpec::forward_only(core::fp8_e4m3());
    cfg.seed = 43;
    models::GptMini model(cfg);
    model.freeze();

    models::GptDecodeSession session;
    std::vector<int> ctx = {5, 2, 7};
    Tensor with_session = model.decode_logits(ctx, &session);
    Tensor without = model.decode_logits(ctx, nullptr);
    ASSERT_EQ(with_session.numel(), without.numel());
    for (std::int64_t j = 0; j < without.numel(); ++j)
        EXPECT_EQ(with_session.data()[j], without.data()[j])
            << "logit " << j;
}

TEST(DecodeSession, DivergedStreamKeepsOnlyTheSharedPrefix)
{
    models::GptMini model = make_decode_gpt();
    models::GptDecodeSession session;

    std::vector<int> a = {3, 1, 4, 1, 5};
    Tensor warm_a = model.decode_logits(a, &session);

    // Re-decode a stream that shares only the first two tokens; the
    // session must truncate to the shared prefix, not poison the
    // result with stale rows.
    std::vector<int> b = {3, 1, 9, 2, 6, 5};
    Tensor warm_b = model.decode_logits(b, &session);
    Tensor cold_b = model.decode_logits(b, nullptr);
    for (std::int64_t j = 0; j < warm_b.numel(); ++j)
        ASSERT_EQ(warm_b.data()[j], cold_b.data()[j]) << "logit " << j;

    // Same window twice (client retry): still bit-identical.
    Tensor warm_b2 = model.decode_logits(b, &session);
    for (std::int64_t j = 0; j < warm_b2.numel(); ++j)
        ASSERT_EQ(warm_b2.data()[j], cold_b.data()[j]) << "logit " << j;
}

TEST(DecodeSession, ReplicatedSessionServingMatchesDirectDecode)
{
    // End to end: replicated engine + session-aware batch fn + LRU
    // session cache; every stream's greedy decode must reproduce the
    // cold direct path token for token and bit for bit — warm or
    // cold, coalesced or not, whichever replica served it.
    models::GptMini model = make_decode_gpt();
    const auto& cfg = model.config();
    serve::SessionCache cache(8);

    const int streams = 5;
    std::vector<std::vector<int>> prompts(streams);
    for (int s = 0; s < streams; ++s)
        prompts[static_cast<std::size_t>(s)] = {s % cfg.vocab,
                                                (2 * s + 1) % cfg.vocab};

    // Reference: cold decode, no engine, no sessions.
    auto reference = prompts;
    for (auto& ctx : reference)
        while (static_cast<std::int64_t>(ctx.size()) < cfg.seq_len) {
            Tensor logits = model.decode_logits(ctx, nullptr);
            ctx.push_back(argmax_row(logits.data(), cfg.vocab));
        }

    serve::EngineConfig ec;
    ec.max_batch = 4;
    ec.queue_capacity = 16;
    ec.replicas = 3;
    serve::InferenceEngine engine(
        models::gpt_decode_batch_fn(model, cache), cfg.seq_len, ec);

    auto decoded = prompts;
    for (std::int64_t step = 2; step < cfg.seq_len; ++step) {
        std::vector<std::future<serve::Reply>> futures;
        for (int s = 0; s < streams; ++s) {
            auto& ctx = decoded[static_cast<std::size_t>(s)];
            if (static_cast<std::int64_t>(ctx.size()) >= cfg.seq_len)
                continue;
            futures.push_back(engine.submit(
                models::GptMini::pack_decode_row(ctx, cfg.seq_len),
                static_cast<std::uint64_t>(s + 1)));
        }
        std::size_t fi = 0;
        for (int s = 0; s < streams; ++s) {
            auto& ctx = decoded[static_cast<std::size_t>(s)];
            if (static_cast<std::int64_t>(ctx.size()) >= cfg.seq_len)
                continue;
            serve::Reply r = futures[fi++].get();
            ctx.push_back(argmax_row(r.output.data(), cfg.vocab));
        }
    }
    engine.drain();

    EXPECT_EQ(decoded, reference);
    EXPECT_GT(cache.stats().hits, 0u) << "prefix cache never engaged";
}

namespace {

/** A frozen causal LM with a chosen activation format and window. */
models::GptMini
make_decode_gpt_fmt(const core::BdrFormat& fmt, std::int64_t seq_len,
                    std::int64_t layers)
{
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 32;
    cfg.heads = 2;
    cfg.layers = layers;
    cfg.seq_len = seq_len;
    cfg.spec = nn::QuantSpec::forward_only(fmt);
    cfg.seed = 41;
    models::GptMini model(cfg);
    model.freeze();
    return model;
}

} // namespace

TEST(DecodeSession, NativeCachePinsEveryMxFormatAcrossLegsAndModes)
{
    // The native MX K/V cache engages for every pow2-block format —
    // not just MX9 — on every leg the model is frozen and served on
    // (neither storage nor execution depends on the leg).
    // Warm decode must equal cold recompute bit-for-bit throughout.
    for (const auto& fmt : {core::mx9(), core::mx6(), core::mx4()}) {
        for (bool freeze_scalar : {false, true}) {
            for (bool serve_scalar : {false, true}) {
                core::kernels::set_force_scalar(freeze_scalar);
                models::GptMini model = make_decode_gpt_fmt(fmt, 8, 1);
                core::kernels::set_force_scalar(serve_scalar);
                const auto& cfg = model.config();
                models::GptDecodeSession session;
                std::vector<int> ctx = {3, 1};
                while (static_cast<std::int64_t>(ctx.size()) <
                       cfg.seq_len) {
                    Tensor warm = model.decode_logits(ctx, &session);
                    Tensor cold = model.decode_logits(ctx, nullptr);
                    for (std::int64_t j = 0; j < warm.numel(); ++j)
                        ASSERT_EQ(warm.data()[j], cold.data()[j])
                            << fmt.name << " frozen scalar="
                            << freeze_scalar << " served scalar="
                            << serve_scalar << " step " << ctx.size()
                            << " logit " << j;
                    ctx.push_back(argmax_row(warm.data(), cfg.vocab));
                }
                ASSERT_FALSE(session.layers.empty());
                EXPECT_TRUE(session.layers[0].native)
                    << fmt.name << ": pow2-block format did not engage "
                                   "native packed storage";
            }
        }
    }
    core::kernels::set_force_scalar(false); // re-resolve (honours env)
}

TEST(DecodeSession, SlabCommitTruncateRetreatAndNativeFootprint)
{
    // A 32-key window crosses the k1 = 16 block boundary: completed V
    // slabs commit mid-stream, a divergence whose cut lands inside a
    // committed slab retreats to the boundary (its raw floats are
    // gone), and the full-window native footprint is >= 3x under the
    // FP32 rows it replaces.
    models::GptMini model = make_decode_gpt_fmt(core::mx9(), 32, 2);
    const auto& cfg = model.config();

    models::GptDecodeSession session;
    std::vector<int> a = {3, 1};
    while (a.size() < 28) {
        Tensor warm = model.decode_logits(a, &session);
        Tensor cold = model.decode_logits(a, nullptr);
        for (std::int64_t j = 0; j < warm.numel(); ++j)
            ASSERT_EQ(warm.data()[j], cold.data()[j])
                << "step " << a.size() << " logit " << j;
        a.push_back(argmax_row(warm.data(), cfg.vocab));
    }
    ASSERT_FALSE(session.layers.empty());
    EXPECT_TRUE(session.layers[0].native);
    EXPECT_GE(session.layers[0].v_slabs.size(), 1u)
        << "no V slab committed by key 27";

    // Diverge at key 18 — inside the committed slab, so the native
    // cache retreats to key 16 and recomputes the rest.  Bits must
    // still match a cold decode.
    std::vector<int> b(a.begin(), a.begin() + 18);
    b.push_back((a[18] + 1) % static_cast<int>(cfg.vocab));
    Tensor warm_b = model.decode_logits(b, &session);
    Tensor cold_b = model.decode_logits(b, nullptr);
    for (std::int64_t j = 0; j < warm_b.numel(); ++j)
        ASSERT_EQ(warm_b.data()[j], cold_b.data()[j])
            << "slab-interior divergence, logit " << j;

    // Diverge again at key 10 — inside the raw FP32 tail (no committed
    // blocks survive the cut on the V side beyond slab 0).
    std::vector<int> c(b.begin(), b.begin() + 10);
    c.push_back((b[10] + 2) % static_cast<int>(cfg.vocab));
    Tensor warm_c = model.decode_logits(c, &session);
    Tensor cold_c = model.decode_logits(c, nullptr);
    for (std::int64_t j = 0; j < warm_c.numel(); ++j)
        ASSERT_EQ(warm_c.data()[j], cold_c.data()[j])
            << "tail divergence, logit " << j;

    // Footprint at the full window (tail empty: 32 = 2 slabs): packed
    // streams vs the legacy FP32 K/V rows for the same prefix.
    models::GptDecodeSession full;
    std::vector<int> w;
    for (int i = 0; i < 32; ++i)
        w.push_back((5 * i + 3) % static_cast<int>(cfg.vocab));
    Tensor warm_w = model.decode_logits(w, &full);
    Tensor cold_w = model.decode_logits(w, nullptr);
    for (std::int64_t j = 0; j < warm_w.numel(); ++j)
        ASSERT_EQ(warm_w.data()[j], cold_w.data()[j]);
    const std::size_t packed = models::decode_session_bytes(full);
    const std::size_t fp32 =
        w.size() * sizeof(int) +
        static_cast<std::size_t>(cfg.layers) * 2 * w.size() *
            static_cast<std::size_t>(cfg.d_model) * sizeof(float);
    EXPECT_GT(packed, 0u);
    EXPECT_LE(packed * 3, fp32)
        << "native cache " << packed << " B not >=3x under FP32 "
        << fp32 << " B";
}

TEST(DecodeSession, WarmStepsAppendToTheOpenVTailWithoutReallocating)
{
    // The open V tail reserves k1 + 1 rows at the first warm s = 1
    // step; later s = 1 steps append in place, and a slab commit erases
    // the block's raw rows but keeps the room.  A multi-row step (the
    // prompt) keeps no more than that room.  memory_bytes() counts only
    // the rows the tail holds.
    models::GptMini model = make_decode_gpt_fmt(core::mx9(), 32, 2);
    const auto& cfg = model.config();
    const std::size_t k1 = static_cast<std::size_t>(core::mx9().k1);
    const std::size_t d = static_cast<std::size_t>(cfg.d_model);
    models::GptDecodeSession session;
    std::vector<int> ctx = {3, 1, 4, 1, 5};
    model.decode_logits(ctx, &session);
    ASSERT_FALSE(session.layers.empty());
    ASSERT_TRUE(session.layers[0].native);
    const nn::AttnPrefixCache& layer = session.layers[0];
    EXPECT_LE(layer.v_tail.capacity(), (k1 + 1) * d);
    ctx.push_back(2);
    model.decode_logits(ctx, &session);
    const std::size_t capacity = layer.v_tail.capacity();
    const float* storage = layer.v_tail.data();
    EXPECT_GE(capacity, (k1 + 1) * d);
    while (static_cast<std::int64_t>(ctx.size()) < cfg.seq_len) {
        ctx.push_back((3 * static_cast<int>(ctx.size()) + 1) %
                      static_cast<int>(cfg.vocab));
        model.decode_logits(ctx, &session);
        const std::size_t tail_rows = ctx.size() % k1;
        EXPECT_EQ(layer.v_tail.capacity(), capacity) << "key " << ctx.size();
        EXPECT_EQ(layer.v_tail.data(), storage) << "key " << ctx.size();
        EXPECT_EQ(layer.v_tail.size(), tail_rows * d) << "key " << ctx.size();
        std::size_t held = 0;
        for (const auto& stream : layer.k_heads)
            held += stream.size();
        for (const auto& slab : layer.v_slabs)
            held += slab.size();
        EXPECT_EQ(layer.memory_bytes(), held + tail_rows * d * sizeof(float));
    }
}

TEST(SessionCache, ByteAccountingTracksResidencyAndEviction)
{
    serve::SessionCache cache(2);
    cache.put(1, std::make_shared<int>(1), 100);
    cache.put(2, std::make_shared<int>(2), 50);
    EXPECT_EQ(cache.stats().resident_bytes, 150u);

    // A checkout transfers the bytes out with the state.
    auto one = cache.take<int>(1);
    ASSERT_NE(one, nullptr);
    EXPECT_EQ(cache.stats().resident_bytes, 50u);

    // Check-in with a new size (a session grows as its prefix does).
    cache.put(1, std::move(one), 120);
    EXPECT_EQ(cache.stats().resident_bytes, 170u);

    // Capacity overflow evicts the LRU entry and moves its bytes to
    // the cumulative eviction counter.
    cache.put(3, std::make_shared<int>(3), 30);
    serve::SessionCache::Stats st = cache.stats();
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.resident_bytes, 150u);
    EXPECT_EQ(st.evicted_bytes, 50u);

    cache.erase(1);
    EXPECT_EQ(cache.stats().resident_bytes, 30u);

    // Same-id re-put replaces the accounted size, never double-counts.
    cache.put(3, std::make_shared<int>(4), 40);
    EXPECT_EQ(cache.stats().resident_bytes, 40u);
}

TEST(DecodeSession, EvictionAndReCheckoutStayBitIdentical)
{
    // Capacity-1 cache, two interleaved streams: every step evicts the
    // other stream's session, so each decode restarts from a miss.
    // The contract is that eviction costs time, never bits — and the
    // byte counters see both residency and the eviction churn.
    models::GptMini model = make_decode_gpt_fmt(core::mx9(), 8, 2);
    const auto& cfg = model.config();
    serve::SessionCache cache(1);

    std::vector<std::vector<int>> ctx = {{3, 1}, {9, 2}};
    while (static_cast<std::int64_t>(ctx[0].size()) < cfg.seq_len ||
           static_cast<std::int64_t>(ctx[1].size()) < cfg.seq_len) {
        for (std::size_t s = 0; s < 2; ++s) {
            if (static_cast<std::int64_t>(ctx[s].size()) >= cfg.seq_len)
                continue;
            auto st = cache.take<models::GptDecodeSession>(s + 1);
            if (st == nullptr)
                st = std::make_shared<models::GptDecodeSession>();
            Tensor warm = model.decode_logits(ctx[s], st.get());
            const std::size_t bytes = models::decode_session_bytes(*st);
            cache.put(s + 1, std::move(st), bytes);
            Tensor cold = model.decode_logits(ctx[s], nullptr);
            for (std::int64_t j = 0; j < warm.numel(); ++j)
                ASSERT_EQ(warm.data()[j], cold.data()[j])
                    << "stream " << s << " step " << ctx[s].size()
                    << " logit " << j;
            ctx[s].push_back(argmax_row(warm.data(), cfg.vocab));
        }
    }

    serve::SessionCache::Stats st = cache.stats();
    EXPECT_GT(st.evictions, 0u);
    EXPECT_GT(st.evicted_bytes, 0u);
    EXPECT_GT(st.resident_bytes, 0u);
}

namespace {

/** Bitwise float comparison (tells -0.0 from +0.0, unlike ==). */
bool
same_bits(const float* a, const float* b, std::size_t n)
{
    return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

/** Every byte of cached decode state two sessions hold must match. */
void
expect_same_session(const models::GptDecodeSession& got,
                    const models::GptDecodeSession& want,
                    const std::string& what)
{
    EXPECT_EQ(got.tokens, want.tokens) << what;
    EXPECT_EQ(models::decode_session_bytes(got),
              models::decode_session_bytes(want))
        << what;
    ASSERT_EQ(got.layers.size(), want.layers.size()) << what;
    for (std::size_t l = 0; l < got.layers.size(); ++l) {
        const nn::AttnPrefixCache& g = got.layers[l];
        const nn::AttnPrefixCache& w = want.layers[l];
        const std::string at = what + " layer " + std::to_string(l);
        EXPECT_EQ(g.prefix, w.prefix) << at;
        EXPECT_EQ(g.native, w.native) << at;
        EXPECT_EQ(g.k_heads, w.k_heads) << at << " K streams";
        EXPECT_EQ(g.v_slabs, w.v_slabs) << at << " V slabs";
        ASSERT_EQ(g.v_tail.size(), w.v_tail.size()) << at;
        EXPECT_TRUE(same_bits(g.v_tail.data(), w.v_tail.data(),
                              g.v_tail.size()))
            << at << " V tail";
        ASSERT_TRUE(g.k.same_shape(w.k) && g.v.same_shape(w.v)) << at;
        EXPECT_TRUE(same_bits(g.k.data(), w.k.data(),
                              static_cast<std::size_t>(g.k.numel())) &&
                    same_bits(g.v.data(), w.v.data(),
                              static_cast<std::size_t>(g.v.numel())))
            << at << " FP32 K/V rows";
    }
}

/** One stream of a decode_step test batch. */
struct StepCase
{
    std::string name;
    std::vector<int> context;
    /// Pre-step session; null = a session-0 row.
    std::shared_ptr<models::GptDecodeSession> session;
};

/** A session that already covers @p tokens. */
std::shared_ptr<models::GptDecodeSession>
warm_session(models::GptMini& model, const std::vector<int>& tokens)
{
    auto s = std::make_shared<models::GptDecodeSession>();
    model.decode_logits(tokens, s.get());
    return s;
}

/** A @p n-token context drawn from the model's vocab by (a*i + b). */
std::vector<int>
context_of(const models::GptMini& model, int n, int a, int b)
{
    std::vector<int> c;
    for (int i = 0; i < n; ++i)
        c.push_back((a * i + b) % model.config().vocab);
    return c;
}

/**
 * Run @p cases as ONE fused decode_step and as one single-stream
 * decode_step each (on copies of the same pre-step sessions); every
 * logits row and every post-step session must match bit for bit.
 */
void
expect_fused_equals_single(models::GptMini& model,
                           const std::vector<StepCase>& cases,
                           const std::string& what)
{
    const int vocab = model.config().vocab;
    std::vector<std::vector<int>> contexts;
    std::vector<models::GptDecodeSession*> fused;
    std::vector<std::shared_ptr<models::GptDecodeSession>> single;
    for (const StepCase& c : cases) {
        contexts.push_back(c.context);
        fused.push_back(c.session.get());
        single.push_back(c.session == nullptr
                             ? nullptr
                             : std::make_shared<models::GptDecodeSession>(
                                   *c.session));
    }
    const Tensor out = model.decode_step(contexts, fused);
    ASSERT_EQ(out.dim(0), static_cast<std::int64_t>(cases.size()));
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const std::string at = what + ": " + cases[i].name;
        const Tensor ref =
            model.decode_step({cases[i].context}, {single[i].get()});
        EXPECT_TRUE(same_bits(out.data() + i * vocab, ref.data(),
                              static_cast<std::size_t>(vocab)))
            << at << " logits";
        if (cases[i].session != nullptr)
            expect_same_session(*cases[i].session, *single[i], at);
    }
}

/** The SIMD levels this build and host can run (scalar always). */
std::vector<core::kernels::SimdLevel>
available_levels()
{
    std::vector<core::kernels::SimdLevel> levels = {
        core::kernels::SimdLevel::Scalar};
    if (core::kernels::avx2_supported())
        levels.push_back(core::kernels::SimdLevel::Avx2);
    if (core::kernels::avx512_supported())
        levels.push_back(core::kernels::SimdLevel::Avx512);
    return levels;
}

/** A batch-function request tensor from decode contexts. */
Tensor
decode_rows(const std::vector<std::vector<int>>& contexts,
            std::int64_t seq_len)
{
    Tensor in({static_cast<std::int64_t>(contexts.size()), seq_len});
    for (std::size_t r = 0; r < contexts.size(); ++r) {
        const std::vector<float> row =
            models::GptMini::pack_decode_row(contexts[r], seq_len);
        std::copy(row.begin(), row.end(),
                  in.data() + static_cast<std::int64_t>(r) * seq_len);
    }
    return in;
}

} // namespace

TEST(DecodeStep, MixedBatchMatchesOneSessionStepsOnEveryLeg)
{
    // One fused step over every kind of row the serving path sees must
    // equal one single-stream step per row — logits and the whole
    // post-step session — on every dispatch leg.  k1 = 16, window 32.
    for (core::kernels::SimdLevel level : available_levels()) {
        core::kernels::set_simd_level(level);
        models::GptMini model = make_decode_gpt_fmt(core::mx9(), 32, 2);
        const std::string leg =
            "leg " + std::to_string(static_cast<int>(level));

        const std::vector<int> a = context_of(model, 32, 7, 3);
        const std::vector<int> b = context_of(model, 32, 5, 1);
        const std::vector<int> c = context_of(model, 32, 3, 2);
        std::vector<int> c_div(c.begin(), c.begin() + 18);
        c_div.push_back((c[18] + 1) % model.config().vocab);

        std::vector<StepCase> mixed;
        mixed.push_back({"warm s=1", {a.begin(), a.begin() + 11},
                         warm_session(model, {a.begin(), a.begin() + 10})});
        mixed.push_back({"crosses k1", {b.begin(), b.begin() + 16},
                         warm_session(model, {b.begin(), b.begin() + 15})});
        mixed.push_back({"diverged in a slab", c_div,
                         warm_session(model, {c.begin(), c.begin() + 20})});
        mixed.push_back({"session 0", {a.begin(), a.begin() + 6}, nullptr});
        mixed.push_back({"cold prompt", {b.begin(), b.begin() + 9},
                         std::make_shared<models::GptDecodeSession>()});
        mixed.push_back({"warm past a slab", {c.begin(), c.begin() + 28},
                         warm_session(model, {c.begin(), c.begin() + 27})});
        ASSERT_EQ(mixed[2].session->layers[0].v_slabs.size(), 1u)
            << "the divergence case needs a committed slab";
        expect_fused_equals_single(model, mixed, leg + " mixed");

        // 30 + 30 + 30 + 1 new rows: more than one A tile, so the step
        // splits into fused groups.
        std::vector<StepCase> split;
        for (int i = 0; i < 3; ++i)
            split.push_back({"cold 30 #" + std::to_string(i),
                             context_of(model, 30, 2 * i + 1, i),
                             std::make_shared<models::GptDecodeSession>()});
        split.push_back({"warm s=1", {a.begin(), a.begin() + 12},
                         warm_session(model, {a.begin(), a.begin() + 11})});
        expect_fused_equals_single(model, split, leg + " split");
    }
    core::kernels::reset_simd_level();
}

TEST(DecodeStep, PerTensorScaledSpecRunsStreamsAlone)
{
    // FP8 activations share one per-tensor scale, so rows would couple
    // if fused: the step must run each stream alone, and match the
    // single-stream step exactly (sessions never engage).
    models::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.d_model = 32;
    cfg.heads = 2;
    cfg.layers = 1;
    cfg.seq_len = 8;
    cfg.spec = nn::QuantSpec::forward_only(core::fp8_e4m3());
    cfg.seed = 43;
    models::GptMini model(cfg);
    model.freeze();

    std::vector<StepCase> cases;
    cases.push_back({"session", {5, 2, 7},
                     std::make_shared<models::GptDecodeSession>()});
    cases.push_back({"session 0", {1, 1, 4, 9, 3}, nullptr});
    cases.push_back({"second session", {0, 6},
                     std::make_shared<models::GptDecodeSession>()});
    expect_fused_equals_single(model, cases, "fp8");
    EXPECT_TRUE(cases[0].session->layers.empty());
}

TEST(DecodeStep, WarmStepIssuesOneGemmPerWeightForAnyBatch)
{
    // The fusion's count contract, from the gemm.calls counter: a warm
    // step runs each of the 4 layers' 6 weight GEMMs (wq, wk, wv, wo,
    // ff1, ff2) and the LM head once for the whole batch.  Attention
    // adds one Q K^T and one P V GEMM per (stream, head, layer).
    if (!core::kernels::avx2_supported())
        GTEST_SKIP() << "the packed GEMM needs a SIMD leg to count";
    core::kernels::set_simd_level(core::kernels::SimdLevel::Avx512);
    models::GptMini model = make_decode_gpt_fmt(core::mx9(), 16, 4);
    const std::uint64_t heads = static_cast<std::uint64_t>(
        model.config().heads);
    const std::uint64_t layers = static_cast<std::uint64_t>(
        model.config().layers);
    const obs::Counter& calls = obs::counter("gemm.calls");
    for (std::uint64_t batch : {1u, 3u, 8u}) {
        std::vector<std::vector<int>> contexts;
        std::vector<std::shared_ptr<models::GptDecodeSession>> held;
        std::vector<models::GptDecodeSession*> sessions;
        for (std::uint64_t i = 0; i < batch; ++i) {
            contexts.push_back(
                context_of(model, 7, 2 * static_cast<int>(i) + 1,
                           static_cast<int>(i)));
            held.push_back(warm_session(
                model, {contexts.back().begin(), contexts.back().end() - 1}));
            sessions.push_back(held.back().get());
        }
        const std::uint64_t before = calls.value();
        model.decode_step(contexts, sessions);
        EXPECT_EQ(calls.value() - before,
                  layers * 6 + 1 + 2 * batch * heads * layers)
            << "batch of " << batch;
    }
    core::kernels::reset_simd_level();
}

TEST(DecodeStep, RowValidationRejectsMalformedContexts)
{
    const std::int64_t T = 6;
    const std::int64_t vocab = 16;
    const std::vector<float> ok = {3, 15, 0, -1, -1, -1};
    EXPECT_EQ(models::GptMini::unpack_decode_row(ok.data(), T, vocab),
              (std::vector<int>{3, 15, 0}));
    const std::vector<std::vector<float>> bad = {
        {3.7f, -1, -1, -1, -1, -1},   // not an integer
        {16, -1, -1, -1, -1, -1},     // outside the vocab
        {2, -2, -1, -1, -1, -1},      // negative but not padding
        {std::nanf(""), -1, -1, -1, -1, -1},
        {3, -1, 5, -1, -1, -1},       // token after a -1 hole
        {-1, -1, -1, -1, -1, -1},     // no tokens
    };
    for (const std::vector<float>& row : bad)
        EXPECT_THROW(models::GptMini::unpack_decode_row(row.data(), T, vocab),
                     ArgumentError)
            << "row starting " << row[0] << ", " << row[1];

    // The direct API refuses one session for two contexts.
    models::GptMini model = make_decode_gpt();
    models::GptDecodeSession s;
    EXPECT_THROW(model.decode_step({{1, 2}, {3, 4}}, {&s, &s}),
                 ArgumentError);
}

TEST(DecodeStep, MalformedRowFailsItsBatchBeforeAnyCheckout)
{
    models::GptMini model = make_decode_gpt();
    const std::int64_t T = model.config().seq_len;
    serve::SessionCache cache(8);
    auto fn = models::gpt_decode_batch_fn(model, cache);

    std::vector<std::vector<int>> ctx = {{3, 1, 4}, {2, 7}};
    fn(decode_rows(ctx, T), {1, 2});
    ctx[0].push_back(9);
    ctx[1].push_back(5);
    fn(decode_rows(ctx, T), {1, 2});

    auto snapshot = [&cache](std::uint64_t id) {
        auto st = cache.take<models::GptDecodeSession>(id);
        EXPECT_NE(st, nullptr) << "session " << id;
        if (st == nullptr)
            return models::GptDecodeSession{};
        models::GptDecodeSession copy = *st;
        cache.put(id, std::move(st), models::decode_session_bytes(copy));
        return copy;
    };
    const models::GptDecodeSession before1 = snapshot(1);
    const models::GptDecodeSession before2 = snapshot(2);

    // A batch whose middle row is malformed: the whole batch fails and
    // neither mate's cached state moves.
    Tensor in = decode_rows({ctx[0], {6, 6}, ctx[1]}, T);
    in.data()[T + 1] = 3.7f;
    EXPECT_THROW(fn(in, {1, 3, 2}), ArgumentError);
    EXPECT_EQ(cache.size(), 2u);
    expect_same_session(snapshot(1), before1, "mate 1");
    expect_same_session(snapshot(2), before2, "mate 2");

    // The mates' next step is bit-identical to a cold decode.
    ctx[0].push_back(1);
    ctx[1].push_back(0);
    const Tensor warm = fn(decode_rows(ctx, T), {1, 2});
    for (std::size_t r = 0; r < ctx.size(); ++r) {
        const Tensor cold = model.decode_logits(ctx[r], nullptr);
        EXPECT_TRUE(same_bits(warm.data() + r * cold.numel(), cold.data(),
                              static_cast<std::size_t>(cold.numel())))
            << "stream " << r;
    }
}

TEST(DecodeStep, ThrowAfterCheckoutDropsEveryTakenSession)
{
    // A session built for another model passes row validation but
    // fails inside the step, after every row's session was checked
    // out: all of them are dropped, none put back half-advanced.
    models::GptMini model = make_decode_gpt();
    const std::int64_t T = model.config().seq_len;
    serve::SessionCache cache(8);
    auto fn = models::gpt_decode_batch_fn(model, cache);

    std::vector<int> ctx = {3, 1, 4};
    fn(decode_rows({ctx}, T), {1});
    auto alien = std::make_shared<models::GptDecodeSession>();
    alien->tokens = {2, 7};
    alien->layers.resize(5);
    cache.put(2, alien, 0);

    ctx.push_back(1);
    EXPECT_THROW(fn(decode_rows({ctx, {2, 7, 1}}, T), {1, 2}),
                 ArgumentError);
    EXPECT_EQ(cache.size(), 0u);

    ctx.push_back(5);
    const Tensor warm = fn(decode_rows({ctx}, T), {1});
    const Tensor cold = model.decode_logits(ctx, nullptr);
    EXPECT_TRUE(same_bits(warm.data(), cold.data(),
                          static_cast<std::size_t>(cold.numel())));
}

TEST(DecodeStep, DuplicateSessionIdsInOneBatchRecomputeAndLastPutWins)
{
    // Take-all-then-put-all: the first row checks the session out, so
    // the second row with the same id misses and recomputes from
    // scratch (same bits); both are put back in row order and the
    // last put wins.
    models::GptMini model = make_decode_gpt();
    const std::int64_t T = model.config().seq_len;
    serve::SessionCache cache(8);
    auto fn = models::gpt_decode_batch_fn(model, cache);

    const std::vector<int> x = {3, 1, 4};
    fn(decode_rows({x}, T), {5});
    const std::vector<int> x2 = {3, 1, 4, 1};
    const std::vector<int> y = {9, 2};
    const serve::SessionCache::Stats s0 = cache.stats();
    const Tensor out = fn(decode_rows({x2, y}, T), {5, 5});
    const serve::SessionCache::Stats s1 = cache.stats();
    EXPECT_EQ(s1.hits - s0.hits, 1u);
    EXPECT_EQ(s1.misses - s0.misses, 1u);

    const int vocab = model.config().vocab;
    const Tensor cold_x2 = model.decode_logits(x2, nullptr);
    const Tensor cold_y = model.decode_logits(y, nullptr);
    EXPECT_TRUE(same_bits(out.data(), cold_x2.data(),
                          static_cast<std::size_t>(vocab)));
    EXPECT_TRUE(same_bits(out.data() + vocab, cold_y.data(),
                          static_cast<std::size_t>(vocab)));

    EXPECT_EQ(cache.size(), 1u);
    auto st = cache.take<models::GptDecodeSession>(5);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->tokens, y);
}

TEST(DecodeStep, FullWindowMatchesTheFixedWindowForward)
{
    // An oracle outside the decode path: in a one-layer model, the last
    // position of a full window sees every key, so causal-visibility
    // quantization and the fixed-window forward cut the same Q, K and
    // transposed-V blocks there — decode (K streams, V slabs and tail,
    // fused across streams) must reproduce window_logits bit for bit.
    // 40 keys = two committed k1 = 16 slabs plus an 8-key tail.
    for (core::kernels::SimdLevel level : available_levels()) {
        core::kernels::set_simd_level(level);
        for (std::int64_t T : {32, 40}) {
            models::GptMini model = make_decode_gpt_fmt(core::mx9(), T, 1);
            std::vector<std::vector<int>> windows;
            for (int w = 0; w < 3; ++w)
                windows.push_back(context_of(model, static_cast<int>(T),
                                             2 * w + 3, w));
            const Tensor oracle = model.window_logits(decode_rows(windows, T));
            const Tensor fused = model.decode_step(
                windows, std::vector<models::GptDecodeSession*>(
                             windows.size(), nullptr));
            ASSERT_TRUE(oracle.same_shape(fused));
            EXPECT_TRUE(same_bits(fused.data(), oracle.data(),
                                  static_cast<std::size_t>(oracle.numel())))
                << "leg " << static_cast<int>(level) << ", window " << T;
        }
    }
    core::kernels::reset_simd_level();
}

TEST(DecodeStep, UnfrozenMxDecodeMatchesTheWindowForwardAndWarmEqualsCold)
{
    // Unfrozen layers decode on the FP32 K/V rows, re-quantized on use
    // (the native packed cache is a frozen layer's storage).  The
    // full-window oracle and warm == cold must hold there too, for
    // every MX format on every leg.
    for (core::kernels::SimdLevel level : available_levels()) {
        core::kernels::set_simd_level(level);
        for (const auto& fmt : {core::mx9(), core::mx6(), core::mx4()}) {
            models::GptMini model = make_decode_gpt_fmt(fmt, 40, 1);
            model.unfreeze();
            const std::string at = fmt.name + " leg " +
                                   std::to_string(static_cast<int>(level));
            std::vector<std::vector<int>> windows;
            for (int w = 0; w < 2; ++w)
                windows.push_back(context_of(model, 40, 2 * w + 3, w));
            const Tensor oracle =
                model.window_logits(decode_rows(windows, 40));
            const Tensor fused = model.decode_step(
                windows, std::vector<models::GptDecodeSession*>(
                             windows.size(), nullptr));
            EXPECT_TRUE(same_bits(fused.data(), oracle.data(),
                                  static_cast<std::size_t>(oracle.numel())))
                << at;

            // Warm: one session grown a token at a time past two V
            // slab boundaries; cold: every prefix recomputed.
            models::GptDecodeSession session;
            const int vocab = model.config().vocab;
            for (std::size_t n = 1; n <= windows[0].size(); ++n) {
                const std::vector<int> prefix(
                    windows[0].begin(),
                    windows[0].begin() + static_cast<std::ptrdiff_t>(n));
                const Tensor warm = model.decode_logits(prefix, &session);
                const Tensor cold = model.decode_logits(prefix);
                EXPECT_TRUE(same_bits(warm.data(), cold.data(),
                                      static_cast<std::size_t>(vocab)))
                    << at << " prefix " << n;
            }
            ASSERT_EQ(session.layers.size(), 1u);
            EXPECT_FALSE(session.layers[0].native) << at;
        }
    }
    core::kernels::reset_simd_level();
}

TEST(DecodeStep, SessionsDoNotCrossAFreezeOrUnfreeze)
{
    // A session's K/V storage follows the layer's frozen state when it
    // starts (packed streams when frozen, FP32 rows when not) and
    // cannot be converted, so continuing it across unfreeze() or
    // freeze() is an argument error, like any other cache drift.
    models::GptMini model = make_decode_gpt_fmt(core::mx9(), 8, 1);
    const std::vector<int> tokens = {1, 2, 3};
    models::GptDecodeSession native;
    model.decode_logits(tokens, &native);
    ASSERT_TRUE(native.layers[0].native);
    model.unfreeze();
    EXPECT_THROW(model.decode_logits({1, 2, 3, 4}, &native), ArgumentError);

    models::GptDecodeSession rows;
    model.decode_logits(tokens, &rows);
    ASSERT_FALSE(rows.layers[0].native);
    model.freeze();
    EXPECT_THROW(model.decode_logits({1, 2, 3, 4}, &rows), ArgumentError);
}
