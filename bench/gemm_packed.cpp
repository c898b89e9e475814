/**
 * @file
 * Packed-domain GEMM microbench (the Figure 6 execution pipeline as a
 * software kernel): for each MX format, C = A * B^T throughput of
 *
 *   dequant: the PR 3 frozen serving matmul — quantize the activations,
 *            then tensor::matmul_nt against the frozen FP32 grid tensor;
 *   packed:  gemm::matmul_nt_packed — quantize the activations into the
 *            integer execution view and multiply the weight bit
 *            stream's mantissas directly (no FP32 weight copy).
 *
 * Also reports the packed path's QSNR against the FP32 matmul oracle
 * (pinned per format), scalar/AVX2/AVX-512 bit-identity checks,
 * ragged-width correctness, an MX_GEMM_THREADS sweep over decode- and
 * prefill-shaped GEMMs (slot-named t1/t2/t4/tpool so baselines compare
 * across machines, with a bytes-touched-per-MAC arithmetic-intensity
 * metric and a bit-identity-across-lane-counts flag), the MAC floor
 * ladder behind gemm::kMinMacsPerShare (serial vs every-lane split vs
 * the shipped rule; metrics only), and the
 * weight-memory story (FP32 bytes vs packed stream vs execution view).
 * Emits BENCH_gemm_packed.json.
 *
 *   $ ./bench/gemm_packed
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bench_report.h"
#include "core/kernels/dispatch.h"
#include "core/thread_pool.h"
#include "gemm/packed_gemm.h"
#include "nn/frozen.h"
#include "nn/quant.h"
#include "stats/rng.h"

using namespace mx;
using tensor::Tensor;

namespace {

/** Naive double-accumulation FP32 oracle for C = A * B^T. */
Tensor
oracle_matmul_nt(const Tensor& a, const Tensor& b)
{
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    Tensor c({m, n});
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t kk = 0; kk < k; ++kk)
                acc += static_cast<double>(a.data()[i * k + kk]) *
                       b.data()[j * k + kk];
            c.data()[i * n + j] = static_cast<float>(acc);
        }
    return c;
}

double
qsnr_db(const Tensor& ref, const Tensor& test)
{
    double sig = 0.0, noise = 0.0;
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
        const double r = ref.data()[i];
        const double d = r - static_cast<double>(test.data()[i]);
        sig += r * r;
        noise += d * d;
    }
    return noise == 0.0 ? 300.0 : 10.0 * std::log10(sig / noise);
}

double
max_abs(const Tensor& t)
{
    double m = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i)
        m = std::max(m, std::fabs(static_cast<double>(t.data()[i])));
    return m;
}

/** QSNR floors mirroring tests/test_gemm.cpp (measured ~43/25/13 dB). */
double
qsnr_floor(const std::string& name)
{
    if (name == "MX9")
        return 35.0;
    if (name == "MX6")
        return 18.0;
    return 8.0; // MX4
}

} // namespace

int
main()
{
    bench::Report report("gemm_packed");
    bool ok = true;

    const std::int64_t M = static_cast<std::int64_t>(bench::scaled(16, 8));
    const std::int64_t K = static_cast<std::int64_t>(bench::scaled(256, 128));
    const std::int64_t N = static_cast<std::int64_t>(bench::scaled(256, 128));
    const std::size_t macs =
        static_cast<std::size_t>(M) * static_cast<std::size_t>(K) *
        static_cast<std::size_t>(N);

    const gemm::PackedGemmKernel& kernel = gemm::active_gemm_kernel();
    const bool simd_leg = &kernel != &gemm::scalar_gemm_kernel();
    std::printf("packed-GEMM kernel: %s\n", kernel.name());
    report.metric("gemm_shape_m", static_cast<double>(M));
    report.metric("gemm_shape_k", static_cast<double>(K));
    report.metric("gemm_shape_n", static_cast<double>(N));

    bench::banner("C = A * B^T: dequantized matmul vs packed domain");
    std::printf("%-6s %14s %14s %9s %10s\n", "fmt", "dequant MACs/s",
                "packed MACs/s", "speedup", "QSNR dB");

    stats::Rng rng(81);
    for (const auto& fmt : {core::mx9(), core::mx6(), core::mx4()}) {
        Tensor x = Tensor::randn({M, K}, rng, 1.0f);
        Tensor w = Tensor::randn({N, K}, rng, 0.3f);
        const core::kernels::QuantPlan plan =
            core::kernels::make_quant_plan(fmt);
        nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);

        bench::BenchResult dequant = bench::run_bench(
            [&]() {
                Tensor qx = nn::quantize_rows(x, fmt);
                bench::do_not_optimize(tensor::matmul_nt(qx, f.values()));
            },
            macs);
        bench::BenchResult packed = bench::run_bench(
            [&]() {
                bench::do_not_optimize(
                    gemm::matmul_nt_packed(x, plan, *f.gemm_operand()));
            },
            macs);

        Tensor got = gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
        const double db = qsnr_db(oracle_matmul_nt(x, w), got);
        const double speedup =
            packed.items_per_sec / dequant.items_per_sec;
        std::printf("%-6s %14.3e %14.3e %8.2fx %9.2f\n",
                    fmt.name.c_str(), dequant.items_per_sec,
                    packed.items_per_sec, speedup, db);

        report.bench_result("gemm_" + fmt.name + "_dequant", dequant);
        report.bench_result("gemm_" + fmt.name + "_packed", packed);
        report.metric("gemm_" + fmt.name + "_packed_speedup", speedup,
                      "x");
        report.metric("gemm_" + fmt.name + "_qsnr", db, "dB");
        const bool fmt_ok = db >= qsnr_floor(fmt.name);
        report.flag("gemm_" + fmt.name + "_qsnr_floor", fmt_ok);
        ok = ok && fmt_ok;
        if (simd_leg) {
            // The speed claim is only meaningful on the SIMD leg — the
            // scalar packed kernel is a reference, not a fast path.
            const bool fast_ok = speedup >= 1.0;
            report.flag("gemm_" + fmt.name + "_packed_ge_dequant",
                        fast_ok);
            ok = ok && fast_ok;
        }
    }

    // ------------------------------------------------------------------
    // Correctness spot checks shared with the test suite.
    // ------------------------------------------------------------------
    bench::banner("correctness: ragged widths + kernel bit-identity");
    {
        const std::int64_t rk = 67; // 4 blocks + 3-element ragged tail
        Tensor x = Tensor::randn({5, rk}, rng, 1.0f);
        Tensor w = Tensor::randn({9, rk}, rng, 0.3f);
        const auto fmt = core::mx9();
        const core::kernels::QuantPlan plan =
            core::kernels::make_quant_plan(fmt);
        nn::FrozenTensor f = nn::FrozenTensor::build(w, fmt);
        Tensor got = gemm::matmul_nt_packed(x, plan, *f.gemm_operand());
        Tensor ref =
            tensor::matmul_nt(nn::quantize_rows(x, fmt), f.values());
        const bool ragged_ok =
            tensor::max_abs_diff(got, ref) <=
            1e-5 * std::max(max_abs(ref), 1e-20);
        std::printf("  ragged K=%lld matches dequantized reference: %s\n",
                    static_cast<long long>(rk), ragged_ok ? "yes" : "NO");
        report.flag("gemm_ragged_matches_reference", ragged_ok);
        ok = ok && ragged_ok;

        bool identical = true;
        if (gemm::avx2_gemm_kernel() != nullptr &&
            core::kernels::avx2_supported()) {
            core::Rounder rounder;
            const auto a = gemm::PackedOperand::quantize(
                plan, x.data(), 5, static_cast<std::size_t>(rk), rounder);
            const auto b = gemm::PackedOperand::quantize(
                plan, w.data(), 9, static_cast<std::size_t>(rk), rounder);
            const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
            Tensor cs({5, 9}), cv({5, 9});
            gemm::scalar_gemm_kernel().gemm(gp, a, b, cs.data());
            gemm::avx2_gemm_kernel()->gemm(gp, a, b, cv.data());
            identical = tensor::max_abs_diff(cs, cv) == 0.0;
            std::printf("  scalar vs AVX2 bit-identical: %s\n",
                        identical ? "yes" : "NO");
        } else {
            std::printf("  scalar vs AVX2 bit-identical: skipped "
                        "(no AVX2 on this host)\n");
        }
        report.flag("gemm_scalar_avx2_bit_identical", identical);
        ok = ok && identical;

        bool identical512 = true;
        if (gemm::avx512_gemm_kernel() != nullptr &&
            core::kernels::avx512_supported()) {
            core::Rounder rounder;
            const auto a = gemm::PackedOperand::quantize(
                plan, x.data(), 5, static_cast<std::size_t>(rk), rounder);
            const auto b = gemm::PackedOperand::quantize(
                plan, w.data(), 9, static_cast<std::size_t>(rk), rounder);
            const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
            Tensor cs({5, 9}), cv({5, 9});
            gemm::scalar_gemm_kernel().gemm(gp, a, b, cs.data());
            gemm::avx512_gemm_kernel()->gemm(gp, a, b, cv.data());
            identical512 = tensor::max_abs_diff(cs, cv) == 0.0;
            std::printf("  scalar vs AVX-512 bit-identical: %s\n",
                        identical512 ? "yes" : "NO");
        } else {
            std::printf("  scalar vs AVX-512 bit-identical: skipped "
                        "(no AVX-512/VNNI on this host)\n");
        }
        report.flag("gemm_scalar_avx512_bit_identical", identical512);
        ok = ok && identical512;
    }

    // ------------------------------------------------------------------
    // Thread sweep (MX_GEMM_THREADS): output tiles shard across lanes.
    // Slots are NAMED (t1/t2/t4/tpool), not thread-count-keyed, so a
    // baseline recorded on one machine compares on another; results
    // must stay bit-identical at every lane count.
    // ------------------------------------------------------------------
    bench::banner("MX_GEMM_THREADS sweep: decode + prefill shapes (MX9)");
    {
        const auto fmt = core::mx9();
        const core::kernels::QuantPlan plan =
            core::kernels::make_quant_plan(fmt);
        const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
        const std::size_t pool = core::ThreadPool::default_thread_count();
        struct Slot
        {
            const char* name;
            std::size_t threads;
        };
        const Slot slots[] = {
            {"t1", 1}, {"t2", 2}, {"t4", 4}, {"tpool", pool}};
        struct Shape
        {
            const char* name;
            std::int64_t m, k, n;
        };
        const Shape shapes[] = {
            // Decode: one small activation batch against a wide cache.
            {"decode", 8, 256, 256},
            // Prefill: a full-sequence batch — the shape threading pays
            // for (many output tiles, each with a deep contraction).
            {"prefill", static_cast<std::int64_t>(bench::scaled(128, 48)),
             static_cast<std::int64_t>(bench::scaled(512, 192)),
             static_cast<std::int64_t>(bench::scaled(512, 192))}};
        std::printf("  pool lanes on this host: %zu\n\n", pool);
        std::printf("%-8s %6s %14s %9s\n", "shape", "slot", "MACs/s",
                    "vs t1");
        for (const Shape& s : shapes) {
            Tensor x = Tensor::randn({s.m, s.k}, rng, 1.0f);
            Tensor y = Tensor::randn({s.n, s.k}, rng, 0.3f);
            core::Rounder rounder;
            const auto a = gemm::PackedOperand::quantize(
                plan, x.data(), static_cast<std::size_t>(s.m),
                static_cast<std::size_t>(s.k), rounder);
            const auto b = gemm::PackedOperand::quantize(
                plan, y.data(), static_cast<std::size_t>(s.n),
                static_cast<std::size_t>(s.k), rounder);
            const std::size_t smacs = static_cast<std::size_t>(s.m) *
                                      static_cast<std::size_t>(s.k) *
                                      static_cast<std::size_t>(s.n);
            // Arithmetic intensity of the packed execution: operand
            // views in, FP32 C out, per multiply-accumulate.
            const double bytes_touched =
                static_cast<double>(a.memory_bytes()) +
                static_cast<double>(b.memory_bytes()) +
                static_cast<double>(s.m) * static_cast<double>(s.n) *
                    sizeof(float);
            report.metric(std::string("gemm_sweep_") + s.name +
                              "_bytes_per_mac",
                          bytes_touched / static_cast<double>(smacs),
                          "B/MAC");

            gemm::set_gemm_threads(1);
            Tensor base = gemm::matmul_nt_prequant(gp, a, b);
            double t1_rate = 0.0, pool_rate = 0.0;
            bool identical = true;
            for (const Slot& sl : slots) {
                gemm::set_gemm_threads(sl.threads);
                bench::BenchResult r = bench::run_bench(
                    [&]() {
                        bench::do_not_optimize(
                            gemm::matmul_nt_prequant(gp, a, b));
                    },
                    smacs);
                Tensor out = gemm::matmul_nt_prequant(gp, a, b);
                identical =
                    identical && tensor::max_abs_diff(out, base) == 0.0;
                if (sl.threads == 1)
                    t1_rate = r.items_per_sec;
                if (sl.threads == pool)
                    pool_rate = r.items_per_sec;
                std::printf("%-8s %6s %14.3e %8.2fx\n", s.name, sl.name,
                            r.items_per_sec,
                            t1_rate > 0.0 ? r.items_per_sec / t1_rate
                                          : 1.0);
                report.bench_result(std::string("gemm_sweep_") + s.name +
                                        "_" + sl.name,
                                    r);
            }
            gemm::set_gemm_threads(0); // back to the env resolution
            report.flag(std::string("gemm_sweep_") + s.name +
                            "_bit_identical",
                        identical);
            ok = ok && identical;
            if (std::string(s.name) == "prefill" && pool >= 2) {
                // The scaling claim needs lanes to scale across — on a
                // single-CPU host the key is absent (the compare gate
                // treats pool-conditional keys as notes, not misses).
                const double scale = pool_rate / t1_rate;
                report.metric("gemm_prefill_pool_speedup", scale, "x");
                const bool scale_ok = scale >= 2.0;
                report.flag("gemm_prefill_pool_ge_2x_t1", scale_ok);
                ok = ok && scale_ok;
            }
        }
    }

    // ------------------------------------------------------------------
    // MAC floor ladder: where waking pool lanes starts to pay.  Decode-
    // and prefill-shaped MX9 GEMMs (K = 256, N = 256 and 1024) at
    // growing M, timed serially (t1), split across every lane whatever
    // their size (split: the bench cuts the tile grid into min(lanes,
    // tiles) contiguous ranges itself, exactly as the drivers do above
    // the floor) and through the shipped rule (tpool: kMinMacsPerShare
    // decides).  Metrics only: the split's wake-and-join cost over the
    // serial walk at small M sets gemm::kMinMacsPerShare.
    // ------------------------------------------------------------------
    bench::banner("MAC floor ladder: t1 vs every-lane split vs shipped rule");
    {
        const core::kernels::QuantPlan plan =
            core::kernels::make_quant_plan(core::mx9());
        const gemm::GemmPlan gp = gemm::make_gemm_plan(plan, plan);
        const gemm::PackedGemmKernel& kernel = gemm::active_gemm_kernel();
        core::ThreadPool& pool = core::ThreadPool::shared();
        const std::size_t lanes = pool.thread_count();
        const std::size_t k = 256;
        std::printf("  pool lanes: %zu, kMinMacsPerShare: %zu\n\n", lanes,
                    gemm::kMinMacsPerShare);
        std::printf("%5s %5s %9s %9s %8s %8s\n", "n", "m", "MACs",
                    "t1 us", "split", "tpool");
        for (const std::size_t n : {std::size_t{256}, std::size_t{1024}}) {
            Tensor y = Tensor::randn({static_cast<std::int64_t>(n),
                                      static_cast<std::int64_t>(k)},
                                     rng, 0.3f);
            core::Rounder rounder;
            const auto b = gemm::PackedOperand::quantize(
                plan, y.data(), n, k, rounder);
            for (const std::size_t m : {1, 4, 8, 16, 48, 128}) {
                Tensor x = Tensor::randn({static_cast<std::int64_t>(m),
                                          static_cast<std::int64_t>(k)},
                                         rng, 1.0f);
                const auto a = gemm::PackedOperand::quantize(
                    plan, x.data(), m, k, rounder);
                const std::size_t macs = m * n * k;
                const std::size_t ntj =
                    (n + gemm::kTileRowsB - 1) / gemm::kTileRowsB;
                const std::size_t ntiles =
                    ((m + gemm::kTileRowsA - 1) / gemm::kTileRowsA) * ntj;
                const std::size_t shares = std::min(lanes, ntiles);
                auto serial = [&]() {
                    bench::do_not_optimize(
                        gemm::matmul_nt_prequant(gp, a, b));
                };
                auto split = [&]() {
                    Tensor c({static_cast<std::int64_t>(m),
                              static_cast<std::int64_t>(n)});
                    pool.parallel_for(shares, [&](std::size_t s) {
                        for (std::size_t t = ntiles * s / shares;
                             t < ntiles * (s + 1) / shares; ++t) {
                            const std::size_t i0 =
                                (t / ntj) * gemm::kTileRowsA;
                            const std::size_t j0 =
                                (t % ntj) * gemm::kTileRowsB;
                            kernel.gemm_tile(
                                gp, a, b,
                                gemm::Tile{i0,
                                           std::min(m, i0 + gemm::kTileRowsA),
                                           j0,
                                           std::min(n,
                                                    j0 + gemm::kTileRowsB)},
                                c.data(), n);
                        }
                    });
                    bench::do_not_optimize(c.data());
                };
                gemm::set_gemm_threads(1);
                const bench::BenchResult r1 = bench::run_bench(serial, macs);
                gemm::set_gemm_threads(0);
                const bench::BenchResult rs = bench::run_bench(split, macs);
                const bench::BenchResult rp = bench::run_bench(serial, macs);
                const double split_x = rs.items_per_sec / r1.items_per_sec;
                const double pool_x = rp.items_per_sec / r1.items_per_sec;
                std::printf("%5zu %5zu %9zu %9.1f %7.2fx %7.2fx\n", n, m,
                            macs, r1.ns_per_iter / 1e3, split_x, pool_x);
                const std::string key = "gemm_floor_n" + std::to_string(n) +
                                        "_m" + std::to_string(m);
                report.metric(key + "_t1_us", r1.ns_per_iter / 1e3, "us");
                report.metric(key + "_split_vs_t1", split_x, "x");
                report.metric(key + "_tpool_vs_t1", pool_x, "x");
            }
        }
    }

    // ------------------------------------------------------------------
    // The weight-memory story: what a frozen MX9 layer holds per path.
    // ------------------------------------------------------------------
    bench::banner("frozen MX9 weight memory per execution path");
    {
        Tensor w = Tensor::randn({N, K}, rng, 0.3f);
        nn::FrozenTensor f = nn::FrozenTensor::build(w, core::mx9());
        const double fp32_bytes =
            static_cast<double>(w.numel()) * sizeof(float);
        const double stream_bytes =
            static_cast<double>(f.packed()->bytes.size());
        const double view_bytes =
            static_cast<double>(f.gemm_operand()->memory_bytes());
        std::printf("  FP32 grid tensor : %10.0f bytes\n", fp32_bytes);
        std::printf("  packed bit stream: %10.0f bytes (%.2f bits/elem)\n",
                    stream_bytes, f.bits_per_element());
        std::printf("  gemm int16 view  : %10.0f bytes\n", view_bytes);
        report.metric("gemm_weight_fp32_bytes", fp32_bytes, "bytes");
        report.metric("gemm_weight_stream_bytes", stream_bytes, "bytes");
        report.metric("gemm_weight_view_bytes", view_bytes, "bytes");
        const bool mem_ok = view_bytes < fp32_bytes;
        report.flag("gemm_view_smaller_than_fp32", mem_ok);
        ok = ok && mem_ok;
    }

    std::printf("\nthe Figure 6 pipeline in software: mantissa "
                "multiplies, a little shifting, one alignment per "
                "block — no dequantized weights.\n");
    return report.finish(ok);
}
