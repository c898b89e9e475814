/**
 * @file
 * Engineering microbenchmarks: throughput of the quantizers, the packed
 * codec (including the packed GEMM's int16 operand view), the hardware
 * dot-product pipeline, and the quantized matmul.
 * Uses the calibrated run_bench loop from bench_report.h and emits
 * BENCH_perf_quantize.json — the perf baseline that optimization PRs
 * are measured against.
 */

#include <cstdio>
#include <vector>

#include "bench_report.h"
#include "core/kernels/dispatch.h"
#include "core/quantize.h"
#include "formats/block_codec.h"
#include "formats/packed.h"
#include "gemm/packed_operand.h"
#include "hw/pipeline.h"
#include "nn/quant.h"
#include "stats/rng.h"

using namespace mx;
using namespace mx::core;

namespace {

std::vector<float>
make_data(std::size_t n)
{
    stats::Rng rng(1);
    std::vector<float> v(n);
    for (auto& x : v)
        x = static_cast<float>(rng.normal());
    return v;
}

bench::BenchResult
bm_quantize(const BdrFormat& fmt)
{
    auto x = make_data(4096);
    std::vector<float> out(x.size());
    Quantizer q(fmt, RoundingMode::NearestEven, ScalingPolicy::JustInTime);
    return bench::run_bench(
        [&] {
            q(x, out);
            bench::do_not_optimize(out.data());
        },
        x.size());
}

bench::BenchResult
bm_quantize_kernel(const BdrFormat& fmt, const core::kernels::QuantKernel& k)
{
    auto x = make_data(4096);
    std::vector<float> out(x.size());
    const auto plan = core::kernels::make_quant_plan(fmt);
    Rounder rounder;
    return bench::run_bench(
        [&] {
            k.quantize(plan, x, out, rounder);
            bench::do_not_optimize(out.data());
        },
        x.size());
}

bench::BenchResult
bm_pack(const BdrFormat& fmt)
{
    auto x = make_data(4096);
    return bench::run_bench(
        [&] {
            auto p = formats::pack(fmt, x);
            bench::do_not_optimize(p.bytes.data());
        },
        x.size());
}

bench::BenchResult
bm_fused_quantize_pack(const BdrFormat& fmt)
{
    // The kernel-level fused path behind formats::pack, without the
    // PackedTensor wrapper: quantize straight into the bit stream.
    auto x = make_data(4096);
    const auto plan = core::kernels::make_quant_plan(fmt);
    const auto& k = core::kernels::active_kernel();
    Rounder rounder;
    return bench::run_bench(
        [&] {
            formats::BitWriter w;
            k.quantize_pack(plan, x, rounder, w);
            bench::do_not_optimize(w.bytes().data());
        },
        x.size());
}

bench::BenchResult
bm_unpack(const BdrFormat& fmt)
{
    auto x = make_data(4096);
    auto packed = formats::pack(fmt, x);
    std::vector<float> out;
    return bench::run_bench(
        [&] {
            out = formats::unpack(packed);
            bench::do_not_optimize(out.data());
        },
        x.size());
}

bench::BenchResult
bm_operand_decode_rows(const BdrFormat& fmt)
{
    // The native K/V cache's per-step decode: byte-aligned packed rows
    // of head_dim = 32 elements into the int16 execution view.
    const std::size_t rows = 128, cols = 32;
    auto x = make_data(rows * cols);
    const auto plan = core::kernels::make_quant_plan(fmt);
    Rounder rounder;
    std::vector<std::uint8_t> stream;
    gemm::pack_rows_aligned(plan, x.data(), rows, cols, rounder, stream);
    return bench::run_bench(
        [&] {
            auto op = gemm::PackedOperand::decode_rows(plan, stream, rows,
                                                       cols);
            bench::do_not_optimize(op.row_mantissa(0));
        },
        x.size());
}

bench::BenchResult
bm_pack_rows_aligned(const BdrFormat& fmt)
{
    // The native K/V cache's append: quantize+pack byte-aligned rows of
    // head_dim = 32 elements onto a stream that keeps its capacity.
    const std::size_t rows = 128, cols = 32;
    auto x = make_data(rows * cols);
    const auto plan = core::kernels::make_quant_plan(fmt);
    Rounder rounder;
    std::vector<std::uint8_t> stream;
    return bench::run_bench(
        [&] {
            stream.clear();
            gemm::pack_rows_aligned(plan, x.data(), rows, cols, rounder,
                                    stream);
            bench::do_not_optimize(stream.data());
        },
        x.size());
}

bench::BenchResult
bm_operand_quantize(const BdrFormat& fmt)
{
    // The activation-side builder: floats straight into the view.
    const std::size_t rows = 16, cols = 256;
    auto x = make_data(rows * cols);
    const auto plan = core::kernels::make_quant_plan(fmt);
    Rounder rounder;
    return bench::run_bench(
        [&] {
            auto op = gemm::PackedOperand::quantize(plan, x.data(), rows,
                                                    cols, rounder);
            bench::do_not_optimize(op.row_mantissa(0));
        },
        x.size());
}

bench::BenchResult
bm_pipeline(const BdrFormat& fmt)
{
    auto a = make_data(64), b = make_data(64);
    hw::DotProductPipeline pipe({fmt, 64, 25});
    return bench::run_bench(
        [&] {
            double v = pipe.dot(a, b);
            bench::do_not_optimize(v);
        },
        64);
}

bench::BenchResult
bm_qmatmul()
{
    stats::Rng rng(2);
    tensor::Tensor a = tensor::Tensor::randn({64, 256}, rng);
    tensor::Tensor b = tensor::Tensor::randn({64, 256}, rng);
    return bench::run_bench(
        [&] {
            auto c = nn::qmatmul_nt(a, b, mx9());
            bench::do_not_optimize(c.data());
        },
        64 * 64 * 256);
}

void
row(bench::Report& report, const std::string& name,
    const bench::BenchResult& r)
{
    std::printf("%-24s %12.1f ns/iter %14.3e items/s (%llu iters)\n",
                name.c_str(), r.ns_per_iter, r.items_per_sec,
                static_cast<unsigned long long>(r.iterations));
    report.bench_result(name, r);
}

} // namespace

int
main()
{
    bench::Report report("perf_quantize");
    bench::banner("Quantizer throughput (4096-element vectors)");
    struct NamedFmt
    {
        const char* label;
        BdrFormat fmt;
    };
    const NamedFmt quant_fmts[] = {
        {"quantize_mx9", mx9()},         {"quantize_mx6", mx6()},
        {"quantize_mx4", mx4()},         {"quantize_msfp16", msfp16()},
        {"quantize_fp8_e4m3", fp8_e4m3()},
        {"quantize_int8", scaled_int(8)}, {"quantize_vsq8", vsq(8, 8)},
    };
    for (const NamedFmt& n : quant_fmts)
        row(report, n.label, bm_quantize(n.fmt));

    bench::banner("Kernel comparison (MX9, via kernels/dispatch.h)");
    std::printf("active kernel: %s\n",
                core::kernels::active_kernel().name());
    row(report, "quantize_mx9_scalar",
        bm_quantize_kernel(mx9(), core::kernels::scalar_kernel()));
    if (core::kernels::avx2_supported())
        row(report, "quantize_mx9_avx2",
            bm_quantize_kernel(mx9(), *core::kernels::avx2_kernel()));

    bench::banner("Packed codec throughput");
    row(report, "pack_mx9", bm_pack(mx9()));
    row(report, "pack_fp8_e4m3", bm_pack(fp8_e4m3()));
    row(report, "fused_quantize_pack_mx9", bm_fused_quantize_pack(mx9()));
    row(report, "fused_quantize_pack_mx4", bm_fused_quantize_pack(mx4()));
    row(report, "unpack_mx9", bm_unpack(mx9()));
    row(report, "unpack_fp8_e4m3", bm_unpack(fp8_e4m3()));
    row(report, "pack_rows_aligned_mx9", bm_pack_rows_aligned(mx9()));
    row(report, "operand_decode_rows_mx9", bm_operand_decode_rows(mx9()));
    row(report, "operand_quantize_mx9", bm_operand_quantize(mx9()));

    bench::banner("Dot-product pipeline (r = 64)");
    row(report, "pipeline_mx9", bm_pipeline(mx9()));
    row(report, "pipeline_fp8_e4m3", bm_pipeline(fp8_e4m3()));

    bench::banner("Quantized matmul (64x256 @ 256x64, MX9)");
    row(report, "qmatmul_mx9", bm_qmatmul());

    return report.finish(true);
}
