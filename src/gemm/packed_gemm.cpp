#include "gemm/packed_gemm.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "core/check.h"
#include "core/env.h"
#include "core/kernels/dispatch.h"
#include "core/thread_pool.h"
#include "obs/obs.h"

namespace mx {
namespace gemm {

namespace {

/** Count one packed GEMM in the obs registry (the MX_METRICS /
 *  trace-counter view). */
void
count_call()
{
    static obs::Counter& calls = obs::counter("gemm.calls");
    calls.add(1);
}

/** Attach the standard per-call trace args: output shape, output-tile
 *  grid size, k1 blocks per row, active SIMD tier, and an estimate of
 *  packed + output bytes touched.  Skipped entirely when tracing is
 *  off (the span is not recording). */
void
annotate_gemm_span(obs::Span& span, const GemmPlan& plan, std::size_t m,
                   std::size_t n, std::size_t k, std::size_t packed_bytes)
{
    if (!obs::trace_enabled())
        return;
    const std::size_t nti = (m + kTileRowsA - 1) / kTileRowsA;
    const std::size_t ntj = (n + kTileRowsB - 1) / kTileRowsB;
    span.arg("m", static_cast<double>(m));
    span.arg("n", static_cast<double>(n));
    span.arg("k", static_cast<double>(k));
    span.arg("tiles", static_cast<double>(nti * ntj));
    span.arg("k1_blocks", static_cast<double>(plan.blocks_per_row(k)));
    span.arg("simd", static_cast<double>(
                         core::kernels::active_simd_level()));
    span.arg("bytes", static_cast<double>(packed_bytes + m * n * 4));
}

/** -1 = unresolved, else the MX_GEMM_THREADS lane count. */
std::atomic<long> g_gemm_threads{-1};

void
check_pair(const GemmPlan& plan, const PackedOperand& a,
           const PackedOperand& b)
{
    MX_CHECK_ARG(a.valid() && b.valid(), "gemm: invalid operand");
    MX_CHECK_ARG(a.cols() == b.cols(),
                 "gemm: contraction widths differ (" << a.cols() << " vs "
                                                     << b.cols() << ")");
    MX_CHECK_ARG(a.plan().k1 == plan.a.k1 && a.plan().m == plan.a.m &&
                 b.plan().k1 == plan.b.k1 && b.plan().m == plan.b.m,
                 "gemm: operand plans do not match the GemmPlan");
}

void
check_nn(const GemmPlan& plan, const PackedOperand& a,
         std::span<const NnBlockRef> b, std::size_t ncols)
{
    MX_CHECK_ARG(a.valid(), "gemm_nn: invalid A operand");
    MX_CHECK_ARG(a.plan().k1 == plan.a.k1 && a.plan().m == plan.a.m,
                 "gemm_nn: A operand plan does not match the GemmPlan");
    MX_CHECK_ARG(ncols >= 1, "gemm_nn: empty output");
    const std::size_t k1 = static_cast<std::size_t>(plan.a.k1);
    std::size_t covered = 0;
    for (std::size_t k = 0; k < b.size(); ++k) {
        const NnBlockRef& ref = b[k];
        MX_CHECK_ARG(ref.op != nullptr && ref.op->valid(),
                     "gemm_nn: chunk " << k << " is invalid");
        MX_CHECK_ARG(ref.op->plan().k1 == plan.b.k1 &&
                     ref.op->plan().m == plan.b.m,
                     "gemm_nn: chunk " << k
                         << "'s plan does not match the GemmPlan");
        MX_CHECK_ARG(ref.op->cols() <= k1 &&
                     (k + 1 == b.size() || ref.op->cols() == k1),
                     "gemm_nn: chunk " << k << " is " << ref.op->cols()
                         << " wide; only the last chunk may be short");
        MX_CHECK_ARG(ref.row_off + ncols <= ref.op->rows(),
                     "gemm_nn: chunk " << k << " rows [" << ref.row_off
                         << ", " << ref.row_off + ncols
                         << ") exceed its " << ref.op->rows() << " rows");
        covered += ref.op->cols();
    }
    MX_CHECK_ARG(covered == a.cols(),
                 "gemm_nn: chunks cover " << covered
                     << " contraction elements, A has " << a.cols());
}

/** One B block as a tile loop reads it: its mantissas, the shifts of
 *  its sub-blocks and its shared exponent. */
struct BBlock
{
    const std::int16_t* mant;
    const std::uint8_t* tau;
    int exp;
};

/**
 * Pre-align @p n mantissas of one block: each is shifted left by beta -
 * tau of its k2 sub-block.  That is one operand's half of Figure 6's
 * shifter: (Ma << sa) * (Mb << sb) = (Ma * Mb) << (budget - taua - taub)
 * with sa + sb = budget - taua - taub, so the block integer of two
 * aligned blocks is one plain dot product.  gemm_compatible proves
 * m + beta <= 31, so an aligned mantissa fits int32.
 */
void
align_block(const std::int16_t* m, const std::uint8_t* tau, std::size_t n,
            std::size_t k2, int beta, std::int32_t* out)
{
    for (std::size_t s = 0; s < n; s += k2) {
        const int shift = beta - tau[s / k2];
        const std::size_t hi = std::min(n, s + k2);
        for (std::size_t k = s; k < hi; ++k)
            out[k] = static_cast<std::int32_t>(m[k]) << shift;
    }
}

/**
 * The scalar reference tile over blocks [0, nblocks): @p b_block(col,
 * blk) returns tile column col's block blk, which holds min(k1, a.cols()
 * - k1 blk) elements like A's (an NN leg's chunk widths tile a.cols()
 * exactly).  Per kc panel, the tile's B blocks are aligned once into
 * thread-local scratch and reused by every A row; each A row's panel is
 * aligned once and reused by every column.  Then each block pair is one
 * int64 dot of aligned mantissas times 2^(Ea + Eb - exp_bias), rounded
 * to float once and added in ascending block order: the file contract's
 * integers and roundings exactly (the GemmPlan's int64 headroom covers
 * every block sum).
 */
template <typename BBlockOf>
void
scalar_tile(const GemmPlan& plan, const PackedOperand& a,
            std::size_t nblocks, const Tile& t, float* c, std::size_t ldc,
            const BBlockOf& b_block)
{
    const std::size_t k1 = static_cast<std::size_t>(plan.a.k1);
    const std::size_t k2a = static_cast<std::size_t>(plan.a.k2);
    const std::size_t k2b = static_cast<std::size_t>(plan.b.k2);
    const std::size_t cols = a.cols();
    const std::size_t ncols = t.j1 - t.j0;
    const std::size_t span = kPanelBlocks * k1; // elements per panel row
    thread_local std::vector<std::int32_t> a_al, b_al;
    thread_local std::vector<int> b_exp;
    if (b_al.size() < kTileRowsB * span) {
        a_al.resize(span);
        b_al.resize(kTileRowsB * span);
        b_exp.resize(kTileRowsB * kPanelBlocks);
    }
    MX_CHECK(ncols <= kTileRowsB,
             "scalar gemm tile: tile is " << ncols << " columns wide");
    const auto block_len = [&](std::size_t blk) {
        return std::min(k1, cols - blk * k1);
    };
    for (std::size_t p0 = 0; p0 < nblocks; p0 += kPanelBlocks) {
        const std::size_t p1 = std::min(nblocks, p0 + kPanelBlocks);
        const bool first = p0 == 0;
        for (std::size_t j = 0; j < ncols; ++j)
            for (std::size_t blk = p0; blk < p1; ++blk) {
                const BBlock bb = b_block(j, blk);
                align_block(bb.mant, bb.tau, block_len(blk), k2b,
                            plan.b.beta,
                            b_al.data() + j * span + (blk - p0) * k1);
                b_exp[j * kPanelBlocks + blk - p0] = bb.exp - plan.exp_bias;
            }
        for (std::size_t i = t.i0; i < t.i1; ++i) {
            const std::int16_t* am = a.row_mantissa(i);
            const std::uint8_t* atau = a.row_tau(i);
            const std::int16_t* aexp = a.row_exp(i);
            for (std::size_t blk = p0; blk < p1; ++blk)
                align_block(am + blk * k1, atau + blk * k1 / k2a,
                            block_len(blk), k2a, plan.a.beta,
                            a_al.data() + (blk - p0) * k1);
            float* crow = c + i * ldc + t.j0;
            for (std::size_t j = 0; j < ncols; ++j) {
                const std::int32_t* bj = b_al.data() + j * span;
                const int* ej = b_exp.data() + j * kPanelBlocks;
                float acc = first ? 0.0f : crow[j];
                for (std::size_t blk = p0; blk < p1; ++blk) {
                    const std::size_t off = (blk - p0) * k1;
                    const std::size_t n = block_len(blk);
                    std::int64_t dot = 0;
                    for (std::size_t k = off; k < off + n; ++k)
                        dot += static_cast<std::int64_t>(a_al[k]) * bj[k];
                    acc += static_cast<float>(
                        static_cast<double>(dot) *
                        core::kernels::detail::pow2_double(aexp[blk] +
                                                           ej[blk - p0]));
                }
                crow[j] = acc;
            }
        }
    }
}

class ScalarGemmKernel final : public PackedGemmKernel
{
  public:
    const char* name() const override { return "scalar"; }

    void
    gemm_tile(const GemmPlan& plan, const PackedOperand& a,
              const PackedOperand& b, const Tile& t, float* c,
              std::size_t ldc) const override
    {
        const std::size_t k1 = static_cast<std::size_t>(plan.b.k1);
        const std::size_t k2 = static_cast<std::size_t>(plan.b.k2);
        scalar_tile(plan, a, plan.blocks_per_row(a.cols()), t, c, ldc,
                    [&](std::size_t col, std::size_t blk) {
                        const std::size_t r = t.j0 + col;
                        return BBlock{b.row_mantissa(r) + blk * k1,
                                      b.row_tau(r) + blk * k1 / k2,
                                      b.row_exp(r)[blk]};
                    });
    }

    void
    gemm_nn_tile(const GemmPlan& plan, const PackedOperand& a,
                 std::span<const NnBlockRef> b, const Tile& t, float* c,
                 std::size_t ldc) const override
    {
        scalar_tile(plan, a, b.size(), t, c, ldc,
                    [&](std::size_t col, std::size_t k) {
                        const PackedOperand& ch = *b[k].op;
                        const std::size_t r = b[k].row_off + t.j0 + col;
                        return BBlock{ch.row_mantissa(r), ch.row_tau(r),
                                      ch.row_exp(r)[0]};
                    });
    }
};

/**
 * Walk the FIXED (rows x cols) output-tile grid of a GEMM with @p k
 * contraction elements.  A GEMM with enough MACs splits the grid into
 * shares — contiguous tile ranges of at least kMinMacsPerShare MACs,
 * at most gemm_threads() of them — on the shared pool; a smaller one
 * runs inline, since waking lanes would cost more than its tiles.  The
 * grid depends only on the output shape — never on the share count —
 * and every C element lives in exactly one tile, so any split is
 * bit-identical.
 */
template <typename TileFn>
void
run_tiled(std::size_t rows, std::size_t cols, std::size_t k,
          const TileFn& run_tile)
{
    const std::size_t nti = (rows + kTileRowsA - 1) / kTileRowsA;
    const std::size_t ntj = (cols + kTileRowsB - 1) / kTileRowsB;
    const std::size_t ntiles = nti * ntj;
    const auto run_range = [&](std::size_t t0, std::size_t t1) {
        for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t i0 = (t / ntj) * kTileRowsA;
            const std::size_t j0 = (t % ntj) * kTileRowsB;
            run_tile(Tile{i0, std::min(rows, i0 + kTileRowsA), j0,
                          std::min(cols, j0 + kTileRowsB)});
        }
    };
    const std::size_t shares = std::min(
        {gemm_threads(), ntiles, rows * cols * k / kMinMacsPerShare});
    if (shares <= 1) {
        run_range(0, ntiles);
        return;
    }
    static obs::Counter& shares_run = obs::counter("gemm.shares");
    core::ThreadPool::shared().parallel_for(shares, [&](std::size_t s) {
        run_range(ntiles * s / shares, ntiles * (s + 1) / shares);
        shares_run.add(1);
    });
}

/** The threaded whole-GEMM drivers the matmul_* entry points run. */
void
run_gemm(const PackedGemmKernel& kernel, const GemmPlan& plan,
         const PackedOperand& a, const PackedOperand& b, float* c)
{
    check_pair(plan, a, b);
    run_tiled(a.rows(), b.rows(), a.cols(), [&](const Tile& t) {
        kernel.gemm_tile(plan, a, b, t, c, b.rows());
    });
}

void
run_gemm_nn(const PackedGemmKernel& kernel, const GemmPlan& plan,
            const PackedOperand& a, std::span<const NnBlockRef> b,
            std::size_t ncols, float* c)
{
    check_nn(plan, a, b, ncols);
    run_tiled(a.rows(), ncols, a.cols(), [&](const Tile& t) {
        kernel.gemm_nn_tile(plan, a, b, t, c, ncols);
    });
}

} // namespace

void
PackedGemmKernel::gemm(const GemmPlan& plan, const PackedOperand& a,
                       const PackedOperand& b, float* c) const
{
    check_pair(plan, a, b);
    for (std::size_t i0 = 0; i0 < a.rows(); i0 += kTileRowsA)
        for (std::size_t j0 = 0; j0 < b.rows(); j0 += kTileRowsB)
            gemm_tile(plan, a, b,
                      Tile{i0, std::min(a.rows(), i0 + kTileRowsA), j0,
                           std::min(b.rows(), j0 + kTileRowsB)},
                      c, b.rows());
}

void
PackedGemmKernel::gemm_nn(const GemmPlan& plan, const PackedOperand& a,
                          std::span<const NnBlockRef> b, std::size_t ncols,
                          float* c) const
{
    check_nn(plan, a, b, ncols);
    for (std::size_t i0 = 0; i0 < a.rows(); i0 += kTileRowsA)
        for (std::size_t j0 = 0; j0 < ncols; j0 += kTileRowsB)
            gemm_nn_tile(plan, a, b,
                         Tile{i0, std::min(a.rows(), i0 + kTileRowsA), j0,
                              std::min(ncols, j0 + kTileRowsB)},
                         c, ncols);
}

tensor::Tensor
dequantize(const PackedOperand& op)
{
    MX_CHECK_ARG(op.valid(), "gemm::dequantize: invalid operand");
    const core::kernels::QuantPlan& p = op.plan();
    tensor::Tensor t({static_cast<std::int64_t>(op.rows()),
                      static_cast<std::int64_t>(op.cols())});
    for (std::size_t r = 0; r < op.rows(); ++r) {
        const std::int16_t* mant = op.row_mantissa(r);
        const std::uint8_t* tau = op.row_tau(r);
        const std::int16_t* exp = op.row_exp(r);
        float* out = t.data() + r * op.cols();
        for (std::size_t k = 0; k < op.cols(); ++k) {
            const int e = exp[k / static_cast<std::size_t>(p.k1)] -
                          tau[k / static_cast<std::size_t>(p.k2)] -
                          (p.m - 1);
            out[k] = static_cast<float>(
                static_cast<double>(mant[k]) *
                core::kernels::detail::pow2_double(e));
        }
    }
    return t;
}

const PackedGemmKernel&
scalar_gemm_kernel()
{
    static const ScalarGemmKernel kernel;
    return kernel;
}

const PackedGemmKernel&
active_gemm_kernel()
{
    // Slaved to the quantize-kernel dispatch: same CPU probe, same
    // MX_FORCE_SCALAR / MX_FORCE_AVX2 overrides, same set_simd_level
    // test hook — the quantize and GEMM legs can never mix tiers.
    switch (core::kernels::active_simd_level()) {
      case core::kernels::SimdLevel::Avx512:
        if (const PackedGemmKernel* k = avx512_gemm_kernel())
            return *k;
        [[fallthrough]];
      case core::kernels::SimdLevel::Avx2:
        if (const PackedGemmKernel* k = avx2_gemm_kernel())
            return *k;
        [[fallthrough]];
      case core::kernels::SimdLevel::Scalar:
        break;
    }
    return scalar_gemm_kernel();
}

std::size_t
gemm_threads()
{
    long t = g_gemm_threads.load(std::memory_order_acquire);
    if (t < 0) {
        // Benign race: concurrent first calls resolve identically.
        t = static_cast<long>(core::env::size_knob(
            "MX_GEMM_THREADS", core::ThreadPool::default_thread_count(),
            /*min_value=*/1));
        g_gemm_threads.store(t, std::memory_order_release);
    }
    return static_cast<std::size_t>(t);
}

void
set_gemm_threads(std::size_t threads)
{
    g_gemm_threads.store(threads == 0 ? -1 : static_cast<long>(threads),
                         std::memory_order_release);
}

tensor::Tensor
matmul_nt_packed(const tensor::Tensor& x,
                 const core::kernels::QuantPlan& a_plan,
                 const PackedOperand& w, core::RoundingMode rounding)
{
    MX_CHECK_ARG(x.ndim() == 2 && w.valid() &&
                 x.dim(1) == static_cast<std::int64_t>(w.cols()),
                 "matmul_nt_packed: activation shape "
                     << x.shape_string() << " does not match packed ["
                     << w.rows() << " x " << w.cols() << "]");
    const GemmPlan plan = make_gemm_plan(a_plan, w.plan());
    obs::Span span("gemm.nt_packed");
    core::Rounder rounder(rounding);
    const PackedOperand a = PackedOperand::quantize(
        a_plan, x.data(), static_cast<std::size_t>(x.dim(0)), w.cols(),
        rounder);
    annotate_gemm_span(span, plan, a.rows(), w.rows(), w.cols(),
                       a.memory_bytes() + w.memory_bytes());
    tensor::Tensor c(
        {x.dim(0), static_cast<std::int64_t>(w.rows())});
    run_gemm(active_gemm_kernel(), plan, a, w, c.data());
    count_call();
    return c;
}

tensor::Tensor
matmul_nt_packed2(const tensor::Tensor& x,
                  const core::kernels::QuantPlan& a_plan,
                  const tensor::Tensor& y,
                  const core::kernels::QuantPlan& b_plan,
                  core::RoundingMode rounding)
{
    MX_CHECK_ARG(x.ndim() == 2 && y.ndim() == 2 && x.dim(1) == y.dim(1),
                 "matmul_nt_packed2: " << x.shape_string() << " x "
                                       << y.shape_string());
    const GemmPlan plan = make_gemm_plan(a_plan, b_plan);
    core::Rounder rounder(rounding);
    const PackedOperand a = PackedOperand::quantize(
        a_plan, x.data(), static_cast<std::size_t>(x.dim(0)),
        static_cast<std::size_t>(x.dim(1)), rounder);
    const PackedOperand b = PackedOperand::quantize(
        b_plan, y.data(), static_cast<std::size_t>(y.dim(0)),
        static_cast<std::size_t>(y.dim(1)), rounder);
    return matmul_nt_prequant(plan, a, b);
}

tensor::Tensor
matmul_nt_prequant(const GemmPlan& plan, const PackedOperand& a,
                   const PackedOperand& b)
{
    obs::Span span("gemm.nt_prequant");
    annotate_gemm_span(span, plan, a.rows(), b.rows(), a.cols(),
                       a.memory_bytes() + b.memory_bytes());
    tensor::Tensor c({static_cast<std::int64_t>(a.rows()),
                      static_cast<std::int64_t>(b.rows())});
    run_gemm(active_gemm_kernel(), plan, a, b, c.data());
    count_call();
    return c;
}

tensor::Tensor
matmul_nn_packed(const GemmPlan& plan, const PackedOperand& a,
                 std::span<const NnBlockRef> b, std::size_t ncols)
{
    obs::Span span("gemm.nn_packed");
    if (obs::trace_enabled()) {
        std::size_t b_bytes = 0;
        for (const NnBlockRef& ref : b)
            b_bytes += ref.op->memory_bytes();
        annotate_gemm_span(span, plan, a.rows(), ncols, a.cols(),
                           a.memory_bytes() + b_bytes);
    }
    tensor::Tensor c({static_cast<std::int64_t>(a.rows()),
                      static_cast<std::int64_t>(ncols)});
    run_gemm_nn(active_gemm_kernel(), plan, a, b, ncols, c.data());
    count_call();
    return c;
}

} // namespace gemm
} // namespace mx
