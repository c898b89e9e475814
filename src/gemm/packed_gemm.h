#pragma once

/**
 * @file
 * mx_gemm: packed-domain matrix multiplication (the Figure 6 pipeline),
 * cache-blocked and multithreaded.
 *
 * Executes C = A * B^T directly on quantized MX/BFP operands — integer
 * mantissa dot products per k2 sub-block, one tau shift per sub-block,
 * one shared-exponent alignment per k1-block pair, FP32 accumulation
 * across blocks — without dequantizing either operand to FP32.  The
 * contract every kernel implementation must honour bit-for-bit, per
 * output element C[i,j], in ascending k1-block order:
 *
 *   acc_f32 = 0
 *   for each k1-block pair (Ea, Eb):
 *     blk_i64 = 0
 *     for each pairwise sub-step of g elements (taua, taub constant):
 *       S     = sum_k Ma_k * Mb_k                    // integer dot
 *       blk  += S << (budget - taua - taub)          // tau alignment
 *     acc_f32 += float(double(blk) *
 *                      2^(Ea + Eb - exp_bias))       // exp alignment
 *   C[i,j] = acc_f32
 *
 * Every integer step is exact (the GemmPlan proves int64 headroom), so
 * any implementation that reorders the integer work — AVX2 madd lanes,
 * AVX-512 VNNI dot-accumulate lanes, per-sub-block int32 partial sums,
 * mantissas pre-shifted per operand, column-transposing reduction
 * trees — produces the same block integer, and the per-block
 * double->float rounding pins the FP result.  The FP32 accumulation
 * across blocks is NOT reorderable, so every execution shape below
 * preserves ascending block order per element:
 *
 *  - Cache blocking.  The whole-GEMM drivers walk C in (mc x nc) output
 *    tiles (kTileRowsA x kTileRowsB); inside a tile the kernels loop
 *    kc-sized k1-block panels (kPanelBlocks) outermost, accumulating
 *    each panel's contribution into C.  Panels ascend, and FP32
 *    loads/stores of intermediate sums are exact, so the per-element
 *    addition sequence is identical to one streaming pass.  A SIMD
 *    column group's B rows (8 on AVX2, 16 on AVX-512) stay resident in
 *    L1 across a panel, and the A row's panel slice is reused across
 *    every B row in the tile.
 *  - Multithreading.  matmul_nt_packed{,2}, matmul_nt_prequant and
 *    matmul_nn_packed split the FIXED tile grid into contiguous shares
 *    on core::ThreadPool::shared(): min(gemm_threads(), tiles,
 *    MACs / kMinMacsPerShare) of them, and a GEMM below two shares
 *    runs inline on its caller.  The grid never depends on the share
 *    count, and each C element is computed wholly inside one tile by
 *    one thread — all integer work plus its own FP32 block chain — so
 *    results are bit-identical for any share count or assignment.
 *
 * Scalar, AVX2 and AVX-512 kernels are therefore bit-identical by
 * construction, across any MX_GEMM_THREADS, and
 * tests/test_gemm.cpp asserts it across formats, shapes, ragged
 * widths, thread counts, and dispatch legs.
 *
 * Kernel selection rides core/kernels/dispatch's single SIMD level:
 * AVX-512 (VNNI dot products, 2 k1 blocks per 512-bit lane group) when
 * the host reports avx512f/bw/vnni, AVX2 otherwise, scalar when forced
 * (same MX_FORCE_SCALAR / MX_FORCE_AVX2 overrides, same
 * set_simd_level test hook).
 *
 * Routing: a frozen layer runs this pipeline whenever its weight pairs
 * with its activation format (nn::FrozenTensor::pairs_with), on every
 * kernel, so one artifact serves the same bits on every host.  Freeze
 * and load keep no FP32 grid for such a layer (nn/frozen.h).
 *
 * Knob:
 *   MX_GEMM_THREADS=N split a GEMM into at most N shares (default: the
 *                     shared pool size; 1 = serial; 0/negative clamp
 *                     to 1).  Small GEMMs run inline at any N.
 */

#include <cstdint>
#include <span>

#include "gemm/gemm_plan.h"
#include "gemm/packed_operand.h"
#include "tensor/tensor.h"

namespace mx {
namespace gemm {

/**
 * One k1-block chunk of a non-transposed right-hand operand (the NN
 * kernel leg).  @p op is a packed operand whose ROWS run along the
 * GEMM's output columns and whose COLS are the chunk's contraction
 * slice (at most one k1 block wide); @p row_off selects the first of
 * the ncols rows that participate (a d_model-row V slab serves every
 * head through its own row_off).  Chunk k covers contraction elements
 * [k * k1, k * k1 + op->cols()), so the chunk widths must tile the A
 * operand's cols exactly.
 */
struct NnBlockRef
{
    const PackedOperand* op = nullptr;
    std::size_t row_off = 0;
};

/** Half-open output tile [i0, i1) x [j0, j1) of a blocked GEMM. */
struct Tile
{
    std::size_t i0 = 0, i1 = 0; ///< A-row (C-row) range.
    std::size_t j0 = 0, j1 = 0; ///< B-row / NN-column (C-col) range.
};

/** Output-tile height: A rows per tile (the mc blocking factor). */
inline constexpr std::size_t kTileRowsA = 64;

/** Output-tile width: B rows / NN cols per tile (the nc factor).  Also
 *  the unit a threaded GEMM's shares are cut from — large enough that
 *  a B panel amortizes. */
inline constexpr std::size_t kTileRowsB = 32;

/** k1 blocks per kc panel inside a tile: the contraction slice held
 *  hot while the microkernel sweeps the tile (k1 = 16, int16 mantissas
 *  => 1 KiB of mantissa stream per operand row per panel). */
inline constexpr std::size_t kPanelBlocks = 32;

/**
 * The fewest MACs one share of a threaded GEMM carries; a GEMM below
 * two shares' worth runs inline.  From bench/gemm_packed's MAC floor
 * ladder (MX9, K = 256, 4 AVX-512 vCPUs, GCC 12): splitting costs
 * ~13-15 us of wake and join (N = 256, M = 1 and 4), ~0.3 M MACs at
 * one lane's ~20 GMAC/s.  1 M MACs keeps that under a quarter of a
 * share's work; the shipped rule then reads 1.00x of serial below the
 * floor and 1.47-3.6x above it.
 */
inline constexpr std::size_t kMinMacsPerShare = std::size_t{1} << 20;

/**
 * The execute side.  Kernels implement the TILE entry points; the
 * whole-GEMM gemm()/gemm_nn() convenience wrappers validate and walk
 * the tile grid serially (the threaded walk lives in the matmul_*
 * drivers).  Tile calls assume the driver already validated the
 * operand pair / chunk structure — they are the hot path and run once
 * per tile per thread.
 */
class PackedGemmKernel
{
  public:
    virtual ~PackedGemmKernel() = default;

    /** Implementation name for reports and tests
     *  ("scalar", "avx2", "avx512"). */
    virtual const char* name() const = 0;

    /**
     * Compute the C tile @p t of C[a.rows x b.rows] = A * B^T over the
     * FULL contraction (kc panels are internal).  @p ldc is C's row
     * stride (b.rows for a whole GEMM).  Must write every element of
     * the tile exactly per the file contract, and nothing outside it.
     * Tiles come from the drivers' grid: at most kTileRowsB wide.
     */
    virtual void gemm_tile(const GemmPlan& plan, const PackedOperand& a,
                           const PackedOperand& b, const Tile& t,
                           float* c, std::size_t ldc) const = 0;

    /**
     * The NN-leg tile: C[a.rows x ncols] = A * B with B given as one
     * packed chunk per k1-block (B's storage rows run along C's
     * columns — how P V consumes a native MX V cache).  @p t.j0/j1
     * range over the ncols output columns; @p ldc is C's row stride.
     */
    virtual void gemm_nn_tile(const GemmPlan& plan,
                              const PackedOperand& a,
                              std::span<const NnBlockRef> b,
                              const Tile& t, float* c,
                              std::size_t ldc) const = 0;

    /**
     * C[a.rows x b.rows] = A * B^T in the packed domain: validate, then
     * walk the tile grid serially.  @p a and @p b must share the
     * contraction width (a.cols == b.cols) and match @p plan's operand
     * plans.
     */
    void gemm(const GemmPlan& plan, const PackedOperand& a,
              const PackedOperand& b, float* c) const;

    /** Whole-GEMM NN leg: validate, then walk the tile grid serially.
     *  Chunk widths must tile a.cols() exactly (only the last chunk may
     *  be short). */
    void gemm_nn(const GemmPlan& plan, const PackedOperand& a,
                 std::span<const NnBlockRef> b, std::size_t ncols,
                 float* c) const;
};

/** The portable reference implementation (always available). */
const PackedGemmKernel& scalar_gemm_kernel();

/** The AVX2 implementation, or nullptr when the build lacks AVX2. */
const PackedGemmKernel* avx2_gemm_kernel();

/** The AVX-512/VNNI implementation, or nullptr when the build lacks
 *  the AVX-512 flags. */
const PackedGemmKernel* avx512_gemm_kernel();

/**
 * The kernel the frozen serving path routes through, slaved to
 * core/kernels/dispatch's SIMD level (CPU probe, MX_FORCE_SCALAR,
 * MX_FORCE_AVX2, set_simd_level test hook): AVX-512 at
 * SimdLevel::Avx512, AVX2 at Avx2, scalar otherwise.
 */
const PackedGemmKernel& active_gemm_kernel();

/**
 * The most shares the matmul_* drivers split one GEMM into (each share
 * also needs kMinMacsPerShare MACs).  Resolved once from
 * MX_GEMM_THREADS (default: the shared pool's lane count);
 * set_gemm_threads overrides at runtime.  A count above the pool's
 * lanes still makes that many shares; the lanes take turns on them.
 */
std::size_t gemm_threads();

/** Runtime override of gemm_threads(); 0 re-resolves from the
 *  environment on the next call (test hook + embedder API). */
void set_gemm_threads(std::size_t threads);

/**
 * C = X * W^T with X[M, K] float activations and W[N, K] packed:
 * quantizes X on the fly into the execution view (the same
 * quantization the fake-quant path applies) and runs the active
 * packed kernel, split into shares as the file comment says.  Never materializes a dequantized FP32 copy of W.
 *
 * @p a_plan is the activation-side plan (may differ from w.plan() —
 * Table IV (w, a) format splits); gemm_compatible(a_plan, w.plan())
 * must hold.
 */
tensor::Tensor matmul_nt_packed(const tensor::Tensor& x,
                                const core::kernels::QuantPlan& a_plan,
                                const PackedOperand& w,
                                core::RoundingMode rounding =
                                    core::RoundingMode::NearestEven);

/**
 * Activation-activation C = X * Y^T: both operands are float matrices
 * quantized on the fly (X[M, K] under @p a_plan, Y[N, K] under
 * @p b_plan) and contracted by the active packed kernel.  This is the
 * Q K^T leg of packed attention — and the P V leg of the fixed-window
 * forward, where V is transposed before quantization so its rows run
 * along the reduction.
 */
tensor::Tensor matmul_nt_packed2(const tensor::Tensor& x,
                                 const core::kernels::QuantPlan& a_plan,
                                 const tensor::Tensor& y,
                                 const core::kernels::QuantPlan& b_plan,
                                 core::RoundingMode rounding =
                                     core::RoundingMode::NearestEven);

/**
 * C = A * B^T with BOTH operands already in the execution view — the
 * quantize-once handoff: a caller that feeds one activation matrix to
 * several frozen layers (attention's wq/wk/wv share the post-LN input)
 * quantizes it once and reuses the view.  Bit-identical to
 * matmul_nt_packed on the same floats, because quantization is a pure
 * per-row function of the input.
 */
tensor::Tensor matmul_nt_prequant(const GemmPlan& plan,
                                  const PackedOperand& a,
                                  const PackedOperand& b);

/**
 * C[a.rows x ncols] = A * B on the NN leg (see
 * PackedGemmKernel::gemm_nn): @p b holds one packed chunk per k1-block
 * of the contraction, with chunk widths tiling a.cols() exactly.
 */
tensor::Tensor matmul_nn_packed(const GemmPlan& plan,
                                const PackedOperand& a,
                                std::span<const NnBlockRef> b,
                                std::size_t ncols);

/**
 * The operand's grid values — the exact floats the fake-quant path's
 * quantize_rows would produce for the same input (the block codec's
 * decode(encode(x)) == fake_quantize(x) property).  This is the
 * bit-identical FP32 fallback of every packed activation path: grids
 * assembled from stored encodings never re-quantize, so they cannot
 * drift from the reference even where re-quantization would not be
 * idempotent.
 */
tensor::Tensor dequantize(const PackedOperand& op);

namespace detail {

/**
 * True when (plan) fits the SIMD fast path shared by the AVX2 and
 * AVX-512 kernels:
 *  - the MX family's k1 = 16, k2 = 2 on both sides;
 *  - enough int32 headroom to sum a block's 8 shifted sub-sums (products
 *    reach 2^(ma+mb+1) per pair, << budget, x8 sub-blocks).  The bound
 *    is on the sum of magnitudes, so every subset of the sub-sums — any
 *    node of the kernels' reduction trees — is exact in int32 too;
 *  - each side's mantissa shifted by up to its beta still fits int16
 *    (m + beta <= 15), so a kernel may align mantissas before the
 *    multiply instead of shifting the products;
 *  - every combined block exponent e = Ea + Eb - exp_bias the two
 *    operands can hold lies in [-1022, 1023], so the kernels form 2^e by
 *    bit-casting (e + 1023) << 52, which equals pow2_double(e) there.
 *    Each operand's d1-bit exponent field decodes to
 *    [-e_max, 2^d1 - 1 - e_max], a superset of what quantize emits.
 * Proven once per plan from the QuantPlans; no kernel checks a block.
 */
inline bool
simd_fast_path(const GemmPlan& plan)
{
    const int e_lo = -plan.a.e_max - plan.b.e_max - plan.exp_bias;
    const int e_hi = ((1 << plan.a.d1) - 1 - plan.a.e_max) +
                     ((1 << plan.b.d1) - 1 - plan.b.e_max) - plan.exp_bias;
    return plan.a.k1 == 16 && plan.a.k2 == 2 && plan.b.k2 == 2 &&
           plan.a.d2 > 0 && plan.b.d2 > 0 &&
           plan.a.m + plan.b.m + 1 + plan.budget + 3 <= 31 &&
           plan.a.m + plan.a.beta <= 15 && plan.b.m + plan.b.beta <= 15 &&
           e_lo >= -1022 && e_hi <= 1023;
}

} // namespace detail

} // namespace gemm
} // namespace mx
