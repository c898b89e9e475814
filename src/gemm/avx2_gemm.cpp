/**
 * @file
 * AVX2 PackedGemmKernel, laid out like the paper's Figure 6 unit: an
 * integer reduction per k1 block, then one exponent-add and
 * FP32-accumulate stage — both run across 8 output columns at once.
 * Bit-identical to the scalar reference by construction: each output
 * column still computes the exact block integer, then
 * float(double(blk) * 2^(Ea + Eb - exp_bias)), then one FP32 add per
 * block in ascending block order; a vector lane is that same sequence
 * of IEEE operations.
 *
 * Fast path (detail::simd_fast_path — the MX family: k1 = 16, k2 = 2 on
 * both sides, m <= 7 — MX9/MX6/MX4 and their mx_custom neighbours):
 *   - Aligned mantissas.  Figure 6's per-sub-block shifter is split
 *     between the operands: each mantissa pair is pre-shifted by its own
 *     beta - tau (a multiply by 2^s — AVX2 has no 16-bit variable
 *     shift), so a product already carries budget - taua - taub.  A
 *     column group's B panel is aligned once per (tile, kc panel) into
 *     8 KiB of tile-local scratch and reused by every A row; A's block
 *     is aligned once per row and reused by the 8 columns.
 *   - Column-group reduction.  One _mm256_madd_epi16 per column yields
 *     the block's 8 aligned sub-block dots; the group's 8 vectors reduce
 *     as a transposing tree (unpack epi32, unpack epi64, permute2x128
 *     add), leaving one vector whose lane j holds column j's block
 *     integer.  The tree only sums subsets of a block's 8 shifted
 *     sub-sums, which simd_fast_path proves fit int32, so every partial
 *     sum is exact.
 *   - Lane-wise epilogue.  Per block: the exponent add, cvtepi32_pd, a
 *     multiply by 2^e bit-cast from (e + 1023) << 52, cvtpd_ps, and
 *     add_ps into an 8-float accumulator.  simd_fast_path proves every e
 *     the two operands can hold lies in [-1022, 1023], where the
 *     bit-cast equals pow2_double — no per-block range check runs.
 *   - B-side exponents.  Both legs transpose the tile's B exponents
 *     (pre-biased) into tile-local scratch once per (tile, kc panel), so
 *     every A row reuses one vector load per block.
 *   - Ragged shapes.  A column group narrower than 8 runs the same code
 *     with lanes clamped to the last valid column and a masked C
 *     load/store.  A ragged contraction tail block is zero-padded before
 *     alignment (AVX2 has no int16 masked load); padded lanes contribute
 *     nothing.
 *
 * Plans off the fast path (non-16 k1, d2 = 0 sides, wide mantissas,
 * exponent fields too wide for the bit-cast) delegate whole tiles to
 * the scalar tile kernel.
 *
 * This translation unit is the only one in mx_gemm compiled with
 * -mavx2; callers reach it through gemm::active_gemm_kernel(), which is
 * slaved to the core/kernels runtime CPU dispatch.
 */

#include "gemm/packed_gemm.h"

#if defined(MX_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>

#include "core/check.h"

namespace mx {
namespace gemm {

namespace {

/** Output columns per vector group: one int32 / FP32 lane each. */
constexpr std::size_t kGroup = 8;

/** IEEE double exponent bias: 2^e is the bit pattern (e + 1023) << 52. */
constexpr int kDoubleBias = 1023;

static_assert(kTileRowsB % kGroup == 0, "a tile holds whole column groups");

/** A block's 16 int16 mantissas. */
inline __m256i
load_mant(const std::int16_t* p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

/** A block's 8 tau bytes, in the low half. */
inline __m128i
load_tau(const std::uint8_t* p)
{
    return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}

/**
 * Pre-align a block's 16 mantissas: each k2 = 2 element pair shifts left
 * by beta - tau of its sub-block — one operand's half of Figure 6's
 * shifter, since (Ma << sa) * (Mb << sb) = (Ma * Mb) << (sa + sb) with
 * sa + sb = budget - taua - taub.  AVX2 has no 16-bit variable shift,
 * so the shift is a multiply by 2^s; simd_fast_path proves m + beta <=
 * 15, so the aligned mantissa fits int16 and mullo's low half is exact.
 */
inline __m256i
align_mant(__m256i mant, __m128i tau, __m128i vbeta)
{
    // 2^(beta - tau) per sub-block in its int32 lane, copied into both
    // int16 halves (the sub-block's two elements).
    const __m256i p = _mm256_sllv_epi32(
        _mm256_set1_epi32(1), _mm256_cvtepu8_epi32(_mm_sub_epi8(vbeta, tau)));
    return _mm256_mullo_epi16(mant,
                              _mm256_or_si256(p, _mm256_slli_epi32(p, 16)));
}

/** A block of @p n <= 16 elements, aligned; a ragged block is
 *  zero-padded first (AVX2 has no int16 masked load). */
inline __m256i
aligned_block(const std::int16_t* m, const std::uint8_t* tau, std::size_t n,
              __m128i vbeta)
{
    if (n == 16)
        return align_mant(load_mant(m), load_tau(tau), vbeta);
    alignas(32) std::int16_t mp[16] = {};
    alignas(8) std::uint8_t tp[8] = {};
    std::copy_n(m, n, mp);
    std::copy_n(tau, (n + 1) / 2, tp);
    return align_mant(load_mant(mp), load_tau(tp), vbeta);
}

/** First reduction level, per 128-bit lane: [a0+a2, b0+b2, a1+a3,
 *  b1+b3]. */
inline __m256i
fold2(__m256i a, __m256i b)
{
    return _mm256_add_epi32(_mm256_unpacklo_epi32(a, b),
                            _mm256_unpackhi_epi32(a, b));
}

/** Second level, per 128-bit lane: the 4-lane sums of the four vectors
 *  that fold2 paired into @p ab and @p cd, in order. */
inline __m256i
fold4(__m256i ab, __m256i cd)
{
    return _mm256_add_epi32(_mm256_unpacklo_epi64(ab, cd),
                            _mm256_unpackhi_epi64(ab, cd));
}

/**
 * One block of an 8-column group: lane j of the result is column j's
 * block integer.  @p ma is A's aligned block; @p bcols[j] is column j's.
 */
inline __m256i
group_ints(__m256i ma, const __m256i* bcols)
{
    // Quad q, 128-bit lane l: columns 4q..4q+3's sums of sub-sums
    // 4l..4l+3.
    __m256i quad[2];
    for (std::size_t q = 0; q < 2; ++q)
        quad[q] = fold4(fold2(_mm256_madd_epi16(ma, bcols[4 * q]),
                              _mm256_madd_epi16(ma, bcols[4 * q + 1])),
                        fold2(_mm256_madd_epi16(ma, bcols[4 * q + 2]),
                              _mm256_madd_epi16(ma, bcols[4 * q + 3])));
    return _mm256_add_epi32(
        _mm256_permute2x128_si256(quad[0], quad[1], 0x20),
        _mm256_permute2x128_si256(quad[0], quad[1], 0x31));
}

/**
 * acc += float(double(blk) * 2^e), lane by lane — the scalar epilogue's
 * IEEE sequence.  @p ebiased holds e + 1023, which simd_fast_path keeps
 * in [1, 2046], so 2^e is an exponent-field bit-cast.
 */
inline __m256
accumulate(__m256 acc, __m256i blk, __m256i ebiased)
{
    const auto half = [](__m128i b, __m128i e) {
        const __m256d scale = _mm256_castsi256_pd(
            _mm256_slli_epi64(_mm256_cvtepi32_epi64(e), 52));
        return _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_cvtepi32_pd(b), scale));
    };
    const __m128 lo = half(_mm256_castsi256_si128(blk),
                           _mm256_castsi256_si128(ebiased));
    const __m128 hi = half(_mm256_extracti128_si256(blk, 1),
                           _mm256_extracti128_si256(ebiased, 1));
    return _mm256_add_ps(
        acc, _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1));
}

/** All-ones in the int32 lanes below @p n (the maskload/maskstore
 *  form of a ragged column group). */
inline __m256i
lane_mask(std::size_t n)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** One B block as the tile loop reads it: column col's block blk. */
struct BBlock
{
    const std::int16_t* mant; ///< The block's mantissas.
    const std::uint8_t* tau;  ///< The block's sub-block shifts.
    int exp;                  ///< The block's shared exponent.
};

/**
 * The tile loop both legs share: C tile @p t over blocks [0, nblocks),
 * with @p b_block(col, blk) returning tile column col's block blk (col <
 * the tile width).  Block blk holds min(16, a.cols() - 16 blk) elements
 * on both sides — an NN leg's chunk widths tile a.cols() exactly.
 */
template <typename BBlockOf>
void
run_tile(const GemmPlan& plan, const PackedOperand& a, std::size_t nblocks,
         const Tile& t, float* c, std::size_t ldc, const BBlockOf& b_block)
{
    const std::size_t ncols = t.j1 - t.j0;
    MX_CHECK(ncols <= kTileRowsB,
             "avx2 gemm tile: tile is " << ncols << " columns wide");
    const std::size_t cols = a.cols();
    const std::size_t width = (ncols + kGroup - 1) / kGroup * kGroup;
    const __m128i abeta = _mm_set1_epi8(static_cast<char>(plan.a.beta));
    const __m128i bbeta = _mm_set1_epi8(static_cast<char>(plan.b.beta));
    const auto block_len = [&](std::size_t blk) {
        return std::min<std::size_t>(16, cols - blk * 16);
    };
    // Eb + 1023 - exp_bias per (panel block, tile column), columns past
    // the tile repeating its last, so a block's group exponents are one
    // aligned load.
    alignas(32) std::int32_t bexp[kPanelBlocks][kTileRowsB];
    // One column group's aligned B panel: [block][column].
    __m256i bal[kPanelBlocks][kGroup];

    for (std::size_t p0 = 0; p0 < nblocks; p0 += kPanelBlocks) {
        const std::size_t p1 = std::min(nblocks, p0 + kPanelBlocks);
        const bool first = p0 == 0;
        for (std::size_t jj = 0; jj < width; ++jj)
            for (std::size_t blk = p0; blk < p1; ++blk)
                bexp[blk - p0][jj] =
                    b_block(std::min(jj, ncols - 1), blk).exp +
                    kDoubleBias - plan.exp_bias;
        // Column group outermost: its aligned B panel (8 KiB) is built
        // once and stays in L1 across the tile's A rows.
        for (std::size_t g = 0; g < width; g += kGroup) {
            const std::size_t jn = std::min(kGroup, ncols - g);
            const __m256i cmask = lane_mask(jn);
            for (std::size_t jj = 0; jj < kGroup; ++jj)
                for (std::size_t blk = p0; blk < p1; ++blk) {
                    const BBlock bb = b_block(g + std::min(jj, jn - 1), blk);
                    bal[blk - p0][jj] =
                        aligned_block(bb.mant, bb.tau, block_len(blk), bbeta);
                }
            for (std::size_t i = t.i0; i < t.i1; ++i) {
                const std::int16_t* am = a.row_mantissa(i);
                const std::uint8_t* atau = a.row_tau(i);
                const std::int16_t* aexp = a.row_exp(i);
                float* cg = c + i * ldc + t.j0 + g;
                __m256 acc = first ? _mm256_setzero_ps()
                                   : _mm256_maskload_ps(cg, cmask);
                for (std::size_t blk = p0; blk < p1; ++blk) {
                    const __m256i ma = aligned_block(
                        am + blk * 16, atau + blk * 8, block_len(blk), abeta);
                    const __m256i e = _mm256_add_epi32(
                        _mm256_set1_epi32(aexp[blk]),
                        _mm256_load_si256(reinterpret_cast<const __m256i*>(
                            bexp[blk - p0] + g)));
                    acc = accumulate(acc, group_ints(ma, bal[blk - p0]), e);
                }
                _mm256_maskstore_ps(cg, cmask, acc);
            }
        }
    }
}

class Avx2GemmKernel final : public PackedGemmKernel
{
  public:
    const char* name() const override { return "avx2"; }

    void
    gemm_tile(const GemmPlan& plan, const PackedOperand& a,
              const PackedOperand& b, const Tile& t, float* c,
              std::size_t ldc) const override
    {
        if (!detail::simd_fast_path(plan)) {
            scalar_gemm_kernel().gemm_tile(plan, a, b, t, c, ldc);
            return;
        }
        run_tile(plan, a, plan.blocks_per_row(a.cols()), t, c, ldc,
                 [&](std::size_t col, std::size_t blk) {
                     const std::size_t r = t.j0 + col;
                     return BBlock{b.row_mantissa(r) + blk * 16,
                                   b.row_tau(r) + blk * 8,
                                   b.row_exp(r)[blk]};
                 });
    }

    void
    gemm_nn_tile(const GemmPlan& plan, const PackedOperand& a,
                 std::span<const NnBlockRef> b, const Tile& t, float* c,
                 std::size_t ldc) const override
    {
        if (!detail::simd_fast_path(plan)) {
            scalar_gemm_kernel().gemm_nn_tile(plan, a, b, t, c, ldc);
            return;
        }
        run_tile(plan, a, b.size(), t, c, ldc,
                 [&](std::size_t col, std::size_t k) {
                     const PackedOperand& ch = *b[k].op;
                     const std::size_t r = b[k].row_off + t.j0 + col;
                     return BBlock{ch.row_mantissa(r), ch.row_tau(r),
                                   ch.row_exp(r)[0]};
                 });
    }
};

} // namespace

const PackedGemmKernel*
avx2_gemm_kernel()
{
    static const Avx2GemmKernel kernel;
    return &kernel;
}

} // namespace gemm
} // namespace mx

#else // !MX_HAVE_AVX2

namespace mx {
namespace gemm {

const PackedGemmKernel*
avx2_gemm_kernel()
{
    return nullptr;
}

} // namespace gemm
} // namespace mx

#endif // MX_HAVE_AVX2
