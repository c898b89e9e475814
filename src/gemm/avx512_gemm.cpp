/**
 * @file
 * AVX-512/VNNI PackedGemmKernel, laid out like the paper's Figure 6
 * unit: an integer reduction per k1 block, then one exponent-add and
 * FP32-accumulate stage — both run across 16 output columns at once.
 * Bit-identical to the scalar and AVX2 kernels by construction: each
 * output column still computes the exact block integer, then
 * float(double(blk) * 2^(Ea + Eb - exp_bias)), then one FP32 add per
 * block in ascending block order; a vector lane is that same sequence
 * of IEEE operations.
 *
 * Fast path (detail::simd_fast_path, shared with AVX2):
 *   - Aligned mantissas.  Figure 6's per-sub-block shifter is split
 *     between the operands: _mm512_sllv_epi16 pre-shifts each mantissa
 *     pair by its own beta - tau, so a product already carries
 *     budget - taua - taub.  A column group's B panel is aligned once
 *     per (tile, kc panel) into 16 KiB of tile-local scratch and reused
 *     by every A row; A's block pair is aligned once per row and reused
 *     by the 16 columns.
 *   - Column-group reduction.  One _mm512_dpwssd_epi32 per column
 *     against a zero accumulator (the 512-bit madd) yields 16 aligned
 *     k2-sub-block dots: one column's block PAIR (NT leg), or one block
 *     of two adjacent columns (NN leg).  The group's vectors stay in
 *     registers and reduce as a transposing tree (unpack epi32, unpack
 *     epi64, shuffle_i32x4 adds), leaving one vector whose lane j holds
 *     column j's block integer — on the NT leg one such vector per block
 *     of the pair.  The tree only sums subsets of a block's 8 shifted
 *     sub-sums, which simd_fast_path proves fit int32, so every partial
 *     sum is exact.  The NN leg keeps its own layout because its B rows
 *     are single blocks: two consecutive chunk rows are one 64-byte
 *     load, which keeps attention's M = 1 P·V GEMMs cheap.
 *   - Lane-wise epilogue.  Per block: the exponent add, cvtepi32_pd,
 *     a multiply by 2^e bit-cast from (e + 1023) << 52, cvtpd_ps, and
 *     add_ps into a 16-float accumulator.  simd_fast_path proves every
 *     e the two operands can hold lies in [-1022, 1023], where the
 *     bit-cast equals pow2_double — no per-block range check runs.
 *   - B-side exponents.  The NT leg transposes the tile's B exponents
 *     (pre-biased) into tile-local scratch once per (tile, kc panel), so
 *     every A row reuses one vector load per block.  An NN chunk's
 *     consecutive rows already hold contiguous single-block exponents,
 *     so one load covers a column group.
 *   - Ragged shapes.  A column group narrower than 16 (N % 16, e.g. Q·Kᵀ
 *     at N = n tokens) runs the same code: NT lanes clamp to the last
 *     valid B row, NN column loads are masked, and the C load/store is
 *     masked.  A ragged contraction tail block uses masked mantissa and
 *     tau loads (masked lanes read as zero and contribute nothing), so
 *     it too runs the vector path.
 *
 * Plans off the fast path (non-16 k1, d2 = 0 sides, wide mantissas,
 * exponent fields too wide for the bit-cast) delegate whole tiles to
 * the scalar tile kernel.
 *
 * This translation unit is the only one in mx_gemm compiled with
 * -mavx512f/-mavx512bw/-mavx512vnni; callers reach it through
 * gemm::active_gemm_kernel(), which is slaved to the core/kernels
 * runtime CPU dispatch (the probe requires avx512f, avx512bw and
 * avx512vnni before this kernel is ever selected).
 */

#include "gemm/packed_gemm.h"

#if defined(MX_HAVE_AVX512)

#include <immintrin.h>

#include <algorithm>

#include "core/check.h"

namespace mx {
namespace gemm {

namespace {

/** Output columns per vector group: one int32 / FP32 lane each. */
constexpr std::size_t kGroup = 16;

/** IEEE double exponent bias: 2^e is the bit pattern (e + 1023) << 52. */
constexpr int kDoubleBias = 1023;

static_assert(kPanelBlocks % 2 == 0,
              "NT block pairs must not straddle a panel");
static_assert(kTileRowsB % kGroup == 0, "a tile holds whole column groups");

/** The low @p n of 32 int16 lanes. */
inline __mmask32
lanes32(std::size_t n)
{
    return n >= 32 ? ~__mmask32{0}
                   : static_cast<__mmask32>((1u << n) - 1u);
}

/** The low @p n of 64 byte lanes (n <= 16 here). */
inline __mmask64
lanes64(std::size_t n)
{
    return static_cast<__mmask64>((1ull << n) - 1ull);
}

/** The low @p n of 32 int16 lanes at @p p; the rest read as zero and
 *  are never touched in memory (a full vector skips the mask). */
inline __m512i
load_i16(const std::int16_t* p, std::size_t n)
{
    return n >= 32 ? _mm512_loadu_si512(p)
                   : _mm512_maskz_loadu_epi16(lanes32(n), p);
}

/** The low @p n of 16 bytes at @p p, zero above. */
inline __m128i
load_u8(const std::uint8_t* p, std::size_t n)
{
    return n >= 16 ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))
                   : _mm512_castsi512_si128(
                         _mm512_maskz_loadu_epi8(lanes64(n), p));
}

/**
 * Pre-align 32 mantissas (two blocks): each k2 = 2 element pair shifts
 * left by beta - tau of its sub-block — one operand's half of Figure
 * 6's shifter, since (Ma << sa) * (Mb << sb) = (Ma * Mb) << (sa + sb)
 * with sa + sb = budget - taua - taub.  Exact: simd_fast_path proves
 * m + beta <= 15, so an aligned mantissa still fits int16.  Masked-off
 * lanes stay zero.
 */
inline __m512i
align_mant(__m512i mant, __m128i tau, __m128i vbeta)
{
    // beta - tau per sub-block, widened to its int32 lane and copied
    // into both int16 halves (the sub-block's two elements).
    const __m512i s = _mm512_cvtepu8_epi32(_mm_sub_epi8(vbeta, tau));
    return _mm512_sllv_epi16(mant,
                             _mm512_or_si512(s, _mm512_slli_epi32(s, 16)));
}

/** The 16 int32 sub-sums of two aligned mantissa vectors: the 512-bit
 *  madd (dpwssd against a zero accumulator). */
inline __m512i
dots(__m512i ma, __m512i mb)
{
    return _mm512_dpwssd_epi32(_mm512_setzero_si512(), ma, mb);
}

/** First reduction level, per 128-bit lane: [a0+a2, b0+b2, a1+a3,
 *  b1+b3]. */
inline __m512i
fold2(__m512i a, __m512i b)
{
    return _mm512_add_epi32(_mm512_unpacklo_epi32(a, b),
                            _mm512_unpackhi_epi32(a, b));
}

/** Second level, per 128-bit lane: the 4-lane sums of the four vectors
 *  that fold2 paired into @p ab and @p cd, in order. */
inline __m512i
fold4(__m512i ab, __m512i cd)
{
    return _mm512_add_epi32(_mm512_unpacklo_epi64(ab, cd),
                            _mm512_unpackhi_epi64(ab, cd));
}

/** Pick 128-bit lanes (0, 2) of @p a then (0, 2) of @p b. */
constexpr int kEvenLanes = 0x88;
/** Pick 128-bit lanes (1, 3) of @p a then (1, 3) of @p b. */
constexpr int kOddLanes = 0xDD;

/** Fold 128-bit lane pairs (0, 1) and (2, 3) of @p a then of @p b. */
inline __m512i
fold_lane_pairs(__m512i a, __m512i b)
{
    return _mm512_add_epi32(_mm512_shuffle_i32x4(a, b, kEvenLanes),
                            _mm512_shuffle_i32x4(a, b, kOddLanes));
}

/**
 * acc += float(double(blk) * 2^e), lane by lane — the scalar epilogue's
 * IEEE sequence.  @p ebiased holds e + 1023, which simd_fast_path keeps
 * in [1, 2046], so 2^e is an exponent-field bit-cast.
 */
inline __m512
accumulate(__m512 acc, __m512i blk, __m512i ebiased)
{
    const auto half = [](__m256i b, __m256i e) {
        const __m512d scale = _mm512_castsi512_pd(
            _mm512_slli_epi64(_mm512_cvtepi32_epi64(e), 52));
        return _mm512_cvtpd_ps(
            _mm512_mul_pd(_mm512_cvtepi32_pd(b), scale));
    };
    const __m256 lo = half(_mm512_castsi512_si256(blk),
                           _mm512_castsi512_si256(ebiased));
    const __m256 hi = half(_mm512_extracti64x4_epi64(blk, 1),
                           _mm512_extracti64x4_epi64(ebiased, 1));
    return _mm512_add_ps(
        acc, _mm512_castpd_ps(_mm512_insertf64x4(
                 _mm512_castpd256_pd512(_mm256_castps_pd(lo)),
                 _mm256_castps_pd(hi), 1)));
}

/**
 * NT leg, one block pair (b, b + 1) of a 16-column group: @p lo / @p hi
 * lane j receives column j's block-b / block-(b + 1) integer.  @p ma is
 * A's aligned pair; @p bcols[j] is column j's.  Always inlined, like
 * nn_block: a call would pass the group's vectors through memory.
 */
[[gnu::always_inline]] inline void
nt_pair(__m512i ma, const __m512i* bcols, __m512i& lo, __m512i& hi)
{
    // Quad q, 128-bit lane l: columns 4q..4q+3's sums of sub-sums
    // 4l..4l+3 (lanes 0-1 are block b, lanes 2-3 block b + 1).
    __m512i quad[4];
    for (std::size_t q = 0; q < 4; ++q)
        quad[q] = fold4(fold2(dots(ma, bcols[4 * q]),
                              dots(ma, bcols[4 * q + 1])),
                        fold2(dots(ma, bcols[4 * q + 2]),
                              dots(ma, bcols[4 * q + 3])));
    // [cols 0-3 block b, cols 0-3 block b+1, cols 4-7 b, cols 4-7 b+1].
    const __m512i s01 = fold_lane_pairs(quad[0], quad[1]);
    const __m512i s23 = fold_lane_pairs(quad[2], quad[3]);
    lo = _mm512_shuffle_i32x4(s01, s23, kEvenLanes);
    hi = _mm512_shuffle_i32x4(s01, s23, kOddLanes);
}

/**
 * NN leg, one chunk (a single k1 block) of a 16-column group: returns
 * the vector whose lane j is column j's block integer.  Adjacent columns
 * share a vector — @p bpairs[p] holds columns 2p (lanes 0-15) and
 * 2p + 1 (16-31), aligned — and @p ma2 holds A's aligned block in both
 * halves.  Always inlined, like nt_pair.
 */
[[gnu::always_inline]] inline __m512i
nn_block(__m512i ma2, const __m512i* bpairs)
{
    // Quad q, 128-bit lane l: for p in 4q..4q+3, column 2p's (l = 0, 1)
    // or column 2p + 1's (l = 2, 3) sums of four sub-sums.
    __m512i quad[2];
    for (std::size_t q = 0; q < 2; ++q)
        quad[q] = fold4(fold2(dots(ma2, bpairs[4 * q]),
                              dots(ma2, bpairs[4 * q + 1])),
                        fold2(dots(ma2, bpairs[4 * q + 2]),
                              dots(ma2, bpairs[4 * q + 3])));
    // Columns [0 2 4 6 | 1 3 5 7 | 8 10 12 14 | 9 11 13 15]; one
    // permute restores column order.
    const __m512i order = _mm512_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7, 8, 12,
                                            9, 13, 10, 14, 11, 15);
    return _mm512_permutexvar_epi32(order,
                                    fold_lane_pairs(quad[0], quad[1]));
}

/** A row's aligned block pair at element @p off (@p n valid elements:
 *  32, or fewer at a ragged tail). */
inline __m512i
aligned_pair(const std::int16_t* m, const std::uint8_t* tau, std::size_t off,
             std::size_t n, __m128i vbeta)
{
    return align_mant(load_i16(m + off, n),
                      load_u8(tau + off / 2, (n + 1) / 2), vbeta);
}

class Avx512GemmKernel final : public PackedGemmKernel
{
  public:
    const char* name() const override { return "avx512"; }

    void
    gemm_tile(const GemmPlan& plan, const PackedOperand& a,
              const PackedOperand& b, const Tile& t, float* c,
              std::size_t ldc) const override
    {
        if (!detail::simd_fast_path(plan)) {
            scalar_gemm_kernel().gemm_tile(plan, a, b, t, c, ldc);
            return;
        }
        const std::size_t ncols = t.j1 - t.j0;
        MX_CHECK(ncols <= kTileRowsB, "avx512 gemm_tile: tile is "
                                          << ncols << " columns wide");
        const std::size_t cols = a.cols();
        const std::size_t nblocks = (cols + 15) / 16;
        const std::size_t width = (ncols + kGroup - 1) / kGroup * kGroup;
        const __m128i abeta = _mm_set1_epi8(static_cast<char>(plan.a.beta));
        const __m128i bbeta = _mm_set1_epi8(static_cast<char>(plan.b.beta));
        // Eb + 1023 - exp_bias per (panel block, tile column), clamped
        // columns included, so a block's group exponents are one load.
        alignas(64) std::int32_t bexp[kPanelBlocks][kTileRowsB];
        // One column group's aligned B panel: [block pair][column].
        __m512i bal[kPanelBlocks / 2][kGroup];

        for (std::size_t p0 = 0; p0 < nblocks; p0 += kPanelBlocks) {
            const std::size_t p1 = std::min(nblocks, p0 + kPanelBlocks);
            const bool first = p0 == 0;
            for (std::size_t jj = 0; jj < width; ++jj) {
                const std::int16_t* e =
                    b.row_exp(t.j0 + std::min(jj, ncols - 1));
                for (std::size_t blk = p0; blk < p1; ++blk)
                    bexp[blk - p0][jj] = e[blk] + kDoubleBias - plan.exp_bias;
            }
            // Column group outermost: its aligned B panel (16 KiB) is
            // built once and stays in L1 across the tile's A rows.
            for (std::size_t g = 0; g < width; g += kGroup) {
                const std::size_t j0 = t.j0 + g;
                const std::size_t jn = std::min(kGroup, t.j1 - j0);
                const __mmask16 cmask = static_cast<__mmask16>(lanes32(jn));
                for (std::size_t jj = 0; jj < kGroup; ++jj) {
                    const std::size_t r = j0 + std::min(jj, jn - 1);
                    for (std::size_t blk = p0; blk < p1; blk += 2)
                        bal[(blk - p0) / 2][jj] = aligned_pair(
                            b.row_mantissa(r), b.row_tau(r), blk * 16,
                            std::min<std::size_t>(32, cols - blk * 16),
                            bbeta);
                }
                for (std::size_t i = t.i0; i < t.i1; ++i) {
                    const std::int16_t* am = a.row_mantissa(i);
                    const std::uint8_t* atau = a.row_tau(i);
                    const std::int16_t* aexp = a.row_exp(i);
                    float* cg = c + i * ldc + j0;
                    __m512 acc = first ? _mm512_setzero_ps()
                                       : _mm512_maskz_loadu_ps(cmask, cg);
                    for (std::size_t blk = p0; blk < p1; blk += 2) {
                        const std::size_t n =
                            std::min<std::size_t>(32, cols - blk * 16);
                        __m512i lo, hi;
                        nt_pair(aligned_pair(am, atau, blk * 16, n, abeta),
                                bal[(blk - p0) / 2], lo, hi);
                        acc = accumulate(
                            acc, lo,
                            _mm512_add_epi32(
                                _mm512_set1_epi32(aexp[blk]),
                                _mm512_load_si512(bexp[blk - p0] + g)));
                        // Block b + 1 exists: an even kPanelBlocks keeps
                        // every pair inside one panel.
                        if (n > 16)
                            acc = accumulate(
                                acc, hi,
                                _mm512_add_epi32(
                                    _mm512_set1_epi32(aexp[blk + 1]),
                                    _mm512_load_si512(bexp[blk + 1 - p0] +
                                                      g)));
                    }
                    _mm512_mask_storeu_ps(cg, cmask, acc);
                }
            }
        }
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
        const __m128i abeta = _mm_set1_epi8(static_cast<char>(plan.a.beta));
        const __m128i bbeta = _mm_set1_epi8(static_cast<char>(plan.b.beta));
        const int ebias = kDoubleBias - plan.exp_bias;
        // One column group's aligned chunks: [chunk][column pair].
        __m512i bal[kPanelBlocks][kGroup / 2];

        for (std::size_t p0 = 0; p0 < b.size(); p0 += kPanelBlocks) {
            const std::size_t p1 = std::min(b.size(), p0 + kPanelBlocks);
            const bool first = p0 == 0;
            // Column group outermost, as on the NT leg.
            for (std::size_t j0 = t.j0; j0 < t.j1; j0 += kGroup) {
                const std::size_t jn = std::min(kGroup, t.j1 - j0);
                const __mmask16 cmask = static_cast<__mmask16>(lanes32(jn));
                for (std::size_t k = p0; k < p1; ++k)
                    align_chunk(*b[k].op, b[k].row_off + j0, jn, bbeta,
                                bal[k - p0]);
                for (std::size_t i = t.i0; i < t.i1; ++i) {
                    const std::int16_t* am = a.row_mantissa(i);
                    const std::uint8_t* atau = a.row_tau(i);
                    const std::int16_t* aexp = a.row_exp(i);
                    float* cg = c + i * ldc + j0;
                    __m512 acc = first ? _mm512_setzero_ps()
                                       : _mm512_maskz_loadu_ps(cmask, cg);
                    for (std::size_t k = p0; k < p1; ++k) {
                        const PackedOperand& ch = *b[k].op;
                        const std::size_t w = ch.cols();
                        // A's block k, aligned, in both 256-bit halves.
                        const __m512i ma2 = _mm512_broadcast_i64x4(
                            _mm512_castsi512_si256(load_i16(am + k * 16, w)));
                        const __m128i ta = load_u8(atau + k * 8, (w + 1) / 2);
                        const __m512i ints = nn_block(
                            align_mant(ma2, _mm_unpacklo_epi64(ta, ta),
                                       abeta),
                            bal[k - p0]);
                        const __m512i eb = _mm512_cvtepi16_epi32(
                            _mm512_castsi512_si256(
                                load_i16(ch.row_exp(b[k].row_off + j0), jn)));
                        acc = accumulate(
                            acc, ints,
                            _mm512_add_epi32(
                                _mm512_set1_epi32(aexp[k] + ebias), eb));
                    }
                    _mm512_mask_storeu_ps(cg, cmask, acc);
                }
            }
        }
    }

  private:
    /**
     * Align one chunk's 16-column group starting at row @p br into
     * @p out: out[p] = columns 2p (lanes 0-15) and 2p + 1 (16-31).  A
     * full chunk's two consecutive rows are one 64-byte load; a ragged
     * group (@p jn < 16) or tail chunk (cols < 16) loads each column
     * masked, and columns past the group read as zero.
     */
    static void
    align_chunk(const PackedOperand& ch, std::size_t br, std::size_t jn,
                __m128i vbeta, __m512i* out)
    {
        const std::size_t w = ch.cols();
        if (w == 16 && jn == kGroup) {
            for (std::size_t p = 0; p < kGroup / 2; ++p)
                out[p] = align_mant(load_i16(ch.row_mantissa(br + 2 * p), 32),
                                    load_u8(ch.row_tau(br + 2 * p), 16),
                                    vbeta);
            return;
        }
        const auto mant = [&](std::size_t jj) {
            return jj < jn ? _mm512_castsi512_si256(
                                 load_i16(ch.row_mantissa(br + jj), w))
                           : _mm256_setzero_si256();
        };
        const auto tau = [&](std::size_t jj) {
            return jj < jn ? load_u8(ch.row_tau(br + jj), (w + 1) / 2)
                           : _mm_setzero_si128();
        };
        for (std::size_t p = 0; p < kGroup / 2; ++p)
            out[p] = align_mant(
                _mm512_inserti64x4(_mm512_castsi256_si512(mant(2 * p)),
                                   mant(2 * p + 1), 1),
                _mm_unpacklo_epi64(tau(2 * p), tau(2 * p + 1)), vbeta);
    }
};

} // namespace

const PackedGemmKernel*
avx512_gemm_kernel()
{
    static const Avx512GemmKernel kernel;
    return &kernel;
}

} // namespace gemm
} // namespace mx

#else // !MX_HAVE_AVX512

namespace mx {
namespace gemm {

const PackedGemmKernel*
avx512_gemm_kernel()
{
    return nullptr;
}

} // namespace gemm
} // namespace mx

#endif // MX_HAVE_AVX512
