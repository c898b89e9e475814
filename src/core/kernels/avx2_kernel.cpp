/**
 * @file
 * AVX2 QuantKernel.  Bit-identical to the scalar reference by
 * construction: every lane performs the same IEEE double operations the
 * reference performs per element (multiply by an exact power of two,
 * round-to-nearest-even or truncate, saturate, multiply back, narrow to
 * float), and every case the vector path cannot mirror exactly is
 * delegated to the reference:
 *
 *  - NearestAway rounding (libm round() semantics) and Stochastic
 *    rounding (per-element RNG draw order) run the reference loop;
 *  - blocks whose maximum is zero, subnormal or infinite, and blocks
 *    whose shared exponent is so low that zero/subnormal sub-blocks
 *    would not clamp to the maximum shift (shared_e < beta - 127 —
 *    impossible for normal-range data) take the reference path;
 *  - NaN-bearing blocks take the reference path (minps/maxps NaN
 *    semantics differ from std::min/std::max);
 *  - formats with k1 beyond the stack scratch size fall back entirely.
 *
 * A block runs as whole vectors: a short final vector is loaded and
 * stored under a lane mask, so there is no scalar element tail.
 *
 * tests/test_kernels.cpp asserts the equivalence over randomized
 * formats, sizes, magnitudes, and rounding modes.
 *
 * This translation unit is the only one compiled with -mavx2; callers
 * reach it through kernels/dispatch.h, which probes the CPU at runtime.
 */

#include "core/kernels/dispatch.h"
#include "core/kernels/quant_kernel.h"

#if defined(MX_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/check.h"

namespace mx {
namespace core {
namespace kernels {

namespace {

/** Stack capacity for per-block scratch; larger k1 delegates. */
constexpr std::size_t kStackBlock = 512;

/** 2^e as a double (the shared detail::pow2_double). */
inline double
pow2d(int e)
{
    return detail::pow2_double(e);
}

/** Horizontal max of 8 floats. */
inline float
hmax(__m256 v)
{
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(v),
                          _mm256_extractf128_ps(v, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    return _mm_cvtss_f32(m);
}

/** All-ones in lanes [0, live) of an 8 x int32 vector (live in 1..8). */
inline __m256i
live_lanes(std::size_t live)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(live)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/** 2^e per int64 lane, assembled in the exponent field (every step of
 *  a nonzero normal-range block lies in [-163, 163]; see below). */
inline __m256d
pow2_lanes(__m256i e)
{
    return _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_add_epi64(e, _mm256_set1_epi64x(1023)), 52));
}

/**
 * The vectorized element loop over the zero-padded block @p xs: with
 * shift = shared_e - tau - (m - 1) per element, q = round(|x| *
 * 2^-shift) saturated to mant_max, out = sign(x) * q * 2^shift.  ROUND
 * is an _MM_FROUND_* policy (nearest-even or toward-zero).  Every lane
 * runs the reference's double operations; the final partial vector
 * computes padding lanes and stores only the live ones.  A null @p out
 * skips the dequantized floats (the encode-only path); Mant is the
 * mantissa type (int32 encodings or the int16 view).
 */
template <int ROUND, typename Mant>
void
element_loop(const float* xs, const std::int32_t* shift, std::size_t n,
             double mant_max_d, float* out, Mant* mant_out)
{
    const __m256 sign_mask = _mm256_set1_ps(-0.0f);
    const __m256d mmax = _mm256_set1_pd(mant_max_d);
    for (std::size_t i = 0; i < n; i += 8) {
        const std::size_t live = std::min<std::size_t>(8, n - i);
        const __m256 v = _mm256_load_ps(xs + i);
        const __m256 sign = _mm256_and_ps(v, sign_mask);
        const __m256 a = _mm256_andnot_ps(sign_mask, v);
        const __m256i sh = _mm256_load_si256(
            reinterpret_cast<const __m256i*>(shift + i));
        const __m256i sh_lo =
            _mm256_cvtepi32_epi64(_mm256_castsi256_si128(sh));
        const __m256i sh_hi =
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(sh, 1));
        const __m256i zero = _mm256_setzero_si256();
        const __m256d a_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
        const __m256d a_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
        __m256d q_lo = _mm256_round_pd(
            _mm256_mul_pd(a_lo, pow2_lanes(_mm256_sub_epi64(zero, sh_lo))),
            ROUND | _MM_FROUND_NO_EXC);
        __m256d q_hi = _mm256_round_pd(
            _mm256_mul_pd(a_hi, pow2_lanes(_mm256_sub_epi64(zero, sh_hi))),
            ROUND | _MM_FROUND_NO_EXC);
        q_lo = _mm256_min_pd(q_lo, mmax);
        q_hi = _mm256_min_pd(q_hi, mmax);
        if (out) {
            const __m256d d_lo = _mm256_mul_pd(q_lo, pow2_lanes(sh_lo));
            const __m256d d_hi = _mm256_mul_pd(q_hi, pow2_lanes(sh_hi));
            const __m256 deq = _mm256_or_ps(
                _mm256_set_m128(_mm256_cvtpd_ps(d_hi),
                                _mm256_cvtpd_ps(d_lo)),
                sign);
            if (live == 8)
                _mm256_storeu_ps(out + i, deq);
            else
                _mm256_maskstore_ps(out + i, live_lanes(live), deq);
        }
        if (mant_out) {
            // q is integral and <= 2^24 - 1, so the int conversion is
            // exact under any MXCSR rounding mode.
            const __m256i q32 = _mm256_set_m128i(_mm256_cvtpd_epi32(q_hi),
                                                 _mm256_cvtpd_epi32(q_lo));
            const __m256i neg =
                _mm256_srai_epi32(_mm256_castps_si256(sign), 31);
            const __m256i m32 =
                _mm256_sub_epi32(_mm256_xor_si256(q32, neg), neg);
            if constexpr (sizeof(Mant) == 4) {
                if (live == 8)
                    _mm256_storeu_si256(
                        reinterpret_cast<__m256i*>(mant_out + i), m32);
                else
                    _mm256_maskstore_epi32(
                        reinterpret_cast<int*>(mant_out + i),
                        live_lanes(live), m32);
            } else {
                // |q| <= 2^15 - 1 here, so the saturating pack is exact.
                const __m128i m16 =
                    _mm_packs_epi32(_mm256_castsi256_si128(m32),
                                    _mm256_extracti128_si256(m32, 1));
                if (live == 8) {
                    _mm_storeu_si128(
                        reinterpret_cast<__m128i*>(mant_out + i), m16);
                } else {
                    alignas(16) Mant tmp[8];
                    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), m16);
                    std::copy(tmp, tmp + live, mant_out + i);
                }
            }
        }
    }
}

/** The reference block for the exactness edge cases: the grid plus
 *  int32 encodings, or the int16 encoding alone. */
int
reference_block(const QuantPlan& plan, const float* in, std::size_t n,
                float* out, const Rounder& rounder, std::uint8_t* tau_out,
                std::int32_t* mant_out)
{
    return reference_quantize_block(plan, in, n, out, rounder, tau_out,
                                    mant_out);
}

int
reference_block(const QuantPlan& plan, const float* in, std::size_t n,
                float* /*out*/, const Rounder& rounder,
                std::uint8_t* tau_out, std::int16_t* mant_out)
{
    return reference_encode_block(plan, in, n, rounder, tau_out, mant_out);
}

/**
 * Quantize one block (n <= k1 <= kStackBlock).  Returns the shared
 * exponent.  Falls back to the reference for the exactness edge cases
 * documented at the top of the file.  Mant = int32 writes the grid to
 * @p out; Mant = int16 is the encode-only path (@p out is ignored).
 *
 * The block is copied into whole zero-padded vectors (masked loads, so
 * nothing past @p in is touched): zeros change no block or sub-block
 * maximum, and padding lanes are computed but never stored.
 */
template <typename Mant>
int
avx2_quantize_block(const QuantPlan& plan, const float* in, std::size_t n,
                    float* out, const Rounder& rounder,
                    std::uint8_t* tau_out, Mant* mant_out)
{
    if constexpr (sizeof(Mant) == 2)
        out = nullptr;
    MX_CHECK_ARG(n <= static_cast<std::size_t>(plan.k1) && n <= kStackBlock,
                 "quantize_block: block larger than k1");
    alignas(32) float xs[kStackBlock];
    alignas(32) std::int32_t shift[kStackBlock];
    std::uint8_t tau_local[kStackBlock];

    // Copy + block amax.  NaNs are tracked explicitly (maxps does not
    // propagate them stickily) so NaN-bearing blocks can take the
    // reference path — both kernels then agree on such inputs.
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 acc = _mm256_setzero_ps();
    __m256 nan_acc = _mm256_setzero_ps();
    for (std::size_t i = 0; i < n; i += 8) {
        const __m256 x =
            i + 8 <= n ? _mm256_loadu_ps(in + i)
                       : _mm256_maskload_ps(in + i, live_lanes(n - i));
        _mm256_store_ps(xs + i, x);
        const __m256 a = _mm256_and_ps(x, abs_mask);
        acc = _mm256_max_ps(acc, a);
        nan_acc = _mm256_or_ps(nan_acc, _mm256_cmp_ps(a, a, _CMP_UNORD_Q));
    }
    const float amax = hmax(acc);
    // The exponent field is floor(log2(amax)) for a normal amax (what
    // the reference's frexp yields); zero, subnormal and infinite
    // maxima, and NaN blocks, take the reference.
    const int field =
        static_cast<int>(std::bit_cast<std::uint32_t>(amax) >> 23);
    if (_mm256_movemask_ps(nan_acc) != 0 || field == 0 || field == 255)
        return reference_block(plan, in, n, out, rounder, tau_out, mant_out);
    const int shared_e = std::clamp(field - 127, plan.e_min, plan.e_max);
    if (shared_e < plan.beta - 127) {
        // A zero/subnormal sub-block would not clamp to tau = beta; let
        // the reference handle this (requires |amax| below ~2^-112).
        return reference_block(plan, in, n, out, rounder, tau_out, mant_out);
    }

    // Sub-block shifts from the float exponent field: for normal
    // sub-maxima the field is exactly floor(log2()); zero or subnormal
    // sub-maxima read as -127, which the guard above proves clamps to
    // beta just like the reference's explicit handling.  Each element
    // gets shift = shared_e - tau - (m - 1), which lies in [-163, 128]
    // for a normal shared_e, so 2^shift and 2^-shift are normal doubles.
    std::uint8_t* taus = tau_out ? tau_out : tau_local;
    const int k2 = plan.k2;
    const int shift_base = shared_e - (plan.m - 1);
    if (k2 == 1 || k2 == 2 || k2 == 4 || k2 == 8) {
        // Sub-blocks tile each vector: reduce them in-lane.
        const __m256i vshared = _mm256_set1_epi32(shared_e);
        const __m256i vbeta = _mm256_set1_epi32(plan.beta);
        for (std::size_t i = 0; i < n; i += 8) {
            __m256 a = _mm256_and_ps(_mm256_load_ps(xs + i), abs_mask);
            if (k2 >= 2)
                a = _mm256_max_ps(a, _mm256_permute_ps(a, 0xB1));
            if (k2 >= 4)
                a = _mm256_max_ps(a, _mm256_permute_ps(a, 0x4E));
            if (k2 >= 8)
                a = _mm256_max_ps(a, _mm256_permute2f128_ps(a, a, 1));
            const __m256i sub_e = _mm256_sub_epi32(
                _mm256_srli_epi32(_mm256_castps_si256(a), 23),
                _mm256_set1_epi32(127));
            const __m256i tau = _mm256_min_epi32(
                _mm256_max_epi32(_mm256_sub_epi32(vshared, sub_e),
                                 _mm256_setzero_si256()),
                vbeta);
            _mm256_store_si256(
                reinterpret_cast<__m256i*>(shift + i),
                _mm256_sub_epi32(_mm256_set1_epi32(shift_base), tau));
            alignas(32) std::int32_t t[8];
            _mm256_store_si256(reinterpret_cast<__m256i*>(t), tau);
            const std::size_t live = std::min<std::size_t>(8, n - i);
            for (std::size_t lane = 0; lane < live;
                 lane += static_cast<std::size_t>(k2))
                taus[(i + lane) / static_cast<std::size_t>(k2)] =
                    static_cast<std::uint8_t>(t[lane]);
        }
    } else {
        const std::size_t uk2 = static_cast<std::size_t>(k2);
        for (std::size_t sub = 0; sub < plan.num_sub_blocks(n); ++sub) {
            const std::size_t lo = sub * uk2;
            const std::size_t hi = std::min(n, lo + uk2);
            float sub_amax = 0.0f;
            for (std::size_t j = lo; j < hi; ++j)
                sub_amax = std::max(sub_amax, std::fabs(xs[j]));
            const int sub_e = static_cast<int>(
                                  std::bit_cast<std::uint32_t>(sub_amax) >>
                                  23) -
                              127;
            const int tau = std::clamp(shared_e - sub_e, 0, plan.beta);
            taus[sub] = static_cast<std::uint8_t>(tau);
            std::fill(shift + lo, shift + hi, shift_base - tau);
        }
        // Padding lanes of the last vector: any normal shift will do.
        std::fill(shift + n, shift + (n + 7) / 8 * 8, shift_base);
    }

    if (rounder.mode() == RoundingMode::TowardZero)
        element_loop<_MM_FROUND_TO_ZERO>(xs, shift, n, plan.mant_max_d, out,
                                         mant_out);
    else
        element_loop<_MM_FROUND_TO_NEAREST_INT>(xs, shift, n,
                                                plan.mant_max_d, out,
                                                mant_out);
    return shared_e;
}

/** True when the vector path can honour @p rounder exactly. */
bool
vectorizable(const Rounder& rounder)
{
    return rounder.mode() == RoundingMode::NearestEven ||
           rounder.mode() == RoundingMode::TowardZero;
}

class Avx2Kernel final : public QuantKernel
{
  public:
    const char* name() const override { return "avx2"; }

    void
    quantize(const QuantPlan& plan, std::span<const float> in,
             std::span<float> out, const Rounder& rounder) const override
    {
        MX_CHECK_ARG(in.size() == out.size(), "quantize: size mismatch");
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        if (!vectorizable(rounder) || k1 > kStackBlock) {
            scalar_kernel().quantize(plan, in, out, rounder);
            return;
        }
        for (std::size_t off = 0; off < in.size(); off += k1) {
            const std::size_t n = std::min(k1, in.size() - off);
            avx2_quantize_block<std::int32_t>(plan, in.data() + off, n,
                                              out.data() + off, rounder,
                                              nullptr, nullptr);
        }
    }

    void
    quantize_block(const QuantPlan& plan, std::span<const float> in,
                   std::span<float> out, const Rounder& rounder,
                   Pow2BlockEncoding* enc) const override
    {
        MX_CHECK_ARG(in.size() == out.size(),
                     "quantize_block: size mismatch");
        if (!vectorizable(rounder) ||
            static_cast<std::size_t>(plan.k1) > kStackBlock) {
            scalar_kernel().quantize_block(plan, in, out, rounder, enc);
            return;
        }
        if (!enc) {
            avx2_quantize_block<std::int32_t>(plan, in.data(), in.size(),
                                              out.data(), rounder, nullptr,
                                              nullptr);
            return;
        }
        enc->sub_shift.assign(plan.num_sub_blocks(in.size()), 0);
        enc->mantissa.assign(in.size(), 0);
        enc->shared_exp = avx2_quantize_block(
            plan, in.data(), in.size(), out.data(), rounder,
            enc->sub_shift.data(), enc->mantissa.data());
    }

    void
    quantize_pack(const QuantPlan& plan, std::span<const float> in,
                  const Rounder& rounder, BitWriter& writer) const override
    {
        const std::size_t k1 = static_cast<std::size_t>(plan.k1);
        if (!vectorizable(rounder) || k1 > kStackBlock) {
            scalar_kernel().quantize_pack(plan, in, rounder, writer);
            return;
        }
        alignas(32) float out[kStackBlock];
        std::uint8_t taus[kStackBlock];
        alignas(32) std::int32_t mant[kStackBlock];
        for (std::size_t off = 0; off < in.size(); off += k1) {
            const std::size_t n = std::min(k1, in.size() - off);
            const int shared = avx2_quantize_block(
                plan, in.data() + off, n, out, rounder, taus, mant);
            detail::write_block_bits(plan, shared, taus,
                                     plan.num_sub_blocks(n), mant, n,
                                     writer);
        }
    }

    void
    quantize_encode_rows(const QuantPlan& plan, const float* in,
                         std::size_t rows, std::size_t cols,
                         const Rounder& rounder, std::int16_t* mant,
                         std::uint8_t* tau, std::int16_t* exp) const override
    {
        if (!vectorizable(rounder) ||
            static_cast<std::size_t>(plan.k1) > kStackBlock) {
            scalar_kernel().quantize_encode_rows(plan, in, rows, cols,
                                                 rounder, mant, tau, exp);
            return;
        }
        detail::encode_rows_blockwise(
            plan, in, rows, cols, mant, tau, exp,
            [&](const float* x, std::size_t n, std::uint8_t* t,
                std::int16_t* m) {
                return avx2_quantize_block(plan, x, n, nullptr, rounder, t,
                                           m);
            });
    }

    void
    dequantize_block(const QuantPlan& plan, const Pow2BlockEncoding& enc,
                     std::span<float> out) const override
    {
        const std::size_t n = out.size();
        MX_CHECK_ARG(n == enc.mantissa.size(),
                     "dequantize_block: size mismatch");
        MX_CHECK_ARG(enc.sub_shift.size() >= plan.num_sub_blocks(n),
                     "dequantize_block: missing sub-shifts");
        if (n > kStackBlock) {
            scalar_kernel().dequantize_block(plan, enc, out);
            return;
        }
        alignas(32) double step[kStackBlock];
        const std::size_t k2 = static_cast<std::size_t>(plan.k2);
        const std::size_t n_sub = plan.num_sub_blocks(n);
        for (std::size_t sub = 0; sub < n_sub; ++sub) {
            const std::size_t lo = sub * k2;
            const std::size_t hi = std::min(n, lo + k2);
            const double s =
                pow2d(enc.shared_exp - enc.sub_shift[sub] - (plan.m - 1));
            for (std::size_t j = lo; j < hi; ++j)
                step[j] = s;
        }
        const std::int32_t* mant = enc.mantissa.data();
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            const __m256i m = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(mant + i));
            const __m256d lo =
                _mm256_cvtepi32_pd(_mm256_castsi256_si128(m));
            const __m256d hi =
                _mm256_cvtepi32_pd(_mm256_extracti128_si256(m, 1));
            const __m256d v_lo =
                _mm256_mul_pd(lo, _mm256_loadu_pd(step + i));
            const __m256d v_hi =
                _mm256_mul_pd(hi, _mm256_loadu_pd(step + i + 4));
            _mm256_storeu_ps(out.data() + i,
                             _mm256_set_m128(_mm256_cvtpd_ps(v_hi),
                                             _mm256_cvtpd_ps(v_lo)));
        }
        for (; i < n; ++i)
            out[i] =
                static_cast<float>(static_cast<double>(mant[i]) * step[i]);
    }
};

} // namespace

const QuantKernel*
avx2_kernel()
{
    static const Avx2Kernel kernel;
    return &kernel;
}

} // namespace kernels
} // namespace core
} // namespace mx

#else // !MX_HAVE_AVX2

namespace mx {
namespace core {
namespace kernels {

const QuantKernel*
avx2_kernel()
{
    return nullptr;
}

} // namespace kernels
} // namespace core
} // namespace mx

#endif // MX_HAVE_AVX2
