#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/check.h"
#include "core/thread_pool.h"
#include "gemm/packed_gemm.h"
#include "obs/obs.h"

namespace mx {
namespace nn {

using tensor::Tensor;

std::int64_t
AttnPrefixCache::truncate(std::int64_t rows)
{
    if (rows < 0)
        rows = 0;
    if (rows >= prefix)
        return prefix;
    static obs::Counter& truncates = obs::counter("attn.truncates");
    truncates.add(1);
    if (!native) {
        if (rows == 0) {
            k = Tensor();
            v = Tensor();
            prefix = 0;
            return 0;
        }
        const std::int64_t d = k.dim(1);
        Tensor nk({rows, d});
        Tensor nv({rows, d});
        std::copy(k.data(), k.data() + rows * d, nk.data());
        std::copy(v.data(), v.data() + rows * d, nv.data());
        k = std::move(nk);
        v = std::move(nv);
        prefix = rows;
        return rows;
    }
    // Native streams: the K rows and the open V tail shed keys freely,
    // but a cut inside a COMMITTED V slab must retreat to the k1 block
    // boundary below it — the slab's raw floats are gone, and the
    // native cache never re-quantizes (that is its whole contract).
    const std::int64_t k1 = plan.k1;
    const std::int64_t committed =
        k1 * static_cast<std::int64_t>(v_slabs.size());
    std::int64_t keep = rows;
    if (keep < committed)
        keep = k1 * (keep / k1);
    const std::int64_t new_slabs = std::min(
        static_cast<std::int64_t>(v_slabs.size()), keep / k1);
    v_slabs.resize(static_cast<std::size_t>(new_slabs));
    v_tail.resize(
        static_cast<std::size_t>((keep - k1 * new_slabs) * d_model));
    const std::size_t stride = gemm::row_stream_bytes(
        plan, static_cast<std::size_t>(head_dim));
    for (std::vector<std::uint8_t>& stream : k_heads)
        stream.resize(static_cast<std::size_t>(keep) * stride);
    prefix = keep;
    return keep;
}

std::size_t
AttnPrefixCache::memory_bytes() const
{
    std::size_t total = static_cast<std::size_t>(k.numel() + v.numel()) *
                        sizeof(float);
    for (const std::vector<std::uint8_t>& stream : k_heads)
        total += stream.size();
    for (const std::vector<std::uint8_t>& slab : v_slabs)
        total += slab.size();
    total += v_tail.size() * sizeof(float);
    return total;
}

MultiHeadAttention::MultiHeadAttention(std::int64_t d_model,
                                       std::int64_t heads,
                                       std::int64_t seq_len, bool causal,
                                       QuantSpec spec, stats::Rng& rng)
    : d_model_(d_model),
      heads_(heads),
      head_dim_(d_model / heads),
      seq_len_(seq_len),
      causal_(causal),
      spec_(std::move(spec))
{
    MX_CHECK_ARG(d_model % heads == 0,
                 "MultiHeadAttention: d_model must be divisible by heads");
    wq_ = std::make_unique<Linear>(d_model, d_model, spec_, rng, false);
    wk_ = std::make_unique<Linear>(d_model, d_model, spec_, rng, false);
    wv_ = std::make_unique<Linear>(d_model, d_model, spec_, rng, false);
    wo_ = std::make_unique<Linear>(d_model, d_model, spec_, rng, false);
}

void
MultiHeadAttention::freeze()
{
    wq_->freeze();
    wk_->freeze();
    wv_->freeze();
    wo_->freeze();
}

void
MultiHeadAttention::freeze(const QuantSpec& spec)
{
    set_spec(spec);
    freeze();
}

void
MultiHeadAttention::unfreeze()
{
    wq_->unfreeze();
    wk_->unfreeze();
    wv_->unfreeze();
    wo_->unfreeze();
}

bool
MultiHeadAttention::frozen() const
{
    return wq_->frozen();
}

void
MultiHeadAttention::set_spec(const QuantSpec& spec)
{
    spec_ = spec;
    wq_->spec() = spec;
    wk_->spec() = spec;
    wv_->spec() = spec;
    wo_->spec() = spec;
}

bool
MultiHeadAttention::native_cache_format() const
{
    return causal_ && packed_act_act();
}

bool
MultiHeadAttention::packed_act_act() const
{
    if (!frozen() || !spec_.forward.has_value() ||
        spec_.forward->s_kind != core::ScaleKind::Pow2Hw ||
        spec_.forward->elem != core::ElementKind::SignMagnitude)
        return false;
    const core::kernels::QuantPlan plan =
        core::kernels::make_quant_plan(*spec_.forward);
    return gemm::gemm_compatible(plan, plan);
}

void
MultiHeadAttention::project_qkv(const Tensor& x, Tensor& q, Tensor& k,
                                Tensor& v)
{
    // Quantize-once handoff: the three projections consume the SAME
    // input rows, so when all three would run packed anyway, build the
    // activation view once and hand it to each — bit-identical to three
    // independent forwards because quantization is a pure per-row
    // function of the input.
    if (wq_->packed_activation_ready() &&
        wk_->packed_activation_ready() &&
        wv_->packed_activation_ready()) {
        const core::kernels::QuantPlan aplan =
            core::kernels::make_quant_plan(*spec_.forward);
        const core::Rounder rounder(spec_.rounding);
        const gemm::PackedOperand xq = gemm::PackedOperand::quantize(
            aplan, x.data(), static_cast<std::size_t>(x.dim(0)),
            static_cast<std::size_t>(x.dim(1)), rounder);
        q = wq_->forward_packed_activation(xq);
        k = wk_->forward_packed_activation(xq);
        v = wv_->forward_packed_activation(xq);
        return;
    }
    q = wq_->forward(x, /*train=*/false);
    k = wk_->forward(x, /*train=*/false);
    v = wv_->forward(x, /*train=*/false);
}

Tensor
MultiHeadAttention::slice_head(const Tensor& packed, std::int64_t b,
                               std::int64_t h) const
{
    Tensor out({seq_len_, head_dim_});
    for (std::int64_t t = 0; t < seq_len_; ++t) {
        const float* row = packed.data() + (b * seq_len_ + t) * d_model_ +
                           h * head_dim_;
        std::copy(row, row + head_dim_, out.data() + t * head_dim_);
    }
    return out;
}

void
MultiHeadAttention::scatter_head(Tensor& packed, const Tensor& head,
                                 std::int64_t b, std::int64_t h) const
{
    for (std::int64_t t = 0; t < seq_len_; ++t) {
        float* row = packed.data() + (b * seq_len_ + t) * d_model_ +
                     h * head_dim_;
        const float* src = head.data() + t * head_dim_;
        for (std::int64_t j = 0; j < head_dim_; ++j)
            row[j] += src[j];
    }
}

Tensor
MultiHeadAttention::forward(const Tensor& x, bool train)
{
    MX_CHECK_ARG(x.ndim() == 2 && x.dim(1) == d_model_ &&
                 x.dim(0) % seq_len_ == 0,
                 "MultiHeadAttention: input " << x.shape_string());
    const std::int64_t batch = x.dim(0) / seq_len_;
    if (train)
        cached_batch_ = batch; // eval forwards stay mutation-free so
                               // frozen models can serve concurrently

    Tensor q, k, v;
    if (!train && frozen()) {
        project_qkv(x, q, k, v);
    } else {
        q = wq_->forward(x, train);
        k = wk_->forward(x, train);
        v = wv_->forward(x, train);
    }

    if (train)
        cache_.assign(static_cast<std::size_t>(batch * heads_), HeadCache{});

    // Frozen eval forwards run the activation-activation contractions
    // (Q K^T, P V) on the packed kernels whenever the format pairs with
    // itself; both engines quantize the operands identically.
    const bool packed_aa = !train && packed_act_act();
    const core::kernels::QuantPlan aplan =
        packed_aa ? core::kernels::make_quant_plan(*spec_.forward)
                  : core::kernels::QuantPlan{};

    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));
    Tensor concat = Tensor::zeros({batch * seq_len_, d_model_});

    for (std::int64_t b = 0; b < batch; ++b) {
        for (std::int64_t h = 0; h < heads_; ++h) {
            Tensor qh = slice_head(q, b, h);
            Tensor kh = slice_head(k, b, h);
            Tensor vh = slice_head(v, b, h);

            // scores = (Q K^T) * scale: reduction over head_dim (rows of
            // both operands), so qmatmul_nt quantizes along the right dim.
            Tensor scores =
                packed_aa
                    ? gemm::matmul_nt_packed2(qh, aplan, kh, aplan,
                                              spec_.rounding)
                    : qmatmul_nt(qh, kh, spec_.forward, spec_.rounding);
            for (std::int64_t i = 0; i < seq_len_; ++i) {
                for (std::int64_t j = 0; j < seq_len_; ++j) {
                    float& s = scores.data()[i * seq_len_ + j];
                    s *= scale;
                    if (causal_ && j > i)
                        s = -std::numeric_limits<float>::infinity();
                }
            }
            Tensor probs = tensor::softmax_rows(scores);

            // ctx = P V: reduction over keys; V is transposed before
            // quantization so its rows run along the reduction dim.
            Tensor vt = tensor::transpose2d(vh);
            Tensor ctx =
                packed_aa
                    ? gemm::matmul_nt_packed2(probs, aplan, vt, aplan,
                                              spec_.rounding)
                    : qmatmul_nt(probs, vt, spec_.forward, spec_.rounding);
            scatter_head(concat, ctx, b, h);

            if (train) {
                HeadCache& c = cache_[static_cast<std::size_t>(
                    b * heads_ + h)];
                c.q = std::move(qh);
                c.k = std::move(kh);
                c.v = std::move(vh);
                c.probs = std::move(probs);
            }
        }
    }
    return wo_->forward(concat, train);
}

bool
MultiHeadAttention::prefix_reusable() const
{
    // Non-causal attention lets every position see the whole window, so
    // no prefix row is ever stable.  Per-tensor-scaled activation
    // formats couple rows through one JIT scale, so only the pow2
    // block family (and FP32) quantizes suffix rows independently.
    if (!causal_)
        return false;
    if (!spec_.forward.has_value())
        return true;
    return spec_.forward->s_kind == core::ScaleKind::Pow2Hw &&
           spec_.forward->elem == core::ElementKind::SignMagnitude;
}

namespace {

/** Scale a stream's [s, n] Q K^T scores and mask every key past each
 *  query's own position (query i of a stream whose cached prefix is p
 *  sees keys [0, p + i]). */
void
scale_and_mask(Tensor& scores, std::int64_t s, std::int64_t n,
               std::int64_t p, float scale)
{
    for (std::int64_t i = 0; i < s; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float& sc = scores.data()[i * n + j];
            sc *= scale;
            if (j > p + i)
                sc = -std::numeric_limits<float>::infinity();
        }
    }
}

/** Rows [row0, row0 + rows) of one head's columns of a [*, ld] matrix,
 *  as a dense [rows, head_dim] block: a pointer into @p m itself when
 *  the block is already dense (one row), else a copy in @p buf. */
const float*
head_block(const Tensor& m, std::int64_t ld, std::int64_t row0,
           std::int64_t rows, std::int64_t h, std::int64_t head_dim,
           std::vector<float>& buf)
{
    const float* first = m.data() + row0 * ld + h * head_dim;
    if (rows == 1)
        return first;
    buf.resize(static_cast<std::size_t>(rows * head_dim));
    for (std::int64_t t = 0; t < rows; ++t)
        std::copy(first + t * ld, first + t * ld + head_dim,
                  buf.data() + t * head_dim);
    return buf.data();
}

/** Transpose @p count rows (stride @p ld) of one head's @p head_dim
 *  columns, starting at @p first, into a dense [head_dim, count] block
 *  in @p out. */
void
transpose_head(const float* first, std::int64_t count, std::int64_t ld,
               std::int64_t head_dim, std::vector<float>& out)
{
    out.resize(static_cast<std::size_t>(head_dim * count));
    for (std::int64_t d = 0; d < head_dim; ++d)
        for (std::int64_t t = 0; t < count; ++t)
            out[static_cast<std::size_t>(d * count + t)] =
                first[t * ld + d];
}

} // namespace

Tensor
MultiHeadAttention::decode_step(const Tensor& x,
                                std::span<const DecodeRows> streams)
{
    MX_CHECK_ARG(causal_, "MultiHeadAttention: decode_step is a causal "
                          "decode path");
    MX_CHECK_ARG(x.ndim() == 2 && x.dim(0) >= 1 && x.dim(1) == d_model_,
                 "MultiHeadAttention: decode rows " << x.shape_string()
                     << " expect [*, " << d_model_ << "]");
    // Fused streams share every projection's activation matrix, so
    // their rows must quantize independently.
    MX_CHECK_ARG(streams.size() == 1 || prefix_reusable(),
                 "MultiHeadAttention: fusing decode streams needs a "
                 "row-independent activation format");
    std::int64_t total = 0;
    for (const DecodeRows& r : streams) {
        MX_CHECK_ARG(r.cache != nullptr && r.row0 == total && r.rows >= 1,
                     "MultiHeadAttention: decode streams must tile the "
                     "step's rows in order");
        total += r.rows;
    }
    MX_CHECK_ARG(total == x.dim(0),
                 "MultiHeadAttention: decode streams cover "
                     << total << " of " << x.dim(0) << " rows");
    obs::Span span("attn.decode_step");
    span.arg("streams", static_cast<double>(streams.size()));
    span.arg("rows", static_cast<double>(total));
    static obs::Counter& appended = obs::counter("attn.append.tokens");
    appended.add(static_cast<std::uint64_t>(total));

    // Phase 1: the three projections, once over every stream's rows.
    Tensor q, k, v;
    project_qkv(x, q, k, v);

    // Phase 2: per-stream cache bookkeeping on the caller, then one
    // pool fan-out over the step's (stream, head) pairs.  Each task
    // writes only its stream's cache state for its head and its own
    // slots of concat, so lane count and order cannot change a bit.
    std::vector<StepStream> steps;
    steps.reserve(streams.size());
    for (const DecodeRows& r : streams)
        steps.push_back(begin_step(r, k, v));
    Tensor concat = Tensor::zeros({total, d_model_});
    const std::size_t heads = static_cast<std::size_t>(heads_);
    core::ThreadPool::shared().parallel_for(
        steps.size() * heads, [&](std::size_t t) {
            obs::Span head_span("attn.head");
            const StepStream& st = steps[t / heads];
            const std::int64_t h = static_cast<std::int64_t>(t % heads);
            if (st.cache->native)
                attend_native(st, h, q, k, concat);
            else
                attend_fp32(st, h, q, concat);
        });
    for (const StepStream& st : steps) {
        AttnPrefixCache& cache = *st.cache;
        // Keys past the last committed slab stay raw until their block
        // completes; the step's new slabs drop their raw rows.
        const std::int64_t committed =
            static_cast<std::int64_t>(cache.v_slabs.size()) - st.slabs_old;
        if (cache.native) {
            const std::int64_t k1 = cache.plan.k1;
            if (committed > 0)
                cache.v_tail.erase(cache.v_tail.begin(),
                                   cache.v_tail.begin() +
                                       committed * k1 * d_model_);
            // Warm s = 1 steps keep their k1 + 1 rows of room; a longer
            // step (a prompt) gives back the rest, so a cached session
            // holds no prompt-sized tail.
            if (cache.v_tail.capacity() >
                static_cast<std::size_t>((k1 + 1) * d_model_))
                cache.v_tail.shrink_to_fit();
        }
        cache.prefix = st.p + st.s;
    }

    // Phase 3: the output projection, once over every stream's rows.
    return wo_->forward(concat, /*train=*/false);
}

MultiHeadAttention::StepStream
MultiHeadAttention::begin_step(const DecodeRows& rows, const Tensor& k,
                               const Tensor& v)
{
    AttnPrefixCache& cache = *rows.cache;
    StepStream st;
    st.cache = rows.cache;
    st.row0 = rows.row0;
    st.p = cache.prefix;
    st.s = rows.rows;
    const std::int64_t p = st.p;
    const std::int64_t s = st.s;
    const std::int64_t n = p + s; // visible positions after the step
    // From-scratch streams (p == 0) are legal under any format — they
    // quantize the same tensors every time, so the result is a pure
    // function of the inputs.  Actually *reusing* cached rows needs
    // row-independent quantization; callers gate caching on
    // prefix_reusable(), and this backstops them.
    MX_CHECK_ARG(p == 0 || prefix_reusable(),
                 "MultiHeadAttention: a cached prefix needs a "
                 "row-independent activation format");
    MX_CHECK_ARG(p >= 0 && n <= seq_len_,
                 "MultiHeadAttention: prefix " << p << " + suffix " << s
                     << " overflows a " << seq_len_
                     << "-position window");

    // Storage mode: a fresh stream adopts native packed streams when
    // the layer is frozen and its format pairs with itself; a live
    // stream continues in the mode its prefix was stored under (it
    // cannot be converted — the raw floats behind committed native
    // blocks are gone), so a layer frozen or unfrozen since rejects it.
    if (p == 0) {
        cache = AttnPrefixCache{};
        cache.native = native_cache_format();
        if (cache.native) {
            cache.plan = core::kernels::make_quant_plan(*spec_.forward);
            cache.d_model = d_model_;
            cache.head_dim = head_dim_;
            cache.k_heads.assign(static_cast<std::size_t>(heads_), {});
        }
    } else {
        MX_CHECK_ARG(cache.native == native_cache_format(),
                     "MultiHeadAttention: the prefix cache was stored "
                     "for a " << (cache.native ? "frozen" : "unfrozen")
                              << " layer");
        if (cache.native) {
            MX_CHECK_ARG(cache.d_model == d_model_ &&
                         cache.head_dim == head_dim_ &&
                         cache.k_heads.size() ==
                             static_cast<std::size_t>(heads_),
                         "MultiHeadAttention: prefix cache shape drifted");
            const core::kernels::QuantPlan now =
                core::kernels::make_quant_plan(*spec_.forward);
            MX_CHECK_ARG(now.m == cache.plan.m && now.d1 == cache.plan.d1 &&
                         now.k1 == cache.plan.k1 &&
                         now.d2 == cache.plan.d2 && now.k2 == cache.plan.k2,
                         "MultiHeadAttention: activation format changed "
                         "under a native cached prefix");
        } else {
            MX_CHECK_ARG(cache.k.ndim() == 2 && cache.k.dim(0) == p &&
                         cache.k.dim(1) == d_model_ &&
                         cache.v.same_shape(cache.k),
                         "MultiHeadAttention: prefix cache shape drifted");
        }
    }

    const float* k_new = k.data() + st.row0 * d_model_;
    const float* v_new = v.data() + st.row0 * d_model_;
    if (!cache.native) {
        // Legacy FP32 storage: append the raw post-projection rows;
        // the tasks re-quantize on use — the path formats outside the
        // packed family (and FP32 specs) serve on.
        Tensor k_all({n, d_model_});
        Tensor v_all({n, d_model_});
        if (p > 0) {
            std::copy(cache.k.data(), cache.k.data() + p * d_model_,
                      k_all.data());
            std::copy(cache.v.data(), cache.v.data() + p * d_model_,
                      v_all.data());
        }
        std::copy(k_new, k_new + s * d_model_, k_all.data() + p * d_model_);
        std::copy(v_new, v_new + s * d_model_, v_all.data() + p * d_model_);
        cache.k = std::move(k_all);
        cache.v = std::move(v_all);
        return st;
    }

    // ---- Native MX storage ----------------------------------------
    // The prefix lives as the quantization blocks themselves.  Each
    // new token is quantized ONCE (by its head's task); every later
    // step only moves bytes.  The causal-visibility discipline maps
    // exactly onto this storage: K rows quantize along head_dim (per
    // key, stable forever), and transposed-V blocks quantize along
    // keys at k1 boundaries — a completed [d_model, k1] slab is
    // identical for every later position, so it is committed once;
    // only the open tail block still depends on the position and
    // stays raw.
    const std::int64_t k1 = cache.plan.k1;
    st.slabs_old = static_cast<std::int64_t>(cache.v_slabs.size());

    // Raw V rows for every key past the last committed slab: the old
    // tail plus this step's keys, covering [k1 * slabs_old, n).  The
    // old tail holds fewer than k1 rows, so room for k1 + s rows always
    // suffices: warm s = 1 steps reserve once and never reallocate
    // (commits erase rows but keep that room).
    cache.v_tail.reserve(static_cast<std::size_t>((k1 + s) * d_model_));
    cache.v_tail.insert(cache.v_tail.end(), v_new, v_new + s * d_model_);

    const std::size_t kstride = gemm::row_stream_bytes(
        cache.plan, static_cast<std::size_t>(head_dim_));
    for (std::vector<std::uint8_t>& stream : cache.k_heads)
        stream.resize(static_cast<std::size_t>(n) * kstride);

    // Every k1-key block this step completes becomes a packed
    // [d_model, k1] slab of transposed V; each head's task fills its
    // own head_dim rows.
    const std::int64_t slabs_new = n / k1;
    if (slabs_new > st.slabs_old) {
        static obs::Counter& commits = obs::counter("attn.slab_commits");
        commits.add(static_cast<std::uint64_t>(slabs_new - st.slabs_old));
        const std::size_t bytes =
            static_cast<std::size_t>(d_model_) *
            gemm::row_stream_bytes(cache.plan,
                                   static_cast<std::size_t>(k1));
        for (std::int64_t b = st.slabs_old; b < slabs_new; ++b)
            cache.v_slabs.emplace_back(bytes);
    }
    return st;
}

void
MultiHeadAttention::attend_native(const StepStream& st, std::int64_t h,
                                  const Tensor& q, const Tensor& k,
                                  Tensor& concat) const
{
    AttnPrefixCache& cache = *st.cache;
    const core::kernels::QuantPlan& aplan = cache.plan;
    const core::Rounder rounder(spec_.rounding);
    const std::int64_t k1 = aplan.k1;
    const std::int64_t p = st.p;
    const std::int64_t s = st.s;
    const std::int64_t n = p + s;
    const std::size_t dh = static_cast<std::size_t>(head_dim_);
    const std::size_t kstride = gemm::row_stream_bytes(aplan, dh);
    const std::size_t vstride =
        gemm::row_stream_bytes(aplan, static_cast<std::size_t>(k1));
    // This head's rows of a [d_model, k1] slab: bytes [slab_off, +len).
    const std::size_t slab_off = static_cast<std::size_t>(h) * dh * vstride;
    const std::int64_t slabs =
        static_cast<std::int64_t>(cache.v_slabs.size());
    // This head's columns of the raw V rows of keys [raw_base, n).
    const std::int64_t raw_base = k1 * st.slabs_old;
    const float* raw = cache.v_tail.data() + h * head_dim_;
    std::vector<std::uint8_t> packed; // one pack_rows_aligned output
    std::vector<float> buf;           // dense copies, reused

    // Append the new keys: one byte-aligned packed row per key.
    std::vector<std::uint8_t>& kstream =
        cache.k_heads[static_cast<std::size_t>(h)];
    for (std::int64_t t = 0; t < s; ++t) {
        packed.clear();
        gemm::pack_rows_aligned(
            aplan, k.data() + (st.row0 + t) * d_model_ + h * head_dim_, 1,
            dh, rounder, packed);
        std::copy(packed.begin(), packed.end(),
                  kstream.begin() + (p + t) * static_cast<std::ptrdiff_t>(
                                                  kstride));
    }

    // This head's rows of every slab the step completes.  Rows quantize
    // independently, so packing the head's [head_dim, k1] share of the
    // transposed chunk yields exactly the bytes a whole-slab pack puts
    // there.
    for (std::int64_t b = st.slabs_old; b < slabs; ++b) {
        transpose_head(raw + (b * k1 - raw_base) * d_model_, k1, d_model_,
                       head_dim_, buf);
        packed.clear();
        gemm::pack_rows_aligned(aplan, buf.data(), dh,
                                static_cast<std::size_t>(k1), rounder,
                                packed);
        std::copy(packed.begin(), packed.end(),
                  cache.v_slabs[static_cast<std::size_t>(b)].begin() +
                      static_cast<std::ptrdiff_t>(slab_off));
    }

    // Execution views of this head's keys and slab rows, decoded once
    // per step straight from the byte streams — the integer domain; no
    // dequantized prefix exists.
    const gemm::PackedOperand k_op = gemm::PackedOperand::decode_rows(
        aplan, std::span<const std::uint8_t>(kstream),
        static_cast<std::size_t>(n), dh);
    std::vector<gemm::PackedOperand> slab_ops;
    slab_ops.reserve(cache.v_slabs.size());
    for (const std::vector<std::uint8_t>& slab : cache.v_slabs)
        slab_ops.push_back(gemm::PackedOperand::decode_rows(
            aplan,
            std::span<const std::uint8_t>(slab).subspan(slab_off,
                                                        dh * vstride),
            dh, static_cast<std::size_t>(k1)));

    const gemm::GemmPlan gp = gemm::make_gemm_plan(aplan, aplan);

    // Q K^T straight off the packed key rows.
    const float* qh =
        head_block(q, d_model_, st.row0, s, h, head_dim_, buf);
    const gemm::PackedOperand q_op = gemm::PackedOperand::quantize(
        aplan, qh, static_cast<std::size_t>(s), dh, rounder);
    Tensor scores = gemm::matmul_nt_prequant(gp, q_op, k_op);
    scale_and_mask(scores, s, n, p,
                   1.0f / std::sqrt(static_cast<float>(head_dim_)));
    const Tensor probs = tensor::softmax_rows(scores);

    // P V per position: committed slabs feed the NN kernel leg as
    // chunks; only the open tail block [nb * k1, vis) is quantized
    // here, from raw floats — exactly the blocks the causal-visibility
    // discipline defines.
    std::vector<gemm::NnBlockRef> refs;
    for (std::int64_t i = 0; i < s; ++i) {
        const std::int64_t vis = p + i + 1;
        const std::int64_t nb = vis / k1; // full slabs visible
        const std::int64_t tlen = vis - nb * k1;
        const gemm::PackedOperand prow_op = gemm::PackedOperand::quantize(
            aplan, probs.data() + i * n, 1, static_cast<std::size_t>(vis),
            rounder);
        refs.clear();
        for (std::int64_t b = 0; b < nb; ++b)
            refs.push_back({&slab_ops[static_cast<std::size_t>(b)], 0});
        gemm::PackedOperand tail_op;
        if (tlen > 0) {
            transpose_head(raw + (nb * k1 - raw_base) * d_model_, tlen,
                           d_model_, head_dim_, buf);
            tail_op = gemm::PackedOperand::quantize(
                aplan, buf.data(), dh, static_cast<std::size_t>(tlen),
                rounder);
            refs.push_back({&tail_op, 0});
        }
        const Tensor crow = gemm::matmul_nn_packed(gp, prow_op, refs, dh);
        float* row =
            concat.data() + (st.row0 + i) * d_model_ + h * head_dim_;
        for (std::int64_t j = 0; j < head_dim_; ++j)
            row[j] += crow.data()[j];
    }
}

void
MultiHeadAttention::attend_fp32(const StepStream& st, std::int64_t h,
                                const Tensor& q, Tensor& concat) const
{
    const AttnPrefixCache& cache = *st.cache;
    const std::int64_t p = st.p;
    const std::int64_t s = st.s;
    const std::int64_t n = p + s;

    // Rows [row0, row0 + rows) of a [*, d_model] matrix -> this
    // head's [rows, head_dim] slice.
    auto take_head = [this, h](const Tensor& m, std::int64_t row0,
                               std::int64_t rows) {
        Tensor out({rows, head_dim_});
        for (std::int64_t t = 0; t < rows; ++t)
            std::copy(m.data() + (row0 + t) * d_model_ + h * head_dim_,
                      m.data() + (row0 + t) * d_model_ +
                          (h + 1) * head_dim_,
                      out.data() + t * head_dim_);
        return out;
    };
    const Tensor qh = take_head(q, st.row0, s);
    const Tensor kh = take_head(cache.k, 0, n);
    const Tensor vh = take_head(cache.v, 0, n);

    // Suffix query rows against every visible key.  Q K^T quantizes
    // per row (queries along head_dim, keys along head_dim), so key row
    // t's quantization is independent of how many keys exist — scores
    // for masked keys are computed and discarded, never leaked.
    Tensor scores = qmatmul_nt(qh, kh, spec_.forward, spec_.rounding);
    scale_and_mask(scores, s, n, p,
                   1.0f / std::sqrt(static_cast<float>(head_dim_)));
    const Tensor probs = tensor::softmax_rows(scores);

    // ctx row i = P V over EXACTLY the row's visible keys [0, p+i]: the
    // reduction runs along keys, so the transposed-V quantization
    // blocks must span only keys the position may see.  This is the
    // causal-visibility discipline a native MX KV cache implements for
    // free (key blocks are appended, never re-quantized when later
    // tokens arrive) — and it is what makes position p+i's output a
    // pure function of tokens [0, p+i], i.e. what makes prefix reuse
    // exact.
    for (std::int64_t i = 0; i < s; ++i) {
        const std::int64_t vis = p + i + 1;
        Tensor prow({1, vis});
        std::copy(probs.data() + i * n, probs.data() + i * n + vis,
                  prow.data());
        Tensor vt({head_dim_, vis}); // V^T sliced to visible keys
        for (std::int64_t d = 0; d < head_dim_; ++d)
            for (std::int64_t t = 0; t < vis; ++t)
                vt.data()[d * vis + t] = vh.data()[t * head_dim_ + d];
        const Tensor crow = qmatmul_nt(prow, vt, spec_.forward,
                                       spec_.rounding); // [1, head_dim]
        float* row =
            concat.data() + (st.row0 + i) * d_model_ + h * head_dim_;
        for (std::int64_t j = 0; j < head_dim_; ++j)
            row[j] += crow.data()[j];
    }
}

Tensor
MultiHeadAttention::backward(const Tensor& grad_out)
{
    MX_CHECK_ARG(!cache_.empty(),
                 "MultiHeadAttention: backward before forward(train)");
    const std::int64_t batch = cached_batch_;
    const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

    Tensor d_concat = wo_->backward(grad_out);
    Tensor dq = Tensor::zeros({batch * seq_len_, d_model_});
    Tensor dk = Tensor::zeros({batch * seq_len_, d_model_});
    Tensor dv = Tensor::zeros({batch * seq_len_, d_model_});

    for (std::int64_t b = 0; b < batch; ++b) {
        for (std::int64_t h = 0; h < heads_; ++h) {
            const HeadCache& c =
                cache_[static_cast<std::size_t>(b * heads_ + h)];
            Tensor dctx = slice_head(d_concat, b, h); // [T, dh]

            // dP = dctx V^T: reduction over head_dim.
            Tensor dp = qmatmul_nt(dctx, c.v, spec_.backward,
                                   spec_.rounding);
            // dV = P^T dctx: reduction over queries; transpose first.
            Tensor pt = tensor::transpose2d(c.probs);
            Tensor dctx_t = tensor::transpose2d(dctx);
            Tensor dvh = qmatmul_nt(pt, dctx_t, spec_.backward,
                                    spec_.rounding);

            // Softmax backward: dS = P * (dP - rowsum(dP * P)).
            Tensor ds({seq_len_, seq_len_});
            for (std::int64_t i = 0; i < seq_len_; ++i) {
                double dot = 0;
                for (std::int64_t j = 0; j < seq_len_; ++j)
                    dot += static_cast<double>(
                               dp.data()[i * seq_len_ + j]) *
                           c.probs.data()[i * seq_len_ + j];
                for (std::int64_t j = 0; j < seq_len_; ++j) {
                    double g = (dp.data()[i * seq_len_ + j] - dot) *
                               c.probs.data()[i * seq_len_ + j];
                    ds.data()[i * seq_len_ + j] =
                        static_cast<float>(g * scale);
                }
            }

            // dQ = dS K (reduce over keys); dK = dS^T Q (reduce queries).
            Tensor kt = tensor::transpose2d(c.k);
            Tensor dqh = qmatmul_nt(ds, kt, spec_.backward, spec_.rounding);
            Tensor dst = tensor::transpose2d(ds);
            Tensor qt = tensor::transpose2d(c.q);
            Tensor dkh = qmatmul_nt(dst, qt, spec_.backward,
                                    spec_.rounding);

            scatter_head(dq, dqh, b, h);
            scatter_head(dk, dkh, b, h);
            scatter_head(dv, dvh, b, h);
        }
    }

    Tensor dx = wq_->backward(dq);
    tensor::axpy(dx, 1.0f, wk_->backward(dk));
    tensor::axpy(dx, 1.0f, wv_->backward(dv));
    return dx;
}

void
MultiHeadAttention::collect_params(std::vector<Param*>& out)
{
    wq_->collect_params(out);
    wk_->collect_params(out);
    wv_->collect_params(out);
    wo_->collect_params(out);
}

} // namespace nn
} // namespace mx
