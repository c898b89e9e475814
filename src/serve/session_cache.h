#pragma once

/**
 * @file
 * serve::SessionCache — per-stream decode state with an LRU bound.
 *
 * The packed-domain analog of a KV cache's bookkeeping: greedy decode
 * resubmits nearly the same token window every step, so a
 * `GptMini::decode_step`-style adapter can cache the per-layer
 * attention projections of the unchanged window prefix (the session
 * state) and recompute only the new token's column.  This class owns
 * the "per stream" part: a thread-safe map from the caller's session
 * id to an opaque state blob, bounded by an LRU policy so a serving
 * process never accumulates one state per stream it has ever seen.
 *
 * Checkout semantics: take() *removes* the state from the cache and
 * put() re-inserts it after the step.  A second request for the same
 * session arriving while the first is in flight (abnormal for decode,
 * possible with two engine workers) simply misses and recomputes from
 * scratch — session state is never mutated concurrently, and a miss is
 * always correct because prefix reuse is bit-identical to full
 * recompute.
 *
 * Disabled (capacity 0, e.g. MX_SERVE_SESSIONS=0): take() always
 * misses and put() drops the state, so every request takes the full
 * recompute path — the bit-identical fallback.
 *
 * Knobs:
 *   MX_SERVE_SESSIONS  LRU capacity in sessions (default 64; 0 = off)
 */

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "core/thread_annotations.h"

namespace mx {
namespace serve {

/** Bounded, thread-safe session-state store (LRU eviction). */
class SessionCache
{
  public:
    /** @param capacity max resident sessions; 0 disables the cache
     *        (the std::size_t max default resolves the environment) */
    explicit SessionCache(std::size_t capacity = kFromEnvironment);

    /** $MX_SERVE_SESSIONS, or 64 (0 disables). */
    static std::size_t default_capacity();

    /** False when constructed with capacity 0: every take() misses. */
    bool enabled() const { return capacity_ > 0; }
    std::size_t capacity() const { return capacity_; }

    /** Resident session count. */
    std::size_t size() const;

    /**
     * Check the state for @p id out of the cache (removes it); null on
     * a miss.  The caller mutates it privately, then put()s it back.
     */
    template <typename State>
    std::shared_ptr<State>
    take(std::uint64_t id)
    {
        return std::static_pointer_cast<State>(take_erased(id));
    }

    /** Check @p state in as the freshest session; evicts the
     *  least-recently-used session past capacity.  No-op when
     *  disabled.  @p bytes is the state's heap footprint as reported
     *  by the caller (e.g. models::decode_session_bytes) — it feeds
     *  the resident/evicted byte counters, the capacity-planning
     *  numbers the serve bench reports. */
    void put(std::uint64_t id, std::shared_ptr<void> state,
             std::size_t bytes = 0);

    /** Drop one session (e.g. the stream ended). */
    void erase(std::uint64_t id);

    /** Observability counters (snapshot). */
    struct Stats
    {
        std::uint64_t hits = 0;      ///< take() found a state.
        std::uint64_t misses = 0;    ///< take() came back empty.
        std::uint64_t evictions = 0; ///< States dropped by the LRU bound.
        /// Caller-reported bytes of the currently resident sessions.
        std::uint64_t resident_bytes = 0;
        /// Cumulative caller-reported bytes dropped by the LRU bound.
        std::uint64_t evicted_bytes = 0;
    };
    Stats stats() const;

  private:
    /** Sentinel: resolve default_capacity() at construction. */
    static constexpr std::size_t kFromEnvironment =
        static_cast<std::size_t>(-1);

    std::shared_ptr<void> take_erased(std::uint64_t id);

    struct LruEntry
    {
        std::uint64_t id = 0;
        std::shared_ptr<void> state;
        std::size_t bytes = 0;
    };

    mutable core::Mutex mu_;
    std::size_t capacity_; ///< Immutable after construction.
    /// Front = most recently used.
    std::list<LruEntry> lru_ MX_GUARDED_BY(mu_);
    std::unordered_map<std::uint64_t, std::list<LruEntry>::iterator>
        index_ MX_GUARDED_BY(mu_);
    Stats stats_ MX_GUARDED_BY(mu_);
};

} // namespace serve
} // namespace mx
