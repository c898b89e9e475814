#pragma once

/**
 * @file
 * Clang Thread Safety Analysis annotations + capability-annotated
 * mutex wrappers — the compile-time half of the repo's lock
 * discipline.
 *
 * The serving stack's concurrency (core::ThreadPool lanes,
 * serve::InferenceEngine workers, serve::SessionCache checkout,
 * mx_obs rings/registry) obeys a small lock graph that PRs 5-9 built
 * up and the TSan CI leg checks dynamically.  This header makes the
 * same discipline checkable *statically*: every mutex-protected field
 * is declared `MX_GUARDED_BY(mu_)`, every lock-holding helper declares
 * `MX_REQUIRES(mu_)`, and a Clang build with `-Wthread-safety`
 * (the static-analysis CI leg adds `-Werror`) rejects any access that
 * cannot prove it holds the right capability.  GCC and MSVC see plain
 * `std::mutex` semantics: every macro expands to nothing, so the
 * annotations cost non-Clang builds exactly zero.
 *
 * Two wrapper types carry the capability attributes (std::mutex itself
 * cannot be annotated):
 *
 *  - core::Mutex      — a std::mutex declared as a Clang "capability".
 *  - core::LockGuard  — std::lock_guard equivalent (scoped capability).
 *  - core::UniqueLock — std::unique_lock equivalent with
 *                       condition-variable interop (wait(cv) releases
 *                       and reacquires the native mutex).
 *
 * Condition-variable idiom under the analysis: Clang analyzes a
 * predicate lambda as a separate unannotated function, so the
 * `cv.wait(lk, pred)` form would warn on every guarded field the
 * predicate reads.  Annotated call sites therefore spell the loop out:
 *
 *     core::UniqueLock lk(mu_);
 *     while (!ready_)        // guarded read, capability held: clean
 *         lk.wait(cv_);
 *
 * which is exactly what the predicate overload expands to.
 */

#include <condition_variable>
#include <mutex>

// Attribute detection: Clang exposes the thread-safety attributes via
// __has_attribute; everything else compiles the macros away.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MX_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef MX_THREAD_ANNOTATION
#define MX_THREAD_ANNOTATION(x) // no-op off Clang
#endif

/** Declares a type to be a lockable capability ("mutex"). */
#define MX_CAPABILITY(x) MX_THREAD_ANNOTATION(capability(x))

/** Declares an RAII type that acquires in its ctor / releases in its
 *  dtor (std::lock_guard shape). */
#define MX_SCOPED_CAPABILITY MX_THREAD_ANNOTATION(scoped_lockable)

/** Field access requires holding the given mutex. */
#define MX_GUARDED_BY(x) MX_THREAD_ANNOTATION(guarded_by(x))

/** The function must be called with the capabilities held. */
#define MX_REQUIRES(...) \
    MX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** The function acquires the capabilities (held on return). */
#define MX_ACQUIRE(...) \
    MX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** The function releases the capabilities (must be held on entry). */
#define MX_RELEASE(...) \
    MX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** The function must NOT be called with the capabilities held
 *  (deadlock prevention: documents a lock the callee takes itself). */
#define MX_EXCLUDES(...) MX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Escape hatch: disables the analysis for one function.  Every use
 *  must carry a comment proving why the unsynchronized access is safe
 *  (e.g. the constructor/destructor exclusivity argument). */
#define MX_NO_THREAD_SAFETY_ANALYSIS \
    MX_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace mx {
namespace core {

/**
 * std::mutex declared as a Clang capability.  Drop-in for the
 * `std::mutex mu_;` member it replaces; native() exposes the wrapped
 * mutex for std::condition_variable interop (prefer UniqueLock::wait,
 * which keeps the capability bookkeeping at the call site trivial).
 */
class MX_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    // Bodies delegate to the unannotated std::mutex (libstdc++ carries
    // no thread-safety attributes), so the analysis is suppressed
    // inside — the declaration attributes are what callers check
    // against, exactly how libc++ annotates its own lock internals.
    void
    lock() MX_ACQUIRE() MX_NO_THREAD_SAFETY_ANALYSIS
    {
        mu_.lock();
    }

    void
    unlock() MX_RELEASE() MX_NO_THREAD_SAFETY_ANALYSIS
    {
        mu_.unlock();
    }

    /** The wrapped mutex, for APIs that need the std type. */
    std::mutex&
    native()
    {
        return mu_;
    }

  private:
    std::mutex mu_;
};

/** std::lock_guard over core::Mutex, visible to the analysis. */
class MX_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex& mu) MX_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }

    ~LockGuard() MX_RELEASE() { mu_.unlock(); }

    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;

  private:
    Mutex& mu_;
};

/**
 * std::unique_lock over core::Mutex: the condition-variable lock.
 * Constructed locked; wait(cv) forwards to the std wait (which
 * releases and reacquires the native mutex — the capability is held
 * again when it returns, which is all the analysis needs to know).
 */
class MX_SCOPED_CAPABILITY UniqueLock
{
  public:
    // Acquisition/release happen inside the unannotated
    // std::unique_lock, so the bodies are exempted like Mutex's are.
    explicit UniqueLock(Mutex& mu) MX_ACQUIRE(mu)
        MX_NO_THREAD_SAFETY_ANALYSIS : lk_(mu.native())
    {
    }

    ~UniqueLock() MX_RELEASE() MX_NO_THREAD_SAFETY_ANALYSIS {}

    UniqueLock(const UniqueLock&) = delete;
    UniqueLock& operator=(const UniqueLock&) = delete;

    /** Block until @p cv is notified (spurious wakeups possible: call
     *  inside a `while (!condition)` loop, never bare). */
    void
    wait(std::condition_variable& cv)
    {
        cv.wait(lk_);
    }

  private:
    std::unique_lock<std::mutex> lk_;
};

} // namespace core
} // namespace mx
