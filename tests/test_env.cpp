/**
 * @file
 * Corner cases for core/env.h, the one parser behind every MX_* knob.
 *
 * The contracts under test (see env.h's header doc):
 *   - unset/empty -> fallback, silently;
 *   - trim + case-insensitive matching;
 *   - malformed -> fallback AND a once-per-variable stderr warning
 *     (never once per call: knobs are read in hot loops);
 *   - numeric-but-below-floor -> warn + clamp to the floor, NOT the
 *     fallback (MX_GEMM_THREADS=-3 means "as few as possible");
 *   - out-of-range numerals -> fallback (nothing to clamp toward).
 *
 * Each case uses its own variable name: the warn-once set is
 * process-global, so reusing a name would hide later warnings.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/env.h"

namespace {

using mx::core::env::flag_knob;
using mx::core::env::size_knob;

/** RAII setenv: the environment is process state, leave none behind. */
class ScopedEnv
{
  public:
    ScopedEnv(const char* name, const char* value) : name_(name)
    {
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv() { ::unsetenv(name_.c_str()); }

  private:
    std::string name_;
};

/** Run @p fn with @p name set to @p value, capturing stderr. */
template <typename Fn>
std::string
warned(const char* name, const char* value, Fn fn)
{
    ScopedEnv env(name, value);
    testing::internal::CaptureStderr();
    fn();
    return testing::internal::GetCapturedStderr();
}

TEST(SizeKnob, UnsetAndEmptyFallBackSilently)
{
    ScopedEnv unset("MX_TEST_SK_UNSET", nullptr);
    testing::internal::CaptureStderr();
    EXPECT_EQ(size_knob("MX_TEST_SK_UNSET", 7, 1), 7u);
    {
        ScopedEnv empty("MX_TEST_SK_EMPTY", "");
        EXPECT_EQ(size_knob("MX_TEST_SK_EMPTY", 9, 1), 9u);
    }
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(SizeKnob, ParsesTrimmedDecimals)
{
    ScopedEnv env("MX_TEST_SK_TRIM", "  42\t");
    EXPECT_EQ(size_knob("MX_TEST_SK_TRIM", 1, 1), 42u);
}

TEST(SizeKnob, ExplicitPlusSignParses)
{
    ScopedEnv env("MX_TEST_SK_PLUS", "+8");
    EXPECT_EQ(size_knob("MX_TEST_SK_PLUS", 1, 1), 8u);
}

TEST(SizeKnob, BelowFloorClampsToFloorNotFallback)
{
    const std::string err = warned("MX_TEST_SK_ZERO", "0", [] {
        EXPECT_EQ(size_knob("MX_TEST_SK_ZERO", 16, 2), 2u);
    });
    EXPECT_NE(err.find("MX_TEST_SK_ZERO"), std::string::npos);
    EXPECT_NE(err.find("clamping"), std::string::npos);
}

TEST(SizeKnob, NegativeClampsToFloor)
{
    const std::string err = warned("MX_TEST_SK_NEG", "-3", [] {
        EXPECT_EQ(size_knob("MX_TEST_SK_NEG", 16, 1), 1u);
    });
    EXPECT_NE(err.find("clamping"), std::string::npos);
}

TEST(SizeKnob, MalformedFallsBackWithWarning)
{
    const std::string err = warned("MX_TEST_SK_WORDS", "lots", [] {
        EXPECT_EQ(size_knob("MX_TEST_SK_WORDS", 5, 1), 5u);
    });
    EXPECT_NE(err.find("MX_TEST_SK_WORDS"), std::string::npos);
    EXPECT_NE(err.find("lots"), std::string::npos);
}

TEST(SizeKnob, TrailingGarbageIsMalformedNotPrefixParsed)
{
    ScopedEnv env("MX_TEST_SK_MIXED", "12abc");
    EXPECT_EQ(size_knob("MX_TEST_SK_MIXED", 5, 1), 5u);
}

TEST(SizeKnob, OutOfRangeFallsBackInsteadOfSaturating)
{
    ScopedEnv env("MX_TEST_SK_HUGE", "99999999999999999999999999");
    EXPECT_EQ(size_knob("MX_TEST_SK_HUGE", 4, 1), 4u);
}

TEST(SizeKnob, WarnsOncePerVariablePerProcess)
{
    ScopedEnv env("MX_TEST_SK_ONCE", "nope");
    testing::internal::CaptureStderr();
    EXPECT_EQ(size_knob("MX_TEST_SK_ONCE", 3, 1), 3u);
    const std::string first = testing::internal::GetCapturedStderr();
    EXPECT_NE(first.find("MX_TEST_SK_ONCE"), std::string::npos);

    testing::internal::CaptureStderr();
    EXPECT_EQ(size_knob("MX_TEST_SK_ONCE", 3, 1), 3u);
    EXPECT_EQ(size_knob("MX_TEST_SK_ONCE", 3, 1), 3u);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(FlagKnob, AcceptsTheDocumentedTokensCaseInsensitively)
{
    const char* on[] = {"1", "true", "ON", " Yes "};
    const char* off[] = {"0", "False", "off", "NO"};
    for (const char* v : on) {
        ScopedEnv env("MX_TEST_FLAG_TOK", v);
        EXPECT_TRUE(flag_knob("MX_TEST_FLAG_TOK", false)) << v;
    }
    for (const char* v : off) {
        ScopedEnv env("MX_TEST_FLAG_TOK", v);
        EXPECT_FALSE(flag_knob("MX_TEST_FLAG_TOK", true)) << v;
    }
}

TEST(FlagKnob, MalformedKeepsFallbackEitherWay)
{
    const std::string err = warned("MX_TEST_FLAG_BAD", "maybe", [] {
        EXPECT_TRUE(flag_knob("MX_TEST_FLAG_BAD", true));
        EXPECT_TRUE(flag_knob("MX_TEST_FLAG_BAD", true));
    });
    // The warning lists the whole token vocabulary, once.
    EXPECT_NE(err.find("maybe"), std::string::npos);
    EXPECT_NE(err.find("true"), std::string::npos);
    EXPECT_EQ(err.find("expected"),
              err.rfind("expected")); // one warning, not two
}

} // namespace
