#pragma once

/**
 * @file
 * One parser for every MX_* environment knob.
 *
 * Before this header existed each getenv site re-implemented parsing
 * with its own silent-fallback rules: MX_THREADS and the MX_SERVE_*
 * knobs each rolled their own strtoull loop, and MX_FORCE_SCALAR
 * treated every non-"0" string — including "false" — as true.  A typo'd knob silently configuring the opposite of what
 * the operator asked for is the worst kind of serving bug, so these
 * helpers share one rule set:
 *
 *  - unset or empty always means "use the fallback", silently;
 *  - values are trimmed of surrounding whitespace and matched
 *    case-insensitively ("ON", " on " and "On" all parse);
 *  - a malformed value falls back AND warns once per variable on
 *    stderr (once per process, so a knob read in a hot loop cannot
 *    spam the log).
 *
 * Knobs routed through here: MX_THREADS, MX_FORCE_SCALAR,
 * MX_FORCE_AVX2, MX_GEMM_THREADS, MX_SERVE_BATCH, MX_SERVE_QUEUE,
 * MX_SERVE_SESSIONS.  The environment is re-read on every call (knob
 * caching, where wanted, is the call site's business — and several
 * tests re-point knobs mid-process).
 */

#include <cstddef>

namespace mx {
namespace core {
namespace env {

/**
 * Parse @p name as a size knob.  Accepts a plain decimal integer
 * >= @p min_value.  A numeric value *below* the floor (0 or a negative
 * thread count) warns once and clamps to @p min_value — an operator
 * asking for "no threads" means the minimum, and propagating a zero
 * into shard math divides by it.  Anything non-numeric (trailing junk,
 * out of range) warns once and returns @p fallback.
 */
std::size_t size_knob(const char* name, std::size_t fallback,
                      std::size_t min_value = 1);

/**
 * Parse @p name as a boolean knob.  Accepts 1/true/on/yes and
 * 0/false/off/no (any case); anything else warns once and returns
 * @p fallback.
 */
bool flag_knob(const char* name, bool fallback);

} // namespace env
} // namespace core
} // namespace mx
