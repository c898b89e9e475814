#include "core/env.h"

#include "core/thread_annotations.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>

namespace mx {
namespace core {
namespace env {

namespace {

/** Trimmed, lower-cased copy of the raw value. */
std::string
normalize(const char* raw)
{
    std::string v(raw);
    const auto is_space = [](unsigned char c) { return std::isspace(c); };
    while (!v.empty() && is_space(static_cast<unsigned char>(v.front())))
        v.erase(v.begin());
    while (!v.empty() && is_space(static_cast<unsigned char>(v.back())))
        v.pop_back();
    std::transform(v.begin(), v.end(), v.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return v;
}

/** Names already warned about (leaked: warn_once can run at exit). */
Mutex g_warned_mu;
std::set<std::string>* g_warned MX_GUARDED_BY(g_warned_mu) = nullptr;

/** Warn once per variable per process (a knob read in a hot loop must
 *  not spam stderr). */
void
warn_once(const char* name, const char* raw, const std::string& expected,
          const char* action = "using the default")
{
    {
        LockGuard lk(g_warned_mu);
        if (g_warned == nullptr)
            g_warned = new std::set<std::string>;
        if (!g_warned->insert(name).second)
            return;
    }
    std::fprintf(stderr,
                 "mx: ignoring malformed %s=\"%s\" (expected %s); %s\n",
                 name, raw, expected.c_str(), action);
}

} // namespace

std::size_t
size_knob(const char* name, std::size_t fallback, std::size_t min_value)
{
    const char* raw = std::getenv(name);
    if (raw == nullptr || raw[0] == '\0')
        return fallback;
    const std::string v = normalize(raw);
    // Numeric = optional sign + digits.  A signed value is "nonsense
    // but a number": it clamps to the floor below instead of silently
    // configuring the default (MX_GEMM_THREADS=-3 means "as few as
    // possible", not "pool-sized").
    const std::size_t digits0 =
        !v.empty() && (v[0] == '-' || v[0] == '+') ? 1 : 0;
    const bool numeric =
        v.size() > digits0 &&
        std::all_of(v.begin() + static_cast<std::ptrdiff_t>(digits0),
                    v.end(),
                    [](unsigned char c) { return std::isdigit(c); });
    if (!numeric) {
        warn_once(name, raw,
                  "an integer >= " + std::to_string(min_value));
        return fallback;
    }
    unsigned long long parsed = 0;
    bool below_floor = v[0] == '-';
    if (!below_floor) {
        errno = 0;
        parsed = std::strtoull(v.c_str(), nullptr, 10);
        if (errno != 0) {
            // Out of range for the type: not a value to clamp toward.
            warn_once(name, raw,
                      "an integer >= " + std::to_string(min_value));
            return fallback;
        }
        below_floor = parsed < min_value;
    }
    if (below_floor) {
        warn_once(name, raw,
                  "an integer >= " + std::to_string(min_value),
                  "clamping to the minimum");
        return min_value;
    }
    return static_cast<std::size_t>(parsed);
}

bool
flag_knob(const char* name, bool fallback)
{
    const char* raw = std::getenv(name);
    if (raw == nullptr || raw[0] == '\0')
        return fallback;
    const std::string v = normalize(raw);
    if (v == "1" || v == "true" || v == "on" || v == "yes")
        return true;
    if (v == "0" || v == "false" || v == "off" || v == "no")
        return false;
    warn_once(name, raw, "one of: 1 true on yes 0 false off no");
    return fallback;
}

} // namespace env
} // namespace core
} // namespace mx
