/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention: fatal() terminates on user error (bad
 * configuration, invalid arguments), panic() aborts on internal invariant
 * violations (library bugs), warn() reports to stderr without stopping.
 */
#ifndef BITDEC_COMMON_LOGGING_H
#define BITDEC_COMMON_LOGGING_H

#include <sstream>
#include <string>

namespace bitdec {

namespace detail {

/** Writes one warning record to stderr. */
void warnImpl(const std::string& msg);

/** Terminates the process after reporting a user-caused fatal error. */
[[noreturn]] void fatalImpl(const char* file, int line, const std::string& msg);

/** Aborts the process after reporting an internal invariant violation. */
[[noreturn]] void panicImpl(const char* file, int line, const std::string& msg);

/** Builds a string from stream-style arguments. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/** Reports a condition that may work but deserves user attention. */
template <typename... Args>
void
warn(Args&&... args)
{
    detail::warnImpl(detail::concat(args...));
}

} // namespace bitdec

/** Terminates with an error message; use for user-caused conditions. */
#define BITDEC_FATAL(...) \
    ::bitdec::detail::fatalImpl(__FILE__, __LINE__, \
                                ::bitdec::detail::concat(__VA_ARGS__))

/** Aborts with an error message; use for internal invariant violations. */
#define BITDEC_PANIC(...) \
    ::bitdec::detail::panicImpl(__FILE__, __LINE__, \
                                ::bitdec::detail::concat(__VA_ARGS__))

/** Panics when an internal invariant does not hold. */
#define BITDEC_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            BITDEC_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__); \
        } \
    } while (0)

#endif // BITDEC_COMMON_LOGGING_H
