/**
 * @file
 * Status and error reporting helpers in the spirit of gem5's
 * base/logging.hh.
 *
 * fatal() is for user errors (bad configuration); it throws a
 * FatalError so library users and tests can recover. panic() is for
 * internal invariant violations and aborts the process in release
 * builds as well.
 */

#ifndef XFM_COMMON_LOGGING_HH
#define XFM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace xfm
{

/** Exception thrown by fatal() on unrecoverable user error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

namespace detail
{

/** Concatenate a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

void emit(const char *level, const std::string &msg);

} // namespace detail

/** Print a warning about questionable but survivable conditions. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emit("warn", detail::concat(std::forward<Args>(args)...));
}

/**
 * Report an unrecoverable user-caused error.
 *
 * @throws FatalError always.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    std::string msg = detail::concat(std::forward<Args>(args)...);
    detail::emit("fatal", msg);
    throw FatalError(msg);
}

/**
 * Report an internal invariant violation (a bug) and abort.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::emit("panic", detail::concat(std::forward<Args>(args)...));
    std::abort();
}

/** Assert an invariant with a formatted message; panics on failure. */
#define XFM_ASSERT(cond, ...)                                             \
    do {                                                                  \
        if (!(cond))                                                      \
            ::xfm::panic("assertion '", #cond, "' failed: ",              \
                         ##__VA_ARGS__);                                  \
    } while (0)

} // namespace xfm

#endif // XFM_COMMON_LOGGING_HH
