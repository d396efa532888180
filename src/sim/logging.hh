/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * fatal()  -- the simulated configuration or input is invalid; the
 *             user can fix it.  Throws FatalError.
 * panic()  -- an internal invariant of the simulator was violated; a
 *             simulator bug.  Throws PanicError.
 * warn()   -- something is suspicious but simulation can continue.
 *
 * Both error forms throw (rather than abort) so that library users
 * and unit tests can observe and recover from them.
 *
 * warn()/inform() are gated by a runtime verbosity level:
 *   0  silent (suppress warnings and info)
 *   1  warnings only (the default)
 *   2  warnings + informational messages
 * The level is process-wide and set via setLogVerbosity(), which the
 * options layer calls for --log (src/driver/options.hh); nothing
 * reads the environment.  warn()/inform() compose
 * their full line before a single stream insertion, so messages from
 * concurrent simulation threads do not interleave mid-line.
 */

#ifndef TS_SIM_LOGGING_HH
#define TS_SIM_LOGGING_HH

#include <atomic>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ts
{

/** Raised by fatal(): user-correctable configuration/input error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& what)
        : std::runtime_error(what)
    {}
};

/** Raised by panic(): internal simulator invariant violation. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string& what)
        : std::logic_error(what)
    {}
};

namespace detail
{

inline void
formatInto(std::ostringstream& os)
{
    (void)os;
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream& os, const T& v, const Rest&... rest)
{
    os << v;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
formatAll(const Args&... args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

} // namespace detail

namespace detail
{

inline std::atomic<int>&
logLevelState()
{
    static std::atomic<int> level{1};
    return level;
}

} // namespace detail

/** Stderr verbosity: 0 silent, 1 warnings (default), 2 info. */
inline int
logVerbosity()
{
    return detail::logLevelState().load(std::memory_order_relaxed);
}

/** Set the process-wide stderr verbosity (see logVerbosity()). */
inline void
setLogVerbosity(int level)
{
    detail::logLevelState().store(level, std::memory_order_relaxed);
}

/** Abort simulation with a user-facing error. */
template <typename... Args>
[[noreturn]] void
fatal(const Args&... args)
{
    throw FatalError(detail::formatAll("fatal: ", args...));
}

/** Abort simulation due to an internal simulator bug. */
template <typename... Args>
[[noreturn]] void
panic(const Args&... args)
{
    throw PanicError(detail::formatAll("panic: ", args...));
}

/** Print a non-fatal warning to stderr (verbosity >= 1). */
template <typename... Args>
void
warn(const Args&... args)
{
    if (logVerbosity() < 1)
        return;
    std::cerr << detail::formatAll("warn: ", args..., "\n")
              << std::flush;
}

/** Print an informational message to stderr (verbosity >= 2). */
template <typename... Args>
void
inform(const Args&... args)
{
    if (logVerbosity() < 2)
        return;
    std::cerr << detail::formatAll("info: ", args..., "\n")
              << std::flush;
}

/** panic() unless the given invariant holds. */
#define TS_ASSERT(cond, ...)                                               \
    do {                                                                   \
        if (!(cond))                                                       \
            ::ts::panic("assertion failed: ", #cond, " ", ##__VA_ARGS__);  \
    } while (0)

} // namespace ts

#endif // TS_SIM_LOGGING_HH
