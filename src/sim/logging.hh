/**
 * @file
 * Error-reporting helpers in the gem5 tradition.
 *
 * panic()  — an internal invariant was violated (simulator bug); aborts.
 * fatal()  — the user asked for something impossible (bad configuration);
 *            exits with an error code.
 * warn()   — something questionable happened but simulation continues.
 * inform() — status messages.
 * debug()  — verbose diagnostics, off by default.
 *
 * warn/inform/debug are filtered by a severity threshold, settable
 * programmatically (setLogLevel) or via the AGENTSIM_LOG_LEVEL
 * environment variable ("debug", "info", "warn", "error"/"quiet").
 * panic/fatal are never filtered.
 */

#ifndef AGENTSIM_SIM_LOGGING_HH
#define AGENTSIM_SIM_LOGGING_HH

#include <optional>
#include <string>

#include "sim/strfmt.hh"

namespace agentsim::sim
{

/** Message severity, most verbose first. */
enum class LogLevel
{
    Debug = 0,
    Info = 1,
    Warn = 2,
    /** Suppresses warn/info/debug; panic/fatal still print. */
    Error = 3,
};

/**
 * Current threshold: messages below it are dropped. Initialized from
 * AGENTSIM_LOG_LEVEL on first use (default: Info, matching the
 * historical always-print behaviour of warn/inform).
 */
LogLevel logLevel();

/** Override the threshold (also overrides the environment). */
void setLogLevel(LogLevel level);

/** True if a message at @p level would currently be printed. */
bool logEnabled(LogLevel level);

/**
 * Parse a level name ("debug", "info", "warn"/"warning",
 * "error"/"quiet"/"none"), case-insensitive. @return nullopt on an
 * unrecognized name.
 */
std::optional<LogLevel> parseLogLevel(std::string_view name);

/** Abort with a message: something that should never happen did. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/**
 * Abort on a failed AGENTSIM_ASSERT with "assertion failed: <cond>
 * <detail>", the detail formatted from @p fmt. Cold and out of line,
 * so an assertion costs its call site only the test and a call.
 */
[[noreturn, gnu::cold, gnu::noinline, gnu::format(printf, 4, 5)]] void
assertFailed(const char *file, int line, const char *cond,
             const char *fmt, ...);

/** Exit(1) with a message: unusable user configuration. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);

/** Print a warning to stderr (subject to the level filter). */
void warnImpl(const std::string &msg);

/** Print an informational message to stderr (filtered). */
void informImpl(const std::string &msg);

/** Print a verbose diagnostic to stderr (filtered). */
void debugImpl(const std::string &msg);

} // namespace agentsim::sim

#define AGENTSIM_PANIC(...) \
    ::agentsim::sim::panicImpl(__FILE__, __LINE__, \
                               ::agentsim::sim::strfmt(__VA_ARGS__))

#define AGENTSIM_FATAL(...) \
    ::agentsim::sim::fatalImpl(__FILE__, __LINE__, \
                               ::agentsim::sim::strfmt(__VA_ARGS__))

#define AGENTSIM_WARN(...) \
    do { \
        if (::agentsim::sim::logEnabled( \
                ::agentsim::sim::LogLevel::Warn)) { \
            ::agentsim::sim::warnImpl( \
                ::agentsim::sim::strfmt(__VA_ARGS__)); \
        } \
    } while (0)

#define AGENTSIM_INFORM(...) \
    do { \
        if (::agentsim::sim::logEnabled( \
                ::agentsim::sim::LogLevel::Info)) { \
            ::agentsim::sim::informImpl( \
                ::agentsim::sim::strfmt(__VA_ARGS__)); \
        } \
    } while (0)

#define AGENTSIM_DEBUG(...) \
    do { \
        if (::agentsim::sim::logEnabled( \
                ::agentsim::sim::LogLevel::Debug)) { \
            ::agentsim::sim::debugImpl( \
                ::agentsim::sim::strfmt(__VA_ARGS__)); \
        } \
    } while (0)

/** Panic unless a simulator invariant holds. */
#define AGENTSIM_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::agentsim::sim::assertFailed(__FILE__, __LINE__, #cond, \
                                          __VA_ARGS__); \
        } \
    } while (0)

#endif // AGENTSIM_SIM_LOGGING_HH
