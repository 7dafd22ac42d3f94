#include "sim/logging.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace agentsim::sim
{

namespace
{

LogLevel
initialLevel()
{
    const char *env = std::getenv("AGENTSIM_LOG_LEVEL");
    if (env == nullptr)
        return LogLevel::Info;
    if (auto parsed = parseLogLevel(env))
        return *parsed;
    std::fprintf(stderr,
                 "warn: unrecognized AGENTSIM_LOG_LEVEL \"%s\"; "
                 "using \"info\"\n",
                 env);
    return LogLevel::Info;
}

LogLevel &
levelRef()
{
    static LogLevel level = initialLevel();
    return level;
}

/** Parse AGENTSIM_LOG_LEVEL at load so typos warn immediately. */
[[maybe_unused]] const LogLevel kLoadTimeLevel = levelRef();

} // namespace

std::optional<LogLevel>
parseLogLevel(std::string_view name)
{
    std::string lower;
    lower.reserve(name.size());
    for (char c : name)
        lower += static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lower == "debug")
        return LogLevel::Debug;
    if (lower == "info")
        return LogLevel::Info;
    if (lower == "warn" || lower == "warning")
        return LogLevel::Warn;
    if (lower == "error" || lower == "quiet" || lower == "none")
        return LogLevel::Error;
    return std::nullopt;
}

LogLevel
logLevel()
{
    return levelRef();
}

void
setLogLevel(LogLevel level)
{
    levelRef() = level;
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) >= static_cast<int>(levelRef());
}

void
assertFailed(const char *file, int line, const char *cond,
             const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    const std::string detail = vstrfmt(fmt, args);
    va_end(args);
    panicImpl(file, line,
              std::string("assertion failed: ") + cond + " " + detail);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
debugImpl(const std::string &msg)
{
    std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

} // namespace agentsim::sim
