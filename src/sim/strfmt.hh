/**
 * @file
 * Minimal printf-style string formatting (std::format is unavailable on
 * the GCC 12 toolchain this project targets).
 */

#ifndef AGENTSIM_SIM_STRFMT_HH
#define AGENTSIM_SIM_STRFMT_HH

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <string>

namespace agentsim::sim
{

/** strfmt() over an argument list, which it consumes. */
inline std::string
vstrfmt(const char *fmt, std::va_list args)
{
    if (fmt == nullptr || fmt[0] == '\0')
        return {};

    std::va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);

    std::string out;
    if (needed > 0) {
        out.resize(static_cast<size_t>(needed) + 1);
        std::vsnprintf(out.data(), out.size(), fmt, args_copy);
        out.resize(static_cast<size_t>(needed));
    }
    va_end(args_copy);
    return out;
}

/**
 * Format a printf-style message into a std::string.
 *
 * @param fmt printf format string (may be empty).
 * @return the formatted string.
 */
#if defined(__GNUC__)
__attribute__((format(printf, 1, 2)))
#endif
inline std::string
strfmt(const char *fmt = "", ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string out = vstrfmt(fmt, args);
    va_end(args);
    return out;
}

/**
 * Append @p v to @p out with std::to_chars; @p fmt as to_chars takes
 * it: a base for an integer, or a std::chars_format and a precision
 * for a double. The standard defines those overloads as printf's
 * digits: (fixed, 6) writes "%.6f", (general, 17) writes "%.17g".
 */
template <typename T, typename... Fmt>
void
appendChars(std::string &out, T v, Fmt... fmt)
{
    // A double in fixed notation can take 309 digits before the point.
    char buf[352];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), v, fmt...).ptr);
}

} // namespace agentsim::sim

#endif // AGENTSIM_SIM_STRFMT_HH
