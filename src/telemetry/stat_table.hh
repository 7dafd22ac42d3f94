/**
 * @file
 * Field tables: one row per member of a stats struct (counter family,
 * member pointer, help text). A struct's table is the only place its
 * statistics are declared; the Prometheus export, sums over instances
 * (EngineStats over a cluster's nodes) and member-wise comparison all
 * walk it. Every member of these structs is a cumulative total, so
 * every exported row is a counter.
 */

#ifndef AGENTSIM_TELEMETRY_STAT_TABLE_HH
#define AGENTSIM_TELEMETRY_STAT_TABLE_HH

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <variant>

#include "telemetry/registry.hh"

namespace agentsim::telemetry
{

/** One member of stats struct @p S. */
template <class S>
struct StatField
{
    /** Counter family; nullptr for a member that is summed and
     *  compared but not exported. */
    const char *name;
    std::variant<std::int64_t S::*, double S::*> member;
    const char *help;

    double
    value(const S &s) const
    {
        return std::visit(
            [&](auto m) { return static_cast<double>(s.*m); }, member);
    }
};

template <class S>
using StatTable = std::span<const StatField<S>>;

/** Export each named row of @p table as a counter series of
 *  @p stats under @p labels. */
template <class S>
void
exportStats(MetricsRegistry &registry,
            std::type_identity_t<StatTable<S>> table, const S &stats,
            const Labels &labels = {})
{
    for (const StatField<S> &f : table) {
        if (f.name != nullptr)
            registry.counter(f.name, f.help, labels).set(f.value(stats));
    }
}

/** @p into += @p from, row by row. */
template <class S>
void
accumulateStats(std::type_identity_t<StatTable<S>> table, S &into,
                const S &from)
{
    for (const StatField<S> &f : table)
        std::visit([&](auto m) { into.*m += from.*m; }, f.member);
}

/** Export an enum-indexed array as one counter family whose series i
 *  carries the label `key="values[i]"`. */
template <class T, std::size_t N>
void
exportByLabel(MetricsRegistry &registry, const char *name,
              const char *help, const char *key,
              const std::array<const char *, N> &values,
              const std::array<T, N> &counts)
{
    for (std::size_t i = 0; i < N; ++i) {
        registry.counter(name, help, {{key, values[i]}})
            .set(static_cast<double>(counts[i]));
    }
}

} // namespace agentsim::telemetry

#endif // AGENTSIM_TELEMETRY_STAT_TABLE_HH
