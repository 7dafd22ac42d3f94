/**
 * @file
 * Bottleneck report: the read side of the causal span subsystem
 * (telemetry/span.hh). Renders the per-workflow blame aggregates —
 * mean and p95 seconds per category — as a console table, exports
 * them as agentsim_blame_* metric families, and re-emits the retained
 * tail-exemplar span trees as a Perfetto-compatible async track so
 * "why was the p95 slow" can be answered visually.
 */

#ifndef AGENTSIM_CORE_BOTTLENECK_REPORT_HH
#define AGENTSIM_CORE_BOTTLENECK_REPORT_HH

#include <string>

#include "core/table.hh"
#include "telemetry/registry.hh"
#include "telemetry/span.hh"
#include "telemetry/trace_sink.hh"

namespace agentsim::core
{

/**
 * Blame table: one row per workflow label with request count, mean
 * and p95 latency, and mean/p95 seconds for every blame category.
 */
Table renderBlameTable(const telemetry::SpanCollector &spans,
                       const std::string &title = "Blame report");

/**
 * Export aggregates as metrics, one series per workflow label:
 *   agentsim_blame_mean_<category>_seconds{workflow}
 *   agentsim_blame_p95_<category>_seconds{workflow}
 *   agentsim_blame_requests{workflow}
 * plus collector totals (agentsim_blame_requests_total,
 * agentsim_blame_exemplars_retained / _evicted).
 */
void exportBlameMetrics(const telemetry::SpanCollector &spans,
                        telemetry::MetricsRegistry &registry);

/**
 * Emit the retained tail exemplars on the trace's kSpans track as
 * nestable async lanes (one id per exemplar). Sibling fan-out spans
 * genuinely overlap, which async events render correctly; each span
 * carries kind/category args and critical-path members are marked.
 */
void emitSpanExemplars(const telemetry::SpanCollector &spans,
                       telemetry::TraceSink &trace);

} // namespace agentsim::core

#endif // AGENTSIM_CORE_BOTTLENECK_REPORT_HH
