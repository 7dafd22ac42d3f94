/**
 * @file
 * SessionTelemetry: the bundle a harness (serving system, bench
 * binary, example) hands to a run to collect everything at once —
 * the metrics registry, the cross-layer trace, causal spans, the
 * sampled time series and the flight recorder.
 */

#ifndef AGENTSIM_TELEMETRY_SESSION_HH
#define AGENTSIM_TELEMETRY_SESSION_HH

#include <string>

#include "telemetry/flight_recorder.hh"
#include "telemetry/registry.hh"
#include "telemetry/span.hh"
#include "telemetry/timeseries.hh"
#include "telemetry/trace_sink.hh"

namespace agentsim::telemetry
{

/**
 * Aggregated per-run telemetry. The run attaches the trace sink to
 * its engine and agents and exports end-of-run metrics into the
 * registry; a run given the store also samples the registry into it
 * at the store's cadence.
 */
struct SessionTelemetry
{
    MetricsRegistry registry;
    TraceSink trace;
    /** Causal span trees, blame aggregates and tail exemplars. */
    SpanCollector spans;
    /** Windowed metric rings sampled at a fixed sim-clock cadence. */
    TimeSeriesStore timeseries;
    /** Retroactive incident capture (off unless a run attaches it). */
    FlightRecorder recorder;

    /** Drop all collected state (reused across bench sweep points). */
    void
    reset()
    {
        registry.clear();
        trace.clear();
        spans.clear();
        timeseries.clear();
        recorder.clear();
    }

    /** Write the Prometheus exposition. @return success. */
    bool
    writeMetrics(const std::string &path) const
    {
        return writeTextFile(path, registry.renderPrometheus());
    }

    /** Write the Chrome trace JSON. @return success. */
    bool
    writeTrace(const std::string &path) const
    {
        return trace.writeJson(path);
    }
};

} // namespace agentsim::telemetry

#endif // AGENTSIM_TELEMETRY_SESSION_HH
