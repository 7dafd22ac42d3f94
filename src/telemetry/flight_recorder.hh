/**
 * @file
 * Flight recorder: bounded retroactive capture that turns alerts into
 * self-explaining incident bundles.
 *
 * The recorder reads its trace window from the attached TraceSink's
 * log (the newest traceEventCapacity records, which the sink keeps
 * anyway),
 * tees span completions into a ring buffer — cheap enough to leave
 * on — and does nothing else until an anomaly trigger fires: an SLO
 * burn-rate alert, a brownout level change, a circuit-breaker open,
 * an autoscaler scale-out (or scale flap), or a spike of deadline
 * misses. At that moment it dumps an **incident bundle**: a directory
 * holding
 *
 *   trace.json      — Perfetto trace of the retroactive window
 *                     (every track name, recent trace events
 *                     intersecting the window, plus the window's span
 *                     completions as async lanes with blame
 *                     annotations);
 *   timeseries.csv  — every sampled metric series restricted to the
 *                     window (from the attached TimeSeriesStore);
 *   manifest.json   — trigger identity, window bounds, the windowed
 *                     critical-path blame table aggregated over the
 *                     window's span completions, and the slowest
 *                     requests with their blame splits.
 *
 * Per-trigger debounce and a global disk budget keep a flapping
 * system from writing unbounded bundles. Everything here is a pure
 * observer: the recorder reads sim state and writes host files, never
 * consumes sim RNG or mutates sim state, so recorder-off runs are
 * bit-identical to recorder-on runs.
 */

#ifndef AGENTSIM_TELEMETRY_FLIGHT_RECORDER_HH
#define AGENTSIM_TELEMETRY_FLIGHT_RECORDER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "stats/hdr_histogram.hh"
#include "telemetry/span.hh"
#include "telemetry/timeseries.hh"

namespace agentsim::telemetry
{

class MetricsRegistry;
class TraceSink;

/** Anomaly sources that can dump an incident bundle. */
enum class IncidentTrigger
{
    SloBurn,           ///< SLO burn-rate alert (telemetry/slo)
    Brownout,          ///< brownout level transition (core/brownout)
    BreakerOpen,       ///< circuit breaker opened (core/health)
    Autoscale,         ///< autoscaler scale-out or flap (core/autoscaler)
    DeadlineMissSpike, ///< burst of request deadline misses (cluster)
};

constexpr std::size_t kIncidentTriggers = 5;

const char *incidentTriggerName(IncidentTrigger t);

/** One span completion retained in the recorder's ring. */
struct SpanCompletion
{
    std::uint64_t requestKey = 0;
    std::string workflow;
    BlameVector blame;
    double latencySeconds = 0.0;
    bool sloViolated = false;
    sim::Tick start = 0;
    sim::Tick end = 0;
};

class FlightRecorder
{
  public:
    struct Config
    {
        /** Directory incident bundles are written under. */
        std::string incidentDir = "incidents";
        /** Retroactive window dumped per incident, virtual seconds. */
        double windowSeconds = 30.0;
        /** Trace window: the newest data records of the attached
         *  sink's log (and of its overflow tail). */
        std::size_t traceEventCapacity = 65536;
        /** Span-completion ring capacity. */
        std::size_t spanCapacity = 4096;
        /** The sink's first metadata (process/thread name) records
         *  carried by each bundle. */
        std::size_t metadataCapacity = 4096;
        /** Per-trigger-kind minimum spacing between dumps,
         *  virtual seconds. */
        double debounceSeconds = 30.0;
        /** Global cap on bundle bytes written (0 = unlimited). */
        std::int64_t diskBudgetBytes = 64ll << 20;
        /** Deadline misses within missWindowSeconds that constitute
         *  a spike. */
        int missSpikeCount = 8;
        double missWindowSeconds = 5.0;
        /** Tail exemplars kept by the latency histogram. */
        std::size_t latencyExemplars = 8;
    };

    FlightRecorder();
    explicit FlightRecorder(Config config);
    /** Detaches from the sink, which holds a pointer to this. */
    ~FlightRecorder();
    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Reconfigure; call before the run (resets the latency ring). */
    void setConfig(Config config);
    const Config &config() const { return config_; }

    /** Attach the time-series store exported into bundles
     *  (nullptr detaches). */
    void attachTimeSeries(const TimeSeriesStore *store)
    {
        timeseries_ = store;
    }

    // ---- continuous tees (called by SpanCollector / the cluster) ----

    /** Retain a finished request with its critical-path blame. */
    void noteSpanCompletion(const SpanCompletion &completion);

    /** Feed the deadline-miss spike detector; may self-trigger. */
    void noteDeadlineMiss(sim::Tick now);

    // ---- triggers ----

    /**
     * Fire an anomaly trigger at @p now. Dumps a bundle unless the
     * kind is within its debounce interval or the disk budget is
     * exhausted (both counted).
     */
    void trigger(IncidentTrigger kind, sim::Tick now,
                 const std::string &detail);

    // ---- results ----

    /** Bundle directories dumped, in order. */
    const std::vector<std::string> &incidentPaths() const
    {
        return incidents_;
    }

    std::int64_t incidentsDumped() const
    {
        return static_cast<std::int64_t>(incidents_.size());
    }
    std::int64_t skippedDebounce() const { return skippedDebounce_; }
    std::int64_t skippedBudget() const { return skippedBudget_; }
    std::int64_t writeFailures() const { return writeFailures_; }
    std::int64_t bytesWritten() const { return bytesWritten_; }
    /** Trace records in the window (0 with no sink attached). */
    std::size_t traceEventsRetained() const;
    std::size_t spansRetained() const { return spanRing_.size(); }

    /** HDR latency distribution over every retained completion, with
     *  tail exemplars naming request keys. */
    const stats::HdrHistogram &latency() const { return latency_; }

    /** Export agentsim_incident_* counters into @p registry. */
    void exportMetrics(MetricsRegistry &registry) const;

    /** Drop all state and detach from the sink (reused across bench
     *  sweep points). */
    void clear();

  private:
    friend class TraceSink;

    Config config_;
    const TimeSeriesStore *timeseries_ = nullptr;
    /** The sink whose log holds the trace window (set by
     *  TraceSink::attachRecorder). */
    TraceSink *trace_ = nullptr;

    std::deque<SpanCompletion> spanRing_;

    std::deque<sim::Tick> recentMisses_;

    stats::HdrHistogram latency_;

    /** Last dump tick per trigger kind (-1 = never fired). */
    std::array<sim::Tick, kIncidentTriggers> lastDump_;
    std::vector<std::string> incidents_;
    std::int64_t skippedDebounce_ = 0;
    std::int64_t skippedBudget_ = 0;
    std::int64_t writeFailures_ = 0;
    std::int64_t bytesWritten_ = 0;

    /** Every dump renders its three files into this one buffer,
     *  kept across dumps so its capacity is reused. */
    std::string buffer_;
    /** The JSON of the sink's first metadataCapacity metadata
     *  records, each led by ",\n". Those records only ever grow, so
     *  a dump renders only the ones added since the last. */
    std::string metadataJson_;
    std::size_t metadataRendered_ = 0;
    /** Whether metadataJson_ names the span track. */
    bool spansNamed_ = false;

    stats::HdrHistogram makeLatencyHistogram() const;
    /** Drop the rendered metadata (the sink changed or was
     *  cleared). */
    void forgetMetadata();
    void dumpBundle(IncidentTrigger kind, sim::Tick now,
                    const std::string &detail);
    /** Append the bundle trace to buffer_, with a lane per span of
     *  @p window_spans. @return the windowed sink records it holds. */
    std::size_t appendBundleTrace(
        sim::Tick from, sim::Tick to,
        const std::vector<const SpanCompletion *> &window_spans);
    void appendManifest(IncidentTrigger kind, sim::Tick now,
                        const std::string &detail, sim::Tick from,
                        sim::Tick to, std::size_t trace_events,
                        const std::vector<const SpanCompletion *>
                            &window_spans);
};

} // namespace agentsim::telemetry

#endif // AGENTSIM_TELEMETRY_FLIGHT_RECORDER_HH
