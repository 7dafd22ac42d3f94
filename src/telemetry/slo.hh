/**
 * @file
 * Online SLO monitoring: streaming TTFT/TBT/E2E percentiles, windowed
 * SLO attainment, and burn-rate alerting — watching the serving system
 * *while it runs* rather than summarizing after the fact.
 *
 * The tracker follows the SRE error-budget formulation: each latency
 * metric has a target (e.g. "TTFT under 1 s for 95% of requests"); the
 * error budget is the tolerated violation fraction (1 - attainment
 * target); the *burn rate* of a time window is the window's violation
 * fraction divided by that budget. A burn rate of 1 consumes the
 * budget exactly; a crash or stall pushes it far above 1 long before
 * the end-of-run histogram would show anything. When a window's burn
 * rate crosses the alert threshold, the tracker logs a warning, emits
 * a trace instant on the SLO track, and counts the alert — so fault
 * injection (bench/chaos_slo) visibly trips alerts in both the log and
 * the Chrome trace.
 *
 * Percentiles come from one log-linear histogram per metric
 * (stats/hdr_histogram, 1e-4 to 1e5 s within 1%), so the tracker never
 * grows with the run and answers any quantile.
 *
 * An engine step gives every decoder the same TBT, so the engine
 * records a step's decoders as one weighted observation. The
 * weighted form is exact: counts, windows and burn rates match that
 * many single observations, and so does an alert, which carries the
 * window counts at the observation that tripped it.
 */

#ifndef AGENTSIM_TELEMETRY_SLO_HH
#define AGENTSIM_TELEMETRY_SLO_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/types.hh"
#include "stats/hdr_histogram.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace_sink.hh"

namespace agentsim::telemetry
{

/** The latency metrics the tracker watches. */
enum class SloMetric
{
    Ttft, ///< time to first token
    Tbt,  ///< time between tokens (per decode step)
    E2e,  ///< submission-to-completion latency
};

std::string_view sloMetricName(SloMetric m);

/** SLO objectives and alerting policy. */
struct SloConfig
{
    /** Per-metric latency targets, seconds (<= 0 disables a metric). */
    double ttftTargetSeconds = 1.0;
    double tbtTargetSeconds = 0.25;
    double e2eTargetSeconds = 60.0;

    /** Fraction of observations that must meet the target (the SLO
     *  objective, e.g. 0.95 for "95% under target"). */
    double attainmentTarget = 0.95;

    /** Evaluation window length, virtual seconds. */
    double windowSeconds = 10.0;

    /** Alert when a window's burn rate reaches this multiple of the
     *  error budget. */
    double burnRateAlertThreshold = 2.0;

    /** Observations a window needs before it can alert (debounce). */
    std::int64_t minWindowSamples = 10;
};

/**
 * The tracker. Feed it observations stamped with virtual time; it
 * maintains streaming percentiles, lifetime and windowed attainment,
 * and fires at most one burn-rate alert per metric per window.
 * Single-threaded, like everything on the simulation clock.
 */
class SloTracker
{
  public:
    explicit SloTracker(const SloConfig &config);

    /** Attach a trace sink for alert instants (nullptr detaches). */
    void attachTrace(TraceSink *sink);

    /** Attach a flight recorder: every burn-rate alert becomes an
     *  incident trigger (nullptr detaches). */
    void attachRecorder(FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /**
     * Record @p count observations of latency @p seconds for
     * @p metric at time @p now, as if observed one by one (count 0
     * records nothing).
     */
    void observe(SloMetric metric, sim::Tick now, double seconds,
                 std::int64_t count = 1);

    /**
     * Record an unconditional violation (request cancelled, shed or
     * lost to a node failure — it has no meaningful latency but it
     * burns budget all the same).
     */
    void observeFailure(SloMetric metric, sim::Tick now);

    /** Latency quantile @p q, a fraction in (0, 1), within 1%
     *  (0 before the first observation). */
    double percentile(SloMetric metric, double q) const;

    /** Lifetime attainment: fraction of observations under target. */
    double attainment(SloMetric metric) const;

    /** Burn rate of the current (possibly partial) window. */
    double windowBurnRate(SloMetric metric, sim::Tick now) const;

    /** Burn-rate alerts fired so far, all metrics. */
    std::int64_t alertsFired() const;

    /** Alerts fired for one metric. */
    std::int64_t alertsFired(SloMetric metric) const;

    /** Lifetime observations for one metric. */
    std::int64_t observations(SloMetric metric) const;

    /** Lifetime violations for one metric. */
    std::int64_t violations(SloMetric metric) const;

    /**
     * Export agentsim_slo_* families (percentile gauges, attainment,
     * burn rate, violation and alert counters) into @p registry, one
     * series per targeted metric under a `metric` label.
     */
    void exportMetrics(MetricsRegistry &registry, sim::Tick now) const;

    /** Drop all state (reused across bench sweep points). */
    void reset();

    const SloConfig &config() const { return config_; }

  private:
    struct Tracker
    {
        double targetSeconds = 0.0;
        stats::HdrHistogram latency{1e-4, 1e5, 0.01};
        std::int64_t total = 0;
        std::int64_t violations = 0;
        /** Current window: [windowStart, windowStart + window). */
        sim::Tick windowStart = 0;
        std::int64_t windowTotal = 0;
        std::int64_t windowViolations = 0;
        bool windowAlerted = false;
        std::int64_t alerts = 0;
    };

    SloConfig config_;
    sim::Tick windowTicks_ = 0;
    std::array<Tracker, 3> trackers_;
    TraceSink *trace_ = nullptr;
    FlightRecorder *recorder_ = nullptr;

    Tracker &tracker(SloMetric m);
    const Tracker &tracker(SloMetric m) const;

    /** Roll the metric's window forward to contain @p now. */
    void rotateWindow(Tracker &t, sim::Tick now);

    /** Account @p count observations; @p violated forces a
     *  violation. */
    void record(SloMetric metric, sim::Tick now, double seconds,
                std::int64_t count, bool violated, bool has_latency);

    /** Burn rate of @p violations out of @p total observations. */
    double burnRate(std::int64_t violations, std::int64_t total) const;

    /**
     * The observation (1-based) of a batch of @p count, all
     * @p violated or all not, after which the window alerts; 0 if
     * none does.
     */
    std::int64_t alertIndex(const Tracker &t, std::int64_t count,
                            bool violated) const;

    /** Fire the window's alert at its current counts. */
    void fireAlert(SloMetric metric, Tracker &t, sim::Tick now);
};

} // namespace agentsim::telemetry

#endif // AGENTSIM_TELEMETRY_SLO_HH
