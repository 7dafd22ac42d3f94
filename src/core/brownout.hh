/**
 * @file
 * Overload brownout: stepwise degradation of agent rollouts under
 * sustained pressure, restored with hysteresis.
 *
 * The controller watches two cluster-wide signals — KV-pool pressure
 * (max node utilization) and SLO burn rate (PR 3's SloTracker) — and
 * moves through degradation levels:
 *
 *   0 Normal   : rollouts run as configured.
 *   1 Trim     : test-time-scaling width is capped (LATS expansion
 *                children, self-consistency samples, reflection
 *                retries) — the cheapest tokens to give up, per the
 *                paper's cost-of-dynamic-reasoning analysis.
 *   2 Degrade  : deadline-less agents additionally downgrade to a
 *                cheaper workflow (LATS/ToT/BoN/SC -> linear
 *                reasoning); deadline-bearing traffic keeps its
 *                configured workflow.
 *
 * Escalation and restoration both require the pressure/relief
 * condition to hold past a dwell time, and restoration uses lower
 * watermarks than escalation (hysteresis) so the controller does not
 * flap. Every level change is a trace instant and a metric.
 */

#ifndef AGENTSIM_CORE_BROWNOUT_HH
#define AGENTSIM_CORE_BROWNOUT_HH

#include <cstdint>

#include "agents/agent.hh"
#include "sim/simulation.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace_sink.hh"
#include "workload/benchmark.hh"

namespace agentsim::core
{

/** Brownout tuning. Disabled by default (opt-in, like fault
 *  injection). */
struct BrownoutConfig
{
    bool enabled = false;

    /** KV utilization above which pressure is signalled. */
    double kvHighWatermark = 0.90;
    /** KV utilization below which relief is signalled. */
    double kvLowWatermark = 0.65;
    /** SLO burn rate above which pressure is signalled. */
    double burnHighThreshold = 1.5;
    /** SLO burn rate below which relief is signalled. */
    double burnLowThreshold = 0.75;
    /** Dwell time between level changes, seconds (hysteresis). */
    double holdSeconds = 4.0;
    /** Highest level the controller may reach (1 or 2). */
    int maxLevel = 2;

    /** Level >= 1 caps: LATS children per expansion. */
    int trimLatsChildren = 2;
    /** Level >= 1 caps: self-consistency samples. */
    int trimScSamples = 2;
    /** Level >= 1 caps: reflection retries. */
    int trimMaxReflections = 1;
};

/**
 * The controller. observe() is fed by a periodic monitor; apply() is
 * called by the dispatch path on every agent rollout about to start.
 * Single-threaded, owned by runCluster.
 */
class BrownoutController
{
  public:
    explicit BrownoutController(const BrownoutConfig &config);

    /** Emit level changes as trace instants (kResilience, tid 0). */
    void attachTrace(telemetry::TraceSink *sink) { trace_ = sink; }

    /** Every level change becomes an incident trigger (nullptr
     *  detaches). */
    void attachRecorder(telemetry::FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /** Feed one pressure sample; may change the level. */
    void observe(sim::Tick now, double kv_utilization,
                 double burn_rate);

    int level() const { return level_; }
    int maxLevelReached() const { return maxLevelReached_; }
    std::int64_t escalations() const { return escalations_; }
    std::int64_t restorations() const { return restorations_; }
    std::int64_t degradedRollouts() const { return degradedRollouts_; }

    /**
     * Apply the current level to a rollout about to dispatch:
     * level >= 1 trims test-time-scaling width; level >= 2 downgrades
     * deadline-less rollouts to a cheaper workflow supported on
     * @p bench. @return true if anything was changed.
     */
    bool apply(agents::AgentKind &kind, agents::AgentConfig &config,
               workload::Benchmark bench);

    void exportMetrics(telemetry::MetricsRegistry &registry) const;

  private:
    void setLevel(sim::Tick now, int level);

    BrownoutConfig config_;
    telemetry::TraceSink *trace_ = nullptr;
    telemetry::FlightRecorder *recorder_ = nullptr;
    int level_ = 0;
    int maxLevelReached_ = 0;
    sim::Tick lastChange_ = 0;
    std::int64_t escalations_ = 0;
    std::int64_t restorations_ = 0;
    std::int64_t degradedRollouts_ = 0;
};

} // namespace agentsim::core

#endif // AGENTSIM_CORE_BROWNOUT_HH
