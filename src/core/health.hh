/**
 * @file
 * Per-node health tracking and circuit breakers for health-aware
 * routing.
 *
 * Every routed request reports its outcome back to a HealthRegistry;
 * each node keeps time-decayed EWMAs of failures (sheds, timeouts,
 * node-failure errors) and queue depth, and a per-node circuit
 * breaker turns a persistently failing node into a no-route zone:
 *
 *   Closed ──(failure EWMA over threshold)──▶ Open
 *   Open ──(cool-down elapsed)──▶ HalfOpen (probe admissions)
 *   HalfOpen ──(probes succeed)──▶ Closed / ──(probe fails)──▶ Open
 *
 * The router consults allows() before dispatch, so retries stop
 * hammering sick, crashed-and-cold, or draining nodes. Routing fails
 * open: when every accepting node is breaker-denied the router falls
 * back to ignoring the breakers rather than stalling the client.
 */

#ifndef AGENTSIM_CORE_HEALTH_HH
#define AGENTSIM_CORE_HEALTH_HH

#include <cstdint>
#include <vector>

#include "sim/simulation.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace_sink.hh"

namespace agentsim::core
{

/** Circuit-breaker state of one node. */
enum class BreakerState
{
    Closed,
    Open,
    HalfOpen,
};

std::string_view breakerStateName(BreakerState state);

/** Health/breaker tuning. Defaults are deliberately conservative:
 *  a breaker opens only on a sustained failure majority. */
struct HealthConfig
{
    /** Master switch; off restores pure online()-based routing. */
    bool breakerEnabled = true;
    /** Time constant of the exponential outcome/queue decay, s. */
    double ewmaTauSeconds = 10.0;
    /** Decayed failure fraction at which a Closed breaker opens. */
    double failureRateOpenThreshold = 0.6;
    /** Minimum decayed event weight before opening (debounce). */
    double minEventsToOpen = 4.0;
    /** Cool-down before an Open breaker half-opens, seconds. */
    double openSeconds = 4.0;
    /** Successful probes needed to close a HalfOpen breaker. */
    int halfOpenSuccesses = 2;
};

/**
 * Time-decayed outcome and queue-depth EWMAs of one node. Irregular
 * samples: every update first decays the accumulated weight by
 * exp(-dt/tau), so the failure rate is dominated by the last ~tau
 * seconds of traffic.
 */
class NodeHealth
{
  public:
    explicit NodeHealth(double tau_seconds) : tau_(tau_seconds) {}

    void recordOutcome(sim::Tick now, bool failure);
    void recordQueueDepth(sim::Tick now, double depth);

    /** Decayed failure fraction in [0,1] (0 when no recent events). */
    double failureRate(sim::Tick now) const;
    /** Decayed number of recent outcome events. */
    double eventWeight(sim::Tick now) const;
    /** Decayed queue-depth average (last sampled window). */
    double queueDepthEwma() const { return queueEwma_; }

    void reset();

  private:
    double decayFactor(sim::Tick now, sim::Tick since) const;

    double tau_ = 10.0;
    double failures_ = 0.0;
    double total_ = 0.0;
    sim::Tick lastOutcome_ = 0;
    double queueEwma_ = 0.0;
    sim::Tick lastQueue_ = -1;
};

/**
 * Health + breaker state for a fleet of nodes. Single-threaded, owned
 * by runCluster; the router reads, the workers write.
 */
class HealthRegistry
{
  public:
    HealthRegistry(const HealthConfig &config, std::size_t num_nodes);

    /** Emit breaker transitions as trace instants (kResilience). */
    void attachTrace(telemetry::TraceSink *sink) { trace_ = sink; }

    /** Every breaker *open* becomes an incident trigger (nullptr
     *  detaches). */
    void attachRecorder(telemetry::FlightRecorder *recorder)
    {
        recorder_ = recorder;
    }

    /**
     * May the router send traffic to @p node now? Transitions an Open
     * breaker to HalfOpen once its cool-down elapses (every HalfOpen
     * admission is a probe). Always true when breakers are disabled.
     */
    bool allows(std::size_t node, sim::Tick now);

    /** Report a routed request's outcome on @p node. */
    void reportSuccess(std::size_t node, sim::Tick now);
    void reportFailure(std::size_t node, sim::Tick now);

    /** Periodic queue-depth sample (monitor coroutine). */
    void recordQueueDepth(std::size_t node, sim::Tick now, double depth);

    /**
     * A freshly provisioned node (autoscaler scale-out) enters the
     * fleet: its history is wiped and — when breakers are enabled —
     * it starts HalfOpen, earning trust through probe admissions
     * rather than receiving a full traffic share cold.
     */
    void markProvisioned(std::size_t node, sim::Tick now);

    BreakerState state(std::size_t node) const;
    const NodeHealth &health(std::size_t node) const;

    std::int64_t opens() const { return opens_; }
    std::int64_t closes() const { return closes_; }
    /** Router picks that ignored the breakers (every accepting node
     *  was denied; failing open avoids livelock). */
    std::int64_t failOpenPicks() const { return failOpenPicks_; }
    void noteFailOpenPick() { ++failOpenPicks_; }

    void exportMetrics(telemetry::MetricsRegistry &registry) const;

  private:
    struct Entry
    {
        NodeHealth health;
        BreakerState state = BreakerState::Closed;
        sim::Tick openedAt = 0;
        int probeSuccesses = 0;

        explicit Entry(double tau) : health(tau) {}
    };

    void transition(std::size_t node, BreakerState to, sim::Tick now);

    HealthConfig config_;
    std::vector<Entry> entries_;
    telemetry::TraceSink *trace_ = nullptr;
    telemetry::FlightRecorder *recorder_ = nullptr;
    std::int64_t opens_ = 0;
    std::int64_t closes_ = 0;
    std::int64_t failOpenPicks_ = 0;
};

} // namespace agentsim::core

#endif // AGENTSIM_CORE_HEALTH_HH
