#include "core/health.hh"

#include <cmath>

#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "telemetry/flight_recorder.hh"

namespace agentsim::core
{

std::string_view
breakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::Closed:
        return "closed";
      case BreakerState::Open:
        return "open";
      case BreakerState::HalfOpen:
        return "half-open";
    }
    AGENTSIM_PANIC("unknown breaker state");
}

double
NodeHealth::decayFactor(sim::Tick now, sim::Tick since) const
{
    if (now <= since || tau_ <= 0)
        return 1.0;
    return std::exp(-sim::toSeconds(now - since) / tau_);
}

void
NodeHealth::recordOutcome(sim::Tick now, bool failure)
{
    const double f = decayFactor(now, lastOutcome_);
    failures_ *= f;
    total_ *= f;
    total_ += 1.0;
    if (failure)
        failures_ += 1.0;
    lastOutcome_ = now;
}

void
NodeHealth::recordQueueDepth(sim::Tick now, double depth)
{
    if (lastQueue_ < 0) {
        queueEwma_ = depth;
    } else {
        const double f = decayFactor(now, lastQueue_);
        queueEwma_ = f * queueEwma_ + (1.0 - f) * depth;
    }
    lastQueue_ = now;
}

double
NodeHealth::failureRate(sim::Tick now) const
{
    const double f = decayFactor(now, lastOutcome_);
    const double total = total_ * f;
    return total > 1e-9 ? failures_ * f / total : 0.0;
}

double
NodeHealth::eventWeight(sim::Tick now) const
{
    return total_ * decayFactor(now, lastOutcome_);
}

void
NodeHealth::reset()
{
    failures_ = 0.0;
    total_ = 0.0;
}

HealthRegistry::HealthRegistry(const HealthConfig &config,
                               std::size_t num_nodes)
    : config_(config)
{
    entries_.reserve(num_nodes);
    for (std::size_t i = 0; i < num_nodes; ++i)
        entries_.emplace_back(config_.ewmaTauSeconds);
}

void
HealthRegistry::transition(std::size_t node, BreakerState to,
                           sim::Tick now)
{
    Entry &e = entries_[node];
    if (e.state == to)
        return;
    e.state = to;
    const char *label = nullptr;
    switch (to) {
      case BreakerState::Open:
        e.openedAt = now;
        ++opens_;
        label = "breaker_open";
        break;
      case BreakerState::HalfOpen:
        e.probeSuccesses = 0;
        label = "breaker_half_open";
        break;
      case BreakerState::Closed:
        // Forget the failure history that opened the breaker, or the
        // stale EWMA would re-open it on the first new failure.
        e.health.reset();
        ++closes_;
        label = "breaker_close";
        break;
    }
    AGENTSIM_INFORM("node %zu circuit breaker -> %s", node,
                    std::string(breakerStateName(to)).c_str());
    if (trace_ != nullptr) {
        trace_->instant(telemetry::TracePid::kResilience,
                        static_cast<std::uint64_t>(node), label,
                        "resilience", now);
    }
    if (recorder_ != nullptr && to == BreakerState::Open) {
        recorder_->trigger(
            telemetry::IncidentTrigger::BreakerOpen, now,
            sim::strfmt("node %zu circuit breaker opened "
                        "(failure rate %.2f)",
                        node, e.health.failureRate(now)));
    }
}

bool
HealthRegistry::allows(std::size_t node, sim::Tick now)
{
    if (!config_.breakerEnabled)
        return true;
    Entry &e = entries_[node];
    switch (e.state) {
      case BreakerState::Closed:
        return true;
      case BreakerState::Open:
        if (sim::toSeconds(now - e.openedAt) >= config_.openSeconds) {
            transition(node, BreakerState::HalfOpen, now);
            return true;
        }
        return false;
      case BreakerState::HalfOpen:
        return true;
    }
    AGENTSIM_PANIC("unknown breaker state");
}

void
HealthRegistry::reportSuccess(std::size_t node, sim::Tick now)
{
    Entry &e = entries_[node];
    e.health.recordOutcome(now, false);
    if (!config_.breakerEnabled)
        return;
    if (e.state == BreakerState::HalfOpen &&
        ++e.probeSuccesses >= config_.halfOpenSuccesses) {
        transition(node, BreakerState::Closed, now);
    }
}

void
HealthRegistry::reportFailure(std::size_t node, sim::Tick now)
{
    Entry &e = entries_[node];
    e.health.recordOutcome(now, true);
    if (!config_.breakerEnabled)
        return;
    switch (e.state) {
      case BreakerState::Closed:
        if (e.health.eventWeight(now) >= config_.minEventsToOpen &&
            e.health.failureRate(now) >=
                config_.failureRateOpenThreshold) {
            transition(node, BreakerState::Open, now);
        }
        break;
      case BreakerState::HalfOpen:
        // A failed probe re-opens for a fresh cool-down.
        transition(node, BreakerState::Open, now);
        break;
      case BreakerState::Open:
        break; // stray in-flight failure; already open
    }
}

void
HealthRegistry::recordQueueDepth(std::size_t node, sim::Tick now,
                                 double depth)
{
    entries_[node].health.recordQueueDepth(now, depth);
}

void
HealthRegistry::markProvisioned(std::size_t node, sim::Tick now)
{
    Entry &e = entries_[node];
    e.health.reset();
    e.probeSuccesses = 0;
    if (config_.breakerEnabled &&
        e.state != BreakerState::HalfOpen) {
        // Bypass transition()'s Open bookkeeping: this is a fresh
        // node earning trust, not a sick one cooling down.
        e.state = BreakerState::HalfOpen;
        AGENTSIM_INFORM("node %zu provisioned: breaker half-open",
                        node);
        if (trace_ != nullptr) {
            trace_->instant(telemetry::TracePid::kResilience,
                            static_cast<std::uint64_t>(node),
                            "breaker_half_open", "resilience", now);
        }
    }
}

BreakerState
HealthRegistry::state(std::size_t node) const
{
    return entries_[node].state;
}

const NodeHealth &
HealthRegistry::health(std::size_t node) const
{
    return entries_[node].health;
}

void
HealthRegistry::exportMetrics(telemetry::MetricsRegistry &registry) const
{
    registry
        .counter("agentsim_resilience_breaker_opens_total",
                 "Circuit-breaker Closed/HalfOpen -> Open transitions")
        .set(static_cast<double>(opens_));
    registry
        .counter("agentsim_resilience_breaker_closes_total",
                 "Circuit-breaker HalfOpen -> Closed transitions")
        .set(static_cast<double>(closes_));
    registry
        .counter("agentsim_resilience_breaker_fail_open_picks_total",
                 "Router picks that bypassed all-denying breakers")
        .set(static_cast<double>(failOpenPicks_));
    double open_now = 0;
    for (const auto &e : entries_) {
        if (e.state != BreakerState::Closed)
            open_now += 1;
    }
    registry
        .gauge("agentsim_resilience_breakers_not_closed",
               "Nodes whose breaker is currently Open or HalfOpen")
        .set(open_now);
}

} // namespace agentsim::core
