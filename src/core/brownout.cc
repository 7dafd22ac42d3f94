#include "core/brownout.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "telemetry/flight_recorder.hh"

namespace agentsim::core
{

namespace
{

/** Cheaper workflow with comparable task coverage, for level 2. */
agents::AgentKind
downgraded(agents::AgentKind kind)
{
    using agents::AgentKind;
    switch (kind) {
      case AgentKind::Lats:
      case AgentKind::Reflexion:
      case AgentKind::ActorCritic:
      case AgentKind::LlmCompiler:
        return AgentKind::ReAct;
      case AgentKind::SelfConsistency:
      case AgentKind::TreeOfThoughts:
      case AgentKind::BestOfN:
        return AgentKind::CoT;
      case AgentKind::CoT:
      case AgentKind::ReAct:
        return kind; // already the cheap tier
    }
    AGENTSIM_PANIC("unknown agent kind");
}

} // namespace

BrownoutController::BrownoutController(const BrownoutConfig &config)
    : config_(config)
{
    AGENTSIM_ASSERT(config_.kvLowWatermark <= config_.kvHighWatermark,
                    "brownout KV watermarks inverted");
    AGENTSIM_ASSERT(config_.burnLowThreshold <= config_.burnHighThreshold,
                    "brownout burn thresholds inverted");
    AGENTSIM_ASSERT(config_.maxLevel >= 1 && config_.maxLevel <= 2,
                    "brownout maxLevel must be 1 or 2");
}

void
BrownoutController::setLevel(sim::Tick now, int level)
{
    if (level == level_)
        return;
    if (level > level_)
        ++escalations_;
    else
        ++restorations_;
    level_ = level;
    maxLevelReached_ = std::max(maxLevelReached_, level_);
    lastChange_ = now;
    AGENTSIM_INFORM("brownout level -> %d", level_);
    if (trace_ != nullptr) {
        const char *label = level_ == 0   ? "brownout_level_0"
                            : level_ == 1 ? "brownout_level_1"
                                          : "brownout_level_2";
        trace_->instant(telemetry::TracePid::kResilience, 0, label,
                        "resilience", now);
    }
    if (recorder_ != nullptr) {
        recorder_->trigger(telemetry::IncidentTrigger::Brownout, now,
                           sim::strfmt("brownout level -> %d", level_));
    }
}

void
BrownoutController::observe(sim::Tick now, double kv_utilization,
                            double burn_rate)
{
    if (!config_.enabled)
        return;
    const bool dwelt =
        sim::toSeconds(now - lastChange_) >= config_.holdSeconds;
    const bool pressure = kv_utilization >= config_.kvHighWatermark ||
                          burn_rate >= config_.burnHighThreshold;
    const bool relief = kv_utilization <= config_.kvLowWatermark &&
                        burn_rate <= config_.burnLowThreshold;
    if (pressure && dwelt && level_ < config_.maxLevel)
        setLevel(now, level_ + 1);
    else if (relief && dwelt && level_ > 0)
        setLevel(now, level_ - 1);
}

bool
BrownoutController::apply(agents::AgentKind &kind,
                          agents::AgentConfig &config,
                          workload::Benchmark bench)
{
    if (!config_.enabled || level_ == 0)
        return false;
    bool changed = false;
    if (config.latsChildren > config_.trimLatsChildren) {
        config.latsChildren = config_.trimLatsChildren;
        changed = true;
    }
    if (config.scSamples > config_.trimScSamples) {
        config.scSamples = config_.trimScSamples;
        changed = true;
    }
    if (config.maxReflections > config_.trimMaxReflections) {
        config.maxReflections = config_.trimMaxReflections;
        changed = true;
    }
    // Only deadline-less rollouts lose their workflow: a request that
    // carries a deadline has an explicit contract, brownout may not
    // silently change what it bought.
    if (level_ >= 2 && config.llmDeadlineSeconds == 0) {
        const agents::AgentKind cheaper = downgraded(kind);
        if (cheaper != kind && agents::agentSupports(cheaper, bench)) {
            kind = cheaper;
            changed = true;
        }
    }
    if (changed)
        ++degradedRollouts_;
    return changed;
}

void
BrownoutController::exportMetrics(
    telemetry::MetricsRegistry &registry) const
{
    registry
        .counter("agentsim_resilience_brownout_escalations_total",
                 "Brownout level increases")
        .set(static_cast<double>(escalations_));
    registry
        .counter("agentsim_resilience_brownout_restorations_total",
                 "Brownout level decreases")
        .set(static_cast<double>(restorations_));
    registry
        .counter("agentsim_resilience_brownout_degraded_rollouts_total",
                 "Agent rollouts trimmed or downgraded by brownout")
        .set(static_cast<double>(degradedRollouts_));
    registry
        .gauge("agentsim_resilience_brownout_level",
               "Current brownout degradation level")
        .set(static_cast<double>(level_));
}

} // namespace agentsim::core
