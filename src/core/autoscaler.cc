/**
 * @file
 * Autoscaler controller + predictive admission control implementation.
 */

#include "core/autoscaler.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "telemetry/flight_recorder.hh"

namespace agentsim::core
{

std::string_view
scaleDecisionName(ScaleDecision decision)
{
    switch (decision) {
      case ScaleDecision::Hold:
        return "hold";
      case ScaleDecision::ScaleOut:
        return "scale_out";
      case ScaleDecision::ScaleIn:
        return "scale_in";
    }
    AGENTSIM_PANIC("unknown ScaleDecision %d",
                   static_cast<int>(decision));
}

double
nodeWarmupSeconds(const AutoscalerConfig &config,
                  const llm::ModelSpec &model, const llm::NodeSpec &node)
{
    double bw = config.weightLoadBandwidth > 0.0
                    ? config.weightLoadBandwidth
                    : node.hostOffloadBandwidth;
    AGENTSIM_ASSERT(bw > 0.0,
                    "node warm-up needs a weight-load bandwidth");
    AGENTSIM_ASSERT(node.numGpus > 0, "node without GPUs");
    double shard_bytes =
        model.weightBytes() / static_cast<double>(node.numGpus);
    return config.nodeBootSeconds + shard_bytes / bw;
}

// ---------------------------------------------------------------------
// AutoscalerController
// ---------------------------------------------------------------------

AutoscalerController::AutoscalerController(const AutoscalerConfig &config)
    : config_(config), delay_(config.queueDelayQuantile)
{
}

void
AutoscalerController::recordArrival(sim::Tick now)
{
    if (lastArrival_ < 0) {
        lastArrival_ = now;
        return;
    }
    double dt = sim::toSeconds(now - lastArrival_);
    lastArrival_ = now;
    if (dt <= 0.0) {
        // Same-tick burst: the next spaced arrival carries the rate.
        return;
    }
    double inst = 1.0 / dt;
    double a = std::exp(-dt / config_.arrivalTauSeconds);
    arrivalRate_ = a * arrivalRate_ + (1.0 - a) * inst;
}

double
AutoscalerController::predictedQps(sim::Tick now) const
{
    if (lastArrival_ < 0)
        return 0.0;
    // Decay toward zero over quiet gaps, so a dead workload does not
    // hold capacity forever on a stale estimate.
    double idle = sim::toSeconds(std::max<sim::Tick>(0, now - lastArrival_));
    return arrivalRate_ * std::exp(-idle / config_.arrivalTauSeconds);
}

void
AutoscalerController::recordQueueDelay(double seconds)
{
    delay_.add(std::max(0.0, seconds));
    ++delaySamples_;
}

double
AutoscalerController::queueDelayPercentile() const
{
    if (delaySamples_ < config_.minDelaySamples)
        return 0.0;
    return delay_.value();
}

void
AutoscalerController::resetDelayEstimator()
{
    delay_ = stats::P2Quantile(config_.queueDelayQuantile);
    delaySamples_ = 0;
}

double
AutoscalerController::elapsedSeconds(sim::Tick now, sim::Tick since) const
{
    return sim::toSeconds(std::max<sim::Tick>(0, now - since));
}

ScaleDecision
AutoscalerController::evaluate(sim::Tick now, int active, int warming,
                               double burn_rate)
{
    int provisioned = active + warming;
    double qhat = predictedQps(now);
    double mu = config_.nodeServiceQps;
    double delay = queueDelayPercentile();

    bool capacity_pressure =
        mu > 0.0 &&
        qhat > config_.targetUtilization * mu *
                   static_cast<double>(provisioned);
    bool delay_pressure = delay > config_.queueDelayHighSeconds;
    bool burn_pressure = burn_rate >= config_.burnHighThreshold;

    if (capacity_pressure || delay_pressure || burn_pressure)
        lastPressure_ = now;

    double since_out = elapsedSeconds(now, lastScaleOut_);
    double since_in = elapsedSeconds(now, lastScaleIn_);
    bool out_cooled = (scaleOuts_ == 0 && scaleIns_ == 0) ||
                      (since_out >= config_.scaleOutCooldownSeconds &&
                       since_in >= config_.scaleOutCooldownSeconds);

    if ((capacity_pressure || delay_pressure || burn_pressure) &&
        provisioned < config_.maxNodes && out_cooled) {
        reason_ = capacity_pressure ? "capacity"
                  : delay_pressure  ? "queue_delay"
                                    : "burn";
        lastScaleOut_ = now;
        ++scaleOuts_;
        resetDelayEstimator();
        if (trace_) {
            trace_->instant(telemetry::TracePid::kResilience,
                            static_cast<std::uint64_t>(provisioned),
                            std::string("scale_out:") +
                                std::string(reason_),
                            "autoscale", now);
        }
        AGENTSIM_INFORM(
            "autoscaler: scale-out (%s) at %.1fs: qhat=%.2f/s "
            "delay_p%.0f=%.2fs burn=%.2f provisioned=%d",
            std::string(reason_).c_str(), sim::toSeconds(now), qhat,
            config_.queueDelayQuantile * 100.0, delay, burn_rate,
            provisioned);
        if (recorder_ != nullptr) {
            // A scale-out shortly after a scale-in is a flap — the
            // clearest sign the hysteresis thresholds are fighting
            // the workload, and worth its own incident label.
            const bool flap =
                scaleIns_ > 0 &&
                since_in < 3.0 * config_.scaleOutCooldownSeconds;
            recorder_->trigger(
                telemetry::IncidentTrigger::Autoscale, now,
                sim::strfmt("%s (%s) qhat=%.2f/s delay=%.2fs "
                            "burn=%.2f provisioned=%d",
                            flap ? "scale flap" : "scale-out",
                            std::string(reason_).c_str(), qhat, delay,
                            burn_rate, provisioned));
        }
        return ScaleDecision::ScaleOut;
    }

    bool relief =
        burn_rate <= config_.burnLowThreshold &&
        delay <= config_.queueDelayLowSeconds &&
        (mu <= 0.0 ||
         qhat < config_.scaleInUtilization * mu *
                    static_cast<double>(provisioned - 1));
    bool in_cooled =
        elapsedSeconds(now, lastPressure_) >=
            config_.scaleInCooldownSeconds &&
        since_out >= config_.scaleInCooldownSeconds &&
        since_in >= config_.scaleInCooldownSeconds;

    if (relief && warming == 0 && provisioned > config_.minNodes &&
        in_cooled) {
        reason_ = "idle";
        lastScaleIn_ = now;
        ++scaleIns_;
        resetDelayEstimator();
        if (trace_) {
            trace_->instant(telemetry::TracePid::kResilience,
                            static_cast<std::uint64_t>(provisioned),
                            "scale_in:idle", "autoscale", now);
        }
        AGENTSIM_INFORM(
            "autoscaler: scale-in at %.1fs: qhat=%.2f/s burn=%.2f "
            "provisioned=%d", sim::toSeconds(now), qhat, burn_rate,
            provisioned);
        return ScaleDecision::ScaleIn;
    }

    return ScaleDecision::Hold;
}

void
AutoscalerController::noteNodeReady(sim::Tick now)
{
    ++nodesReady_;
    if (trace_) {
        trace_->instant(telemetry::TracePid::kResilience,
                        static_cast<std::uint64_t>(nodesReady_),
                        "node_ready", "autoscale", now);
    }
}

void
AutoscalerController::exportMetrics(telemetry::MetricsRegistry &registry,
                                    sim::Tick now) const
{
    registry
        .counter("agentsim_autoscale_scale_outs_total",
                 "Scale-out decisions taken by the autoscaler")
        .set(static_cast<double>(scaleOuts_));
    registry
        .counter("agentsim_autoscale_scale_ins_total",
                 "Scale-in decisions taken by the autoscaler")
        .set(static_cast<double>(scaleIns_));
    registry
        .counter("agentsim_autoscale_nodes_ready_total",
                 "Scaled-out nodes that completed warm-up")
        .set(static_cast<double>(nodesReady_));
    registry
        .gauge("agentsim_autoscale_predicted_qps",
               "EWMA-predicted request arrival rate")
        .set(predictedQps(now));
}

// ---------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------

AdmissionController::AdmissionController(const AutoscalerConfig &config)
    : config_(config)
{
}

void
AdmissionController::recordCompletion(sim::Tick now)
{
    if (lastCompletion_ < 0) {
        lastCompletion_ = now;
        return;
    }
    double dt = sim::toSeconds(now - lastCompletion_);
    lastCompletion_ = now;
    if (dt <= 0.0)
        return;
    double inst = 1.0 / dt;
    double a = std::exp(-dt / config_.arrivalTauSeconds);
    completionRate_ = a * completionRate_ + (1.0 - a) * inst;
}

double
AdmissionController::projectedDelaySeconds(std::size_t queue_depth,
                                           int active,
                                           sim::Tick now) const
{
    (void)now;
    if (queue_depth == 0)
        return 0.0;
    double per_node;
    if (config_.nodeServiceQps > 0.0) {
        per_node = config_.nodeServiceQps;
    } else {
        per_node =
            completionRate_ / static_cast<double>(std::max(1, active));
    }
    if (per_node <= 1e-9) {
        // Cold start / unknown service rate: no evidence of doom yet.
        return 0.0;
    }
    // Little's law: the joining request waits for queue_depth requests
    // ahead of it to clear at the node's service rate.
    return static_cast<double>(queue_depth) / per_node;
}

bool
AdmissionController::admit(std::size_t queue_depth, int active,
                           double deadline_budget_seconds, sim::Tick now)
{
    ++decisions_;
    double budget =
        deadline_budget_seconds > 0.0
            ? deadline_budget_seconds * config_.admissionDeadlineFraction
            : config_.admissionMaxDelaySeconds;
    if (budget <= 0.0)
        return true;
    if (projectedDelaySeconds(queue_depth, active, now) > budget) {
        ++rejects_;
        return false;
    }
    return true;
}

} // namespace agentsim::core
