#include "telemetry/slo.hh"

#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "telemetry/flight_recorder.hh"

namespace agentsim::telemetry
{

std::string_view
sloMetricName(SloMetric m)
{
    switch (m) {
    case SloMetric::Ttft:
        return "ttft";
    case SloMetric::Tbt:
        return "tbt";
    case SloMetric::E2e:
        return "e2e";
    }
    return "?";
}

SloTracker::SloTracker(const SloConfig &config) : config_(config)
{
    AGENTSIM_ASSERT(config.windowSeconds > 0.0,
                    "SLO window must be positive");
    AGENTSIM_ASSERT(config.attainmentTarget > 0.0 &&
                        config.attainmentTarget < 1.0,
                    "attainment target must lie inside (0, 1)");
    windowTicks_ = sim::fromSeconds(config.windowSeconds);
    trackers_[0].targetSeconds = config.ttftTargetSeconds;
    trackers_[1].targetSeconds = config.tbtTargetSeconds;
    trackers_[2].targetSeconds = config.e2eTargetSeconds;
}

void
SloTracker::attachTrace(TraceSink *sink)
{
    trace_ = sink;
    if (trace_ == nullptr)
        return;
    trace_->processName(TracePid::kSlo, "SLO monitor");
    trace_->threadName(TracePid::kSlo, 1, "burn-rate alerts");
}

SloTracker::Tracker &
SloTracker::tracker(SloMetric m)
{
    return trackers_[static_cast<std::size_t>(m)];
}

const SloTracker::Tracker &
SloTracker::tracker(SloMetric m) const
{
    return trackers_[static_cast<std::size_t>(m)];
}

void
SloTracker::rotateWindow(Tracker &t, sim::Tick now)
{
    if (now < t.windowStart + windowTicks_)
        return;
    // Jump straight to the window containing `now`; intervening empty
    // windows carry no samples and thus no alerts.
    const sim::Tick elapsed = now - t.windowStart;
    t.windowStart += (elapsed / windowTicks_) * windowTicks_;
    t.windowTotal = 0;
    t.windowViolations = 0;
    t.windowAlerted = false;
}

void
SloTracker::record(SloMetric metric, sim::Tick now, double seconds,
                   bool violated, bool has_latency)
{
    Tracker &t = tracker(metric);
    if (t.targetSeconds <= 0.0)
        return;
    rotateWindow(t, now);

    if (has_latency) {
        t.p50.add(seconds);
        t.p95.add(seconds);
        t.p99.add(seconds);
        violated = violated || seconds > t.targetSeconds;
    }
    ++t.total;
    ++t.windowTotal;
    if (violated) {
        ++t.violations;
        ++t.windowViolations;
    }
    maybeAlert(metric, t, now);
}

void
SloTracker::observe(SloMetric metric, sim::Tick now, double seconds)
{
    record(metric, now, seconds, false, true);
}

void
SloTracker::observeFailure(SloMetric metric, sim::Tick now)
{
    record(metric, now, 0.0, true, false);
}

void
SloTracker::maybeAlert(SloMetric metric, Tracker &t, sim::Tick now)
{
    if (t.windowAlerted || t.windowTotal < config_.minWindowSamples)
        return;
    const double budget = 1.0 - config_.attainmentTarget;
    const double frac = static_cast<double>(t.windowViolations) /
                        static_cast<double>(t.windowTotal);
    const double burn = frac / budget;
    if (burn < config_.burnRateAlertThreshold)
        return;

    t.windowAlerted = true;
    ++t.alerts;
    const std::string name(sloMetricName(metric));
    AGENTSIM_WARN("SLO burn-rate alert: %s burn %.1fx budget "
                  "(%lld/%lld over target %.3fs in window at t=%.1fs)",
                  name.c_str(), burn,
                  static_cast<long long>(t.windowViolations),
                  static_cast<long long>(t.windowTotal),
                  t.targetSeconds, sim::toSeconds(now));
    if (trace_ != nullptr) {
        trace_->instant(TracePid::kSlo, 1,
                        sim::strfmt("slo_alert_%s burn=%.1fx",
                                    name.c_str(), burn),
                        "slo", now);
    }
    if (recorder_ != nullptr) {
        recorder_->trigger(IncidentTrigger::SloBurn, now,
                           sim::strfmt("%s burn %.1fx budget "
                                       "(%lld/%lld over %.3fs)",
                                       name.c_str(), burn,
                                       static_cast<long long>(
                                           t.windowViolations),
                                       static_cast<long long>(
                                           t.windowTotal),
                                       t.targetSeconds));
    }
}

double
SloTracker::percentile(SloMetric metric, double q) const
{
    const Tracker &t = tracker(metric);
    if (q <= 0.5)
        return t.p50.value();
    if (q <= 0.95)
        return t.p95.value();
    return t.p99.value();
}

double
SloTracker::attainment(SloMetric metric) const
{
    const Tracker &t = tracker(metric);
    if (t.total == 0)
        return 1.0;
    return 1.0 - static_cast<double>(t.violations) /
                     static_cast<double>(t.total);
}

double
SloTracker::windowBurnRate(SloMetric metric, sim::Tick now) const
{
    const Tracker &t = tracker(metric);
    if (now >= t.windowStart + windowTicks_ || t.windowTotal == 0)
        return 0.0;
    const double budget = 1.0 - config_.attainmentTarget;
    return static_cast<double>(t.windowViolations) /
           static_cast<double>(t.windowTotal) / budget;
}

std::int64_t
SloTracker::alertsFired() const
{
    std::int64_t total = 0;
    for (const Tracker &t : trackers_)
        total += t.alerts;
    return total;
}

std::int64_t
SloTracker::alertsFired(SloMetric metric) const
{
    return tracker(metric).alerts;
}

std::int64_t
SloTracker::observations(SloMetric metric) const
{
    return tracker(metric).total;
}

std::int64_t
SloTracker::violations(SloMetric metric) const
{
    return tracker(metric).violations;
}

void
SloTracker::exportMetrics(MetricsRegistry &registry, sim::Tick now) const
{
    for (std::size_t i = 0; i < trackers_.size(); ++i) {
        const auto metric = static_cast<SloMetric>(i);
        const Tracker &t = trackers_[i];
        if (t.targetSeconds <= 0.0)
            continue;
        const Labels labels{
            {"metric", std::string(sloMetricName(metric))}};
        registry.gauge("agentsim_slo_p50_seconds", "streaming p50 latency",
                       labels)
            .set(t.p50.value());
        registry.gauge("agentsim_slo_p95_seconds", "streaming p95 latency",
                       labels)
            .set(t.p95.value());
        registry.gauge("agentsim_slo_p99_seconds", "streaming p99 latency",
                       labels)
            .set(t.p99.value());
        registry
            .gauge("agentsim_slo_attainment",
                   "lifetime fraction of observations under target",
                   labels)
            .set(attainment(metric));
        registry
            .gauge("agentsim_slo_burn_rate",
                   "current-window burn rate (violation fraction / "
                   "error budget)",
                   labels)
            .set(windowBurnRate(metric, now));
        registry
            .counter("agentsim_slo_violations_total",
                     "observations over target (failures included)",
                     labels)
            .set(static_cast<double>(t.violations));
        registry
            .counter("agentsim_slo_alerts_total", "burn-rate alerts fired",
                     labels)
            .set(static_cast<double>(t.alerts));
    }
}

void
SloTracker::reset()
{
    for (std::size_t i = 0; i < trackers_.size(); ++i) {
        const double target = trackers_[i].targetSeconds;
        trackers_[i] = Tracker{};
        trackers_[i].targetSeconds = target;
    }
}

} // namespace agentsim::telemetry
