#include "telemetry/slo.hh"

#include <algorithm>

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
                   std::int64_t count, bool violated, bool has_latency)
{
    AGENTSIM_ASSERT(count >= 0, "negative SLO observation count %lld",
                    static_cast<long long>(count));
    Tracker &t = tracker(metric);
    if (t.targetSeconds <= 0.0 || count == 0)
        return;
    rotateWindow(t, now);

    if (has_latency) {
        t.latency.addWeighted(seconds, static_cast<std::size_t>(count));
        violated = violated || seconds > t.targetSeconds;
    }
    auto account = [&](std::int64_t n) {
        t.total += n;
        t.windowTotal += n;
        if (violated) {
            t.violations += n;
            t.windowViolations += n;
        }
    };
    const std::int64_t fire = alertIndex(t, count, violated);
    if (fire == 0) {
        account(count);
        return;
    }
    account(fire);
    fireAlert(metric, t, now);
    account(count - fire);
}

void
SloTracker::observe(SloMetric metric, sim::Tick now, double seconds,
                    std::int64_t count)
{
    record(metric, now, seconds, count, false, true);
}

void
SloTracker::observeFailure(SloMetric metric, sim::Tick now)
{
    record(metric, now, 0.0, 1, true, false);
}

double
SloTracker::burnRate(std::int64_t violations, std::int64_t total) const
{
    const double budget = 1.0 - config_.attainmentTarget;
    return static_cast<double>(violations) / static_cast<double>(total) /
           budget;
}

std::int64_t
SloTracker::alertIndex(const Tracker &t, std::int64_t count,
                       bool violated) const
{
    // After the j-th observation the window holds windowTotal + j
    // observations, with windowViolations + j violations if the batch
    // violates and windowViolations if not. The window may alert from
    // the j where it reaches minWindowSamples.
    if (t.windowAlerted)
        return 0;
    const std::int64_t first = std::max<std::int64_t>(
        1, config_.minWindowSamples - t.windowTotal);
    if (first > count)
        return 0;
    auto alerts = [&](std::int64_t j) {
        return burnRate(t.windowViolations + (violated ? j : 0),
                        t.windowTotal + j) >=
               config_.burnRateAlertThreshold;
    };
    // A clean batch only dilutes the violation fraction, so it alerts
    // at `first` or not at all.
    if (!violated)
        return alerts(first) ? first : 0;
    // A violating batch raises (v + j) / (w + j) with j (v <= w), and
    // correctly rounded division and comparison keep that order, so
    // the predicate is monotone: binary-search its first true j.
    if (!alerts(count))
        return 0;
    std::int64_t lo = first;
    std::int64_t hi = count;
    while (lo < hi) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        if (alerts(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

void
SloTracker::fireAlert(SloMetric metric, Tracker &t, sim::Tick now)
{
    const double burn = burnRate(t.windowViolations, t.windowTotal);
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
    AGENTSIM_ASSERT(q > 0.0 && q < 1.0,
                    "SLO percentile takes a fraction in (0, 1), got %g", q);
    return tracker(metric).latency.quantile(q);
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
    return burnRate(t.windowViolations, t.windowTotal);
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
            .set(t.latency.quantile(0.50));
        registry.gauge("agentsim_slo_p95_seconds", "streaming p95 latency",
                       labels)
            .set(t.latency.quantile(0.95));
        registry.gauge("agentsim_slo_p99_seconds", "streaming p99 latency",
                       labels)
            .set(t.latency.quantile(0.99));
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
