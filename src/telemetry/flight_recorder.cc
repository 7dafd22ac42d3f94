#include "telemetry/flight_recorder.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "sim/logging.hh"
#include "sim/strfmt.hh"
#include "telemetry/registry.hh"
#include "telemetry/trace_sink.hh"

namespace agentsim::telemetry
{

const char *
incidentTriggerName(IncidentTrigger t)
{
    switch (t) {
      case IncidentTrigger::SloBurn:
        return "slo_burn";
      case IncidentTrigger::Brownout:
        return "brownout";
      case IncidentTrigger::BreakerOpen:
        return "breaker_open";
      case IncidentTrigger::Autoscale:
        return "autoscale";
      case IncidentTrigger::DeadlineMissSpike:
        return "deadline_miss_spike";
    }
    return "unknown";
}

stats::HdrHistogram
FlightRecorder::makeLatencyHistogram() const
{
    // 1 ms .. 1 h at 1% relative error covers every latency family
    // the sim produces; exemplar ids are request keys.
    return stats::HdrHistogram(1e-3, 3600.0, 0.01,
                               config_.latencyExemplars);
}

FlightRecorder::FlightRecorder() : FlightRecorder(Config{}) {}

FlightRecorder::FlightRecorder(Config config)
    : config_(std::move(config)), latency_(makeLatencyHistogram())
{
    lastDump_.fill(-1);
}

FlightRecorder::~FlightRecorder()
{
    if (trace_ != nullptr)
        trace_->attachRecorder(nullptr);
}

void
FlightRecorder::setConfig(Config config)
{
    AGENTSIM_ASSERT(config.windowSeconds > 0.0,
                    "incident window must be positive");
    AGENTSIM_ASSERT(config.traceEventCapacity > 0 &&
                        config.spanCapacity > 0,
                    "recorder rings need capacity");
    config_ = std::move(config);
    latency_ = makeLatencyHistogram();
}

std::size_t
FlightRecorder::traceEventsRetained() const
{
    return trace_ == nullptr
               ? 0
               : std::min(config_.traceEventCapacity,
                          trace_->dataRetained());
}

void
FlightRecorder::noteSpanCompletion(const SpanCompletion &completion)
{
    if (spanRing_.size() >= config_.spanCapacity)
        spanRing_.pop_front();
    spanRing_.push_back(completion);
    latency_.add(completion.latencySeconds, completion.requestKey);
}

void
FlightRecorder::noteDeadlineMiss(sim::Tick now)
{
    const sim::Tick horizon =
        now - sim::fromSeconds(config_.missWindowSeconds);
    recentMisses_.push_back(now);
    while (!recentMisses_.empty() && recentMisses_.front() < horizon)
        recentMisses_.pop_front();
    if (static_cast<int>(recentMisses_.size()) >= config_.missSpikeCount) {
        trigger(IncidentTrigger::DeadlineMissSpike, now,
                sim::strfmt("%zu deadline misses within %.1fs",
                            recentMisses_.size(),
                            config_.missWindowSeconds));
    }
}

void
FlightRecorder::trigger(IncidentTrigger kind, sim::Tick now,
                        const std::string &detail)
{
    const auto k = static_cast<std::size_t>(kind);
    const sim::Tick debounce =
        sim::fromSeconds(config_.debounceSeconds);
    if (lastDump_[k] >= 0 && now - lastDump_[k] < debounce) {
        ++skippedDebounce_;
        return;
    }
    lastDump_[k] = now;
    dumpBundle(kind, now, detail);
}

std::string
FlightRecorder::renderBundleTrace(sim::Tick from, sim::Tick to,
                                  std::size_t &trace_events) const
{
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    auto begin_event = [&] {
        out += first ? "\n" : ",\n";
        first = false;
    };
    auto append = [&](const std::string &ev) {
        begin_event();
        out += ev;
    };
    bool spans_named = false;
    trace_events = 0;
    if (trace_ != nullptr) {
        trace_->forEachMetadata(
            config_.metadataCapacity, [&](const TraceRecord &r) {
                begin_event();
                trace_->render(r, out);
                spans_named = spans_named ||
                              (r.phase == TracePhase::ProcessName &&
                               r.pid == TracePid::kSpans);
            });
        trace_->forEachRecentData(
            config_.traceEventCapacity, [&](const TraceRecord &r) {
                if (r.end() < from || r.tick > to)
                    return;
                begin_event();
                trace_->render(r, out);
                ++trace_events;
            });
    }
    // Window span completions as nestable-async lanes on the span
    // track, clipped to the window so begin/end always balance and
    // stay inside the bundle's time bounds.
    for (const SpanCompletion &sc : spanRing_) {
        if (sc.end < from || sc.start > to)
            continue;
        // The run names the span track only once it ends, so name
        // it here for the bundle's own lanes.
        if (!spans_named) {
            append(sim::strfmt("{\"name\":\"process_name\",\"ph\":\"M\","
                               "\"pid\":%d,\"args\":{\"name\":"
                               "\"incident spans\"}}",
                               TracePid::kSpans));
            spans_named = true;
        }
        const sim::Tick bts = std::clamp(sc.start, from, to);
        const sim::Tick ets = std::clamp(sc.end, from, to);
        std::string args;
        for (std::size_t i = 0; i < kBlameCategories; ++i) {
            args += sim::strfmt(
                "\"%s_s\":%.6f,",
                blameCategoryName(static_cast<BlameCategory>(i)),
                sc.blame.seconds[i]);
        }
        args += sim::strfmt("\"latency_s\":%.6f,\"slo_violated\":%s",
                            sc.latencySeconds,
                            sc.sloViolated ? "true" : "false");
        append(sim::strfmt(
            "{\"name\":\"%s\",\"cat\":\"incident\",\"ph\":\"b\","
            "\"id\":\"0x%llx\",\"ts\":%lld,\"pid\":%d,\"tid\":%llu,"
            "\"args\":{%s}}",
            jsonEscape(sc.workflow).c_str(),
            static_cast<unsigned long long>(sc.requestKey),
            static_cast<long long>(bts), TracePid::kSpans,
            static_cast<unsigned long long>(sc.requestKey),
            args.c_str()));
        append(sim::strfmt(
            "{\"name\":\"%s\",\"cat\":\"incident\",\"ph\":\"e\","
            "\"id\":\"0x%llx\",\"ts\":%lld,\"pid\":%d,\"tid\":%llu}",
            jsonEscape(sc.workflow).c_str(),
            static_cast<unsigned long long>(sc.requestKey),
            static_cast<long long>(ets), TracePid::kSpans,
            static_cast<unsigned long long>(sc.requestKey)));
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

std::string
FlightRecorder::renderManifest(
    IncidentTrigger kind, sim::Tick now, const std::string &detail,
    sim::Tick from, sim::Tick to, std::size_t trace_events,
    const std::vector<const SpanCompletion *> &window_spans) const
{
    BlameVector blame;
    for (const SpanCompletion *sc : window_spans)
        blame += sc->blame;

    std::vector<const SpanCompletion *> slowest = window_spans;
    std::sort(slowest.begin(), slowest.end(),
              [](const SpanCompletion *a, const SpanCompletion *b) {
                  return a->latencySeconds > b->latencySeconds;
              });
    if (slowest.size() > 5)
        slowest.resize(5);

    std::string out = "{\n";
    out += "  \"schema\": \"agentsim-incident-v1\",\n";
    out += sim::strfmt("  \"trigger\": \"%s\",\n",
                       incidentTriggerName(kind));
    out += sim::strfmt("  \"detail\": \"%s\",\n",
                       jsonEscape(detail).c_str());
    out += sim::strfmt("  \"trigger_time_s\": %.6f,\n",
                       sim::toSeconds(now));
    out += sim::strfmt("  \"window_from_s\": %.6f,\n",
                       sim::toSeconds(from));
    out += sim::strfmt("  \"window_to_s\": %.6f,\n",
                       sim::toSeconds(to));
    out += sim::strfmt("  \"trace_events\": %zu,\n", trace_events);
    out += sim::strfmt("  \"span_completions\": %zu,\n",
                       window_spans.size());

    out += "  \"blame_seconds\": {";
    for (std::size_t i = 0; i < kBlameCategories; ++i) {
        out += sim::strfmt(
            "%s\"%s\": %.6f", i == 0 ? "" : ", ",
            blameCategoryName(static_cast<BlameCategory>(i)),
            blame.seconds[i]);
    }
    out += "},\n";
    out += sim::strfmt("  \"blame_total_seconds\": %.6f,\n",
                       blame.total());

    out += "  \"top_requests\": [";
    for (std::size_t i = 0; i < slowest.size(); ++i) {
        const SpanCompletion &sc = *slowest[i];
        out += i == 0 ? "\n" : ",\n";
        std::string b;
        for (std::size_t c = 0; c < kBlameCategories; ++c) {
            b += sim::strfmt(
                "%s\"%s\": %.6f", c == 0 ? "" : ", ",
                blameCategoryName(static_cast<BlameCategory>(c)),
                sc.blame.seconds[c]);
        }
        out += sim::strfmt(
            "    {\"request\": %llu, \"workflow\": \"%s\", "
            "\"latency_s\": %.6f, \"slo_violated\": %s, "
            "\"blame\": {%s}}",
            static_cast<unsigned long long>(sc.requestKey),
            jsonEscape(sc.workflow).c_str(), sc.latencySeconds,
            sc.sloViolated ? "true" : "false", b.c_str());
    }
    out += "\n  ],\n";

    const std::size_t ts_points =
        timeseries_ != nullptr ? timeseries_->pointsRetained() : 0;
    out += sim::strfmt(
        "  \"timeseries\": {\"series\": %zu, \"points_retained\": %zu},\n",
        timeseries_ != nullptr ? timeseries_->seriesCount() : 0,
        ts_points);

    out += sim::strfmt(
        "  \"latency\": {\"count\": %zu, \"p50_s\": %.6f, "
        "\"p99_s\": %.6f, \"max_s\": %.6f, \"exemplars\": [",
        latency_.count(), latency_.quantile(0.50),
        latency_.quantile(0.99), latency_.max());
    const auto exemplars = latency_.tailExemplars();
    for (std::size_t i = 0; i < exemplars.size(); ++i) {
        out += sim::strfmt(
            "%s{\"request\": %llu, \"latency_s\": %.6f}",
            i == 0 ? "" : ", ",
            static_cast<unsigned long long>(exemplars[i].id),
            exemplars[i].value);
    }
    out += "]}\n";
    out += "}\n";
    return out;
}

void
FlightRecorder::dumpBundle(IncidentTrigger kind, sim::Tick now,
                           const std::string &detail)
{
    const sim::Tick from = std::max<sim::Tick>(
        0, now - sim::fromSeconds(config_.windowSeconds));
    const sim::Tick to = now;

    std::vector<const SpanCompletion *> window_spans;
    for (const SpanCompletion &sc : spanRing_) {
        if (sc.end >= from && sc.start <= to)
            window_spans.push_back(&sc);
    }

    std::size_t trace_events = 0;
    const std::string trace_json =
        renderBundleTrace(from, to, trace_events);
    const std::string timeseries_csv =
        timeseries_ != nullptr ? timeseries_->renderCsvWindow(from, to)
                               : std::string("series,time_s,value\n");
    const std::string manifest = renderManifest(
        kind, now, detail, from, to, trace_events, window_spans);

    const auto total = static_cast<std::int64_t>(
        trace_json.size() + timeseries_csv.size() + manifest.size());
    if (config_.diskBudgetBytes > 0 &&
        bytesWritten_ + total > config_.diskBudgetBytes) {
        ++skippedBudget_;
        return;
    }

    const std::string dir = sim::strfmt(
        "%s/incident-%03zu-%s", config_.incidentDir.c_str(),
        incidents_.size() + 1, incidentTriggerName(kind));
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        std::fprintf(stderr,
                     "telemetry: cannot create incident dir %s: %s\n",
                     dir.c_str(), ec.message().c_str());
        ++writeFailures_;
        return;
    }

    bool ok = true;
    ok = writeArtifact(dir + "/trace.json", trace_json,
                       "incident trace") &&
         ok;
    ok = writeArtifact(dir + "/timeseries.csv", timeseries_csv,
                       "incident time series") &&
         ok;
    ok = writeArtifact(dir + "/manifest.json", manifest,
                       "incident manifest") &&
         ok;
    if (!ok) {
        ++writeFailures_;
        return;
    }
    bytesWritten_ += total;
    incidents_.push_back(dir);
}

void
FlightRecorder::exportMetrics(MetricsRegistry &registry) const
{
    registry
        .counter("agentsim_incidents_total",
                 "Incident bundles dumped by the flight recorder")
        .set(static_cast<double>(incidentsDumped()));
    registry
        .counter("agentsim_incidents_skipped_debounce_total",
                 "Incident triggers suppressed by per-kind debounce")
        .set(static_cast<double>(skippedDebounce_));
    registry
        .counter("agentsim_incidents_skipped_budget_total",
                 "Incident triggers suppressed by the disk budget")
        .set(static_cast<double>(skippedBudget_));
    registry
        .counter("agentsim_incident_bytes_total",
                 "Bytes of incident bundles written")
        .set(static_cast<double>(bytesWritten_));
}

void
FlightRecorder::clear()
{
    if (trace_ != nullptr)
        trace_->attachRecorder(nullptr);
    spanRing_.clear();
    recentMisses_.clear();
    latency_ = makeLatencyHistogram();
    lastDump_.fill(-1);
    incidents_.clear();
    skippedDebounce_ = 0;
    skippedBudget_ = 0;
    writeFailures_ = 0;
    bytesWritten_ = 0;
}

} // namespace agentsim::telemetry
