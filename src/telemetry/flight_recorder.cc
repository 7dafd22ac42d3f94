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

namespace
{

using sim::appendChars;

/** printf's "%.6f". */
void
appendFixed6(std::string &out, double v)
{
    appendChars(out, v, std::chars_format::fixed, 6);
}

/** `"<category>": <seconds>, ...` over the blame categories. */
void
appendBlame(std::string &out, const BlameVector &blame)
{
    for (std::size_t i = 0; i < kBlameCategories; ++i) {
        if (i != 0)
            out += ", ";
        out += '"';
        out += blameCategoryName(static_cast<BlameCategory>(i));
        out += "\": ";
        appendFixed6(out, blame.seconds[i]);
    }
}

/** The shared head of a span lane's begin and end events. */
void
appendLaneEvent(std::string &out, const SpanCompletion &sc, char phase,
                sim::Tick ts)
{
    out += "{\"name\":\"";
    appendJsonEscaped(out, sc.workflow);
    out += "\",\"cat\":\"incident\",\"ph\":\"";
    out += phase;
    out += "\",\"id\":\"0x";
    appendChars(out, sc.requestKey, 16);
    out += "\",\"ts\":";
    appendChars(out, ts);
    out += ",\"pid\":";
    appendChars(out, TracePid::kSpans);
    out += ",\"tid\":";
    appendChars(out, sc.requestKey);
}

} // namespace

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
    forgetMetadata();
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

void
FlightRecorder::forgetMetadata()
{
    metadataJson_.clear();
    metadataRendered_ = 0;
    spansNamed_ = false;
}

std::size_t
FlightRecorder::appendBundleTrace(
    sim::Tick from, sim::Tick to,
    const std::vector<const SpanCompletion *> &window_spans)
{
    std::string &out = buffer_;
    out += "{\"traceEvents\":[";
    if (trace_ != nullptr) {
        trace_->forEachMetadata(
            metadataRendered_, config_.metadataCapacity,
            [&](const TraceRecord &r) {
                metadataJson_ += ",\n";
                trace_->render(r, metadataJson_);
                spansNamed_ = spansNamed_ ||
                              (r.phase == TracePhase::ProcessName &&
                               trace_->pid(r) == TracePid::kSpans);
                ++metadataRendered_;
            });
    }
    bool first = metadataJson_.empty();
    if (!first) {
        out += '\n';
        out.append(metadataJson_, 2);
    }
    auto begin_event = [&] {
        out += first ? "\n" : ",\n";
        first = false;
    };
    std::size_t trace_events = 0;
    if (trace_ != nullptr) {
        trace_->forEachDataInWindow(config_.traceEventCapacity, from, to,
                                    [&](const TraceRecord &r) {
                                        begin_event();
                                        trace_->render(r, out);
                                        ++trace_events;
                                    });
    }
    // Window span completions as nestable-async lanes on the span
    // track, clipped to the window so begin/end always balance and
    // stay inside the bundle's time bounds.
    bool spans_named = spansNamed_;
    for (const SpanCompletion *span : window_spans) {
        const SpanCompletion &sc = *span;
        // The run names the span track only once it ends, so name
        // it here for the bundle's own lanes.
        if (!spans_named) {
            begin_event();
            out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
            appendChars(out, TracePid::kSpans);
            out += ",\"args\":{\"name\":\"incident spans\"}}";
            spans_named = true;
        }
        begin_event();
        appendLaneEvent(out, sc, 'b', std::clamp(sc.start, from, to));
        out += ",\"args\":{";
        for (std::size_t i = 0; i < kBlameCategories; ++i) {
            out += '"';
            out += blameCategoryName(static_cast<BlameCategory>(i));
            out += "_s\":";
            appendFixed6(out, sc.blame.seconds[i]);
            out += ',';
        }
        out += "\"latency_s\":";
        appendFixed6(out, sc.latencySeconds);
        out += ",\"slo_violated\":";
        out += sc.sloViolated ? "true}}" : "false}}";
        begin_event();
        appendLaneEvent(out, sc, 'e', std::clamp(sc.end, from, to));
        out += '}';
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return trace_events;
}

void
FlightRecorder::appendManifest(
    IncidentTrigger kind, sim::Tick now, const std::string &detail,
    sim::Tick from, sim::Tick to, std::size_t trace_events,
    const std::vector<const SpanCompletion *> &window_spans)
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

    std::string &out = buffer_;
    out += "{\n  \"schema\": \"agentsim-incident-v1\",\n  \"trigger\": \"";
    out += incidentTriggerName(kind);
    out += "\",\n  \"detail\": \"";
    appendJsonEscaped(out, detail);
    out += "\",\n  \"trigger_time_s\": ";
    appendFixed6(out, sim::toSeconds(now));
    out += ",\n  \"window_from_s\": ";
    appendFixed6(out, sim::toSeconds(from));
    out += ",\n  \"window_to_s\": ";
    appendFixed6(out, sim::toSeconds(to));
    out += ",\n  \"trace_events\": ";
    appendChars(out, trace_events);
    out += ",\n  \"span_completions\": ";
    appendChars(out, window_spans.size());
    out += ",\n  \"blame_seconds\": {";
    appendBlame(out, blame);
    out += "},\n  \"blame_total_seconds\": ";
    appendFixed6(out, blame.total());
    out += ",\n  \"top_requests\": [";
    for (std::size_t i = 0; i < slowest.size(); ++i) {
        const SpanCompletion &sc = *slowest[i];
        out += i == 0 ? "\n    {\"request\": " : ",\n    {\"request\": ";
        appendChars(out, sc.requestKey);
        out += ", \"workflow\": \"";
        appendJsonEscaped(out, sc.workflow);
        out += "\", \"latency_s\": ";
        appendFixed6(out, sc.latencySeconds);
        out += ", \"slo_violated\": ";
        out += sc.sloViolated ? "true" : "false";
        out += ", \"blame\": {";
        appendBlame(out, sc.blame);
        out += "}}";
    }
    out += "\n  ],\n  \"timeseries\": {\"series\": ";
    appendChars(out, timeseries_ != nullptr ? timeseries_->seriesCount()
                                            : std::size_t{0});
    out += ", \"points_retained\": ";
    appendChars(out, timeseries_ != nullptr
                         ? timeseries_->pointsRetained()
                         : std::size_t{0});
    out += "},\n  \"latency\": {\"count\": ";
    appendChars(out, latency_.count());
    out += ", \"p50_s\": ";
    appendFixed6(out, latency_.quantile(0.50));
    out += ", \"p99_s\": ";
    appendFixed6(out, latency_.quantile(0.99));
    out += ", \"max_s\": ";
    appendFixed6(out, latency_.max());
    out += ", \"exemplars\": [";
    const auto exemplars = latency_.tailExemplars();
    for (std::size_t i = 0; i < exemplars.size(); ++i) {
        out += i == 0 ? "{\"request\": " : ", {\"request\": ";
        appendChars(out, exemplars[i].id);
        out += ", \"latency_s\": ";
        appendFixed6(out, exemplars[i].value);
        out += '}';
    }
    out += "]}\n}\n";
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

    // The three files, rendered back to back into one buffer.
    buffer_.clear();
    const std::size_t trace_events =
        appendBundleTrace(from, to, window_spans);
    const std::size_t trace_end = buffer_.size();
    if (timeseries_ != nullptr)
        timeseries_->appendCsvWindow(buffer_, from, to);
    else
        buffer_ += "series,time_s,value\n";
    const std::size_t csv_end = buffer_.size();
    appendManifest(kind, now, detail, from, to, trace_events,
                   window_spans);
    const std::string_view files = buffer_;

    const auto total = static_cast<std::int64_t>(files.size());
    if (config_.diskBudgetBytes > 0 &&
        bytesWritten_ + total > config_.diskBudgetBytes) {
        ++skippedBudget_;
        return;
    }

    const std::size_t seq = incidents_.size() + 1;
    std::string dir = config_.incidentDir + "/incident-";
    if (seq < 100)
        dir += seq < 10 ? "00" : "0";
    appendChars(dir, seq);
    dir += '-';
    dir += incidentTriggerName(kind);
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
    ok = writeArtifact(dir + "/trace.json", files.substr(0, trace_end),
                       "incident trace") &&
         ok;
    ok = writeArtifact(dir + "/timeseries.csv",
                       files.substr(trace_end, csv_end - trace_end),
                       "incident time series") &&
         ok;
    ok = writeArtifact(dir + "/manifest.json", files.substr(csv_end),
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
