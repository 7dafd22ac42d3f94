#include "core/bottleneck_report.hh"

#include <algorithm>
#include <set>

#include "core/cost_report.hh"
#include "sim/strfmt.hh"
#include "telemetry/critical_path.hh"

namespace agentsim::core
{

namespace
{

constexpr std::array<telemetry::BlameCategory,
                     telemetry::kBlameCategories>
    kCategories{telemetry::BlameCategory::Queue,
                telemetry::BlameCategory::Prefill,
                telemetry::BlameCategory::Decode,
                telemetry::BlameCategory::Tool,
                telemetry::BlameCategory::Migration,
                telemetry::BlameCategory::Idle};

} // namespace

Table
renderBlameTable(const telemetry::SpanCollector &spans,
                 const std::string &title)
{
    Table table(title);
    std::vector<std::string> header{"workflow", "requests", "mean_s",
                                    "p95_s"};
    for (auto cat : kCategories) {
        header.push_back(std::string(telemetry::blameCategoryName(cat)) +
                         "_mean_s");
        header.push_back(std::string(telemetry::blameCategoryName(cat)) +
                         "_p95_s");
    }
    table.header(std::move(header));
    for (const auto &agg : spans.aggregates()) {
        std::vector<std::string> row{
            agg.workflow, fmtCount(static_cast<double>(agg.requests)),
            fmtDouble(agg.meanLatency(), 3),
            fmtDouble(agg.latencyP95.value(), 3)};
        for (auto cat : kCategories) {
            row.push_back(fmtDouble(agg.meanBlame(cat), 3));
            row.push_back(fmtDouble(agg.p95Blame(cat), 3));
        }
        table.row(std::move(row));
    }
    return table;
}

void
exportBlameMetrics(const telemetry::SpanCollector &spans,
                   telemetry::MetricsRegistry &registry, sim::Tick now)
{
    registry
        .counter("agentsim_blame_requests_total",
                 "Requests folded into blame aggregates")
        .set(static_cast<double>(spans.requestsFinished()));
    registry
        .gauge("agentsim_blame_exemplars_retained",
               "Tail exemplars currently retained (full span trees)")
        .set(now, static_cast<double>(spans.exemplars().size()));
    registry
        .counter("agentsim_blame_exemplars_evicted",
                 "Exemplar candidates dropped or displaced by the cap")
        .set(static_cast<double>(spans.exemplarsEvicted()));

    for (const auto &agg : spans.aggregates()) {
        const std::string label =
            sim::strfmt("_%s", sanitizeMetricLabel(agg.workflow).c_str());
        registry
            .counter("agentsim_blame_requests" + label,
                     "Requests in this workflow's blame aggregate")
            .set(static_cast<double>(agg.requests));
        for (auto cat : kCategories) {
            const std::string name(telemetry::blameCategoryName(cat));
            registry
                .gauge("agentsim_blame_mean_" + name + "_seconds" +
                           label,
                       "Mean critical-path seconds blamed on " + name)
                .set(now, agg.meanBlame(cat));
            registry
                .gauge("agentsim_blame_p95_" + name + "_seconds" +
                           label,
                       "p95 critical-path seconds blamed on " + name)
                .set(now, agg.p95Blame(cat));
        }
    }
}

void
emitSpanExemplars(const telemetry::SpanCollector &spans,
                  telemetry::TraceSink &trace)
{
    if (spans.exemplars().empty())
        return;
    trace.processName(telemetry::TracePid::kSpans, "tail exemplars");
    std::uint64_t lane = 0;
    for (const auto &ex : spans.exemplars()) {
        ++lane;
        const telemetry::CriticalPath path =
            telemetry::criticalPath(ex.tree);
        std::set<std::uint32_t> on_path(path.spans.begin(),
                                        path.spans.end());
        trace.threadName(
            telemetry::TracePid::kSpans, lane,
            sim::strfmt("%s req %llu%s%s", ex.tree.workflow.c_str(),
                        static_cast<unsigned long long>(
                            ex.tree.requestKey),
                        ex.sloViolated ? " [SLO]" : "",
                        sim::strfmt(" (%.2fs)", ex.latencySeconds)
                            .c_str()));
        // Nestable async events pair like a stack in timestamp order,
        // so interleave begins and ends sorted by time: ends before
        // begins at the same tick, inner (later-begun) ends first,
        // outer (longer) begins first. Properly nested spans and
        // same-start sibling fan-out then pair exactly; only true
        // partial crossings (DAG tools) can swap labels.
        struct Event
        {
            sim::Tick at;
            bool isEnd;
            std::uint32_t span;
        };
        std::vector<Event> events;
        events.reserve(ex.tree.spans.size() * 2);
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(ex.tree.spans.size());
             ++i) {
            events.push_back({ex.tree.spans[i].start, false, i});
            events.push_back({ex.tree.spans[i].end, true, i});
        }
        std::stable_sort(
            events.begin(), events.end(),
            [&](const Event &a, const Event &b) {
                if (a.at != b.at)
                    return a.at < b.at;
                if (a.isEnd != b.isEnd)
                    return a.isEnd;
                const telemetry::Span &sa = ex.tree.spans[a.span];
                const telemetry::Span &sb = ex.tree.spans[b.span];
                if (a.isEnd)
                    return sa.start > sb.start;
                return sa.end > sb.end;
            });
        for (const Event &ev : events) {
            const telemetry::Span &span = ex.tree.spans[ev.span];
            const std::string name =
                span.label.empty()
                    ? std::string(telemetry::spanKindName(span.kind))
                    : span.label;
            if (ev.isEnd) {
                trace.asyncEnd(telemetry::TracePid::kSpans, lane, name,
                               "span", ev.at);
                continue;
            }
            std::string args = sim::strfmt(
                "\"kind\":\"%s\",\"category\":\"%s\","
                "\"critical_path\":%s",
                telemetry::spanKindName(span.kind),
                telemetry::blameCategoryName(
                    telemetry::blameCategory(span.kind)),
                on_path.count(ev.span) != 0 ? "true" : "false");
            if (span.followsFrom != telemetry::kNoSpan) {
                args += sim::strfmt(",\"follows_from\":%u",
                                    span.followsFrom);
            }
            trace.asyncBegin(telemetry::TracePid::kSpans, lane, name,
                             "span", ev.at, args);
        }
    }
}

} // namespace agentsim::core
