#include "core/bottleneck_report.hh"

#include <algorithm>
#include <string_view>
#include <unordered_map>

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
                   telemetry::MetricsRegistry &registry)
{
    registry
        .counter("agentsim_blame_requests_total",
                 "Requests folded into blame aggregates")
        .set(static_cast<double>(spans.requestsFinished()));
    registry
        .gauge("agentsim_blame_exemplars_retained",
               "Tail exemplars currently retained (full span trees)")
        .set(static_cast<double>(spans.exemplars().size()));
    registry
        .counter("agentsim_blame_exemplars_evicted",
                 "Exemplar candidates dropped or displaced by the cap")
        .set(static_cast<double>(spans.exemplarsEvicted()));

    for (const auto &agg : spans.aggregates()) {
        const telemetry::Labels labels{{"workflow", agg.workflow}};
        registry
            .counter("agentsim_blame_requests",
                     "Requests in this workflow's blame aggregate",
                     labels)
            .set(static_cast<double>(agg.requests));
        for (auto cat : kCategories) {
            const std::string name(telemetry::blameCategoryName(cat));
            registry
                .gauge("agentsim_blame_mean_" + name + "_seconds",
                       "Mean critical-path seconds blamed on " + name,
                       labels)
                .set(agg.meanBlame(cat));
            registry
                .gauge("agentsim_blame_p95_" + name + "_seconds",
                       "p95 critical-path seconds blamed on " + name,
                       labels)
                .set(agg.p95Blame(cat));
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
    // A span is named by its label, or by its kind when unlabelled.
    // Each distinct name is interned once per call; names[i] is span
    // i's id in the current exemplar.
    std::unordered_map<std::string_view, telemetry::TraceName> ids;
    std::vector<telemetry::TraceName> names;
    std::uint64_t lane = 0;
    for (const auto &ex : spans.exemplars()) {
        ++lane;
        telemetry::CriticalPath path = telemetry::criticalPath(ex.tree);
        std::vector<std::uint32_t> &on_path = path.spans;
        std::sort(on_path.begin(), on_path.end());
        names.clear();
        for (const telemetry::Span &span : ex.tree.spans) {
            const std::string_view text =
                span.label.empty() ? telemetry::spanKindName(span.kind)
                                   : std::string_view(span.label);
            auto [it, added] = ids.try_emplace(text);
            if (added)
                it->second = trace.intern(text);
            names.push_back(it->second);
        }
        trace.threadName(
            telemetry::TracePid::kSpans, lane,
            sim::strfmt("%s req %llu%s%s", ex.tree.workflow.c_str(),
                        static_cast<unsigned long long>(
                            ex.tree.requestKey),
                        ex.sloViolated ? " [SLO]" : "",
                        sim::strfmt(" (%.2fs)", ex.latencySeconds)
                            .c_str()));
        // Nestable async events pair like a stack in timestamp order,
        // so interleave begins and ends sorted by time: at the same
        // tick, ends of earlier-begun spans come first (inner ends
        // first), then begins (outer, longer ones first), then the
        // ends of zero-length spans, which must follow their own
        // begins. Properly nested spans and same-start sibling
        // fan-out then pair exactly; only true partial crossings
        // (DAG tools) can swap labels.
        struct Event
        {
            sim::Tick at;
            /** 0: end of an earlier-begun span, 1: begin, 2: end of
             *  a zero-length span. */
            int phase;
            std::uint32_t span;
        };
        std::vector<Event> events;
        events.reserve(ex.tree.spans.size() * 2);
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(ex.tree.spans.size());
             ++i) {
            const telemetry::Span &span = ex.tree.spans[i];
            events.push_back({span.start, 1, i});
            events.push_back({span.end, span.start < span.end ? 0 : 2, i});
        }
        std::stable_sort(
            events.begin(), events.end(),
            [&](const Event &a, const Event &b) {
                if (a.at != b.at)
                    return a.at < b.at;
                if (a.phase != b.phase)
                    return a.phase < b.phase;
                const telemetry::Span &sa = ex.tree.spans[a.span];
                const telemetry::Span &sb = ex.tree.spans[b.span];
                if (a.phase != 1)
                    return sa.start > sb.start;
                return sa.end > sb.end;
            });
        for (const Event &ev : events) {
            const telemetry::Span &span = ex.tree.spans[ev.span];
            const telemetry::TraceName name = names[ev.span];
            if (ev.phase != 1) {
                trace.asyncEnd(telemetry::TracePid::kSpans, lane, name,
                               "span", ev.at);
                continue;
            }
            using telemetry::TraceArg;
            telemetry::TraceArgs args{
                TraceArg::text("kind", telemetry::spanKindName(span.kind)),
                TraceArg::text("category",
                               telemetry::blameCategoryName(
                                   telemetry::blameCategory(span.kind))),
                TraceArg::boolean("critical_path",
                                  std::binary_search(on_path.begin(),
                                                     on_path.end(),
                                                     ev.span))};
            if (span.followsFrom != telemetry::kNoSpan)
                args[3] = TraceArg::integer("follows_from", span.followsFrom);
            trace.asyncBegin(telemetry::TracePid::kSpans, lane, name,
                             "span", ev.at, args);
        }
    }
}

} // namespace agentsim::core
