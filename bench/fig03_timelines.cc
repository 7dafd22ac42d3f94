/**
 * @file
 * Fig 3 — execution timeline of each AI agent: one HotpotQA request
 * per agent, rendered as an ASCII Gantt strip of LLM (#) and tool (~)
 * activity, with overlap (%) where both are in flight (LLMCompiler).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common.hh"
#include "core/trace_export.hh"

namespace
{

using namespace benchutil;

void
renderTimeline(const agents::AgentResult &r, AgentKind kind)
{
    constexpr int width = 100;
    if (r.timeline.empty())
        return;
    sim::Tick t0 = r.timeline.front().start;
    sim::Tick t1 = 0;
    for (const auto &s : r.timeline) {
        t0 = std::min(t0, s.start);
        t1 = std::max(t1, s.end);
    }
    const double span = static_cast<double>(t1 - t0);
    std::string llm(width, ' ');
    std::string tool(width, ' ');
    for (const auto &s : r.timeline) {
        const int lo = static_cast<int>((s.start - t0) / span * width);
        const int hi = std::max(
            lo + 1, static_cast<int>((s.end - t0) / span * width));
        for (int i = lo; i < hi && i < width; ++i) {
            if (s.kind == agents::Span::Kind::Llm)
                llm[static_cast<std::size_t>(i)] = '#';
            else
                tool[static_cast<std::size_t>(i)] = '~';
        }
    }
    std::string merged(width, '.');
    for (int i = 0; i < width; ++i) {
        const bool l = llm[static_cast<std::size_t>(i)] == '#';
        const bool t = tool[static_cast<std::size_t>(i)] == '~';
        if (l && t)
            merged[static_cast<std::size_t>(i)] = '%';
        else if (l)
            merged[static_cast<std::size_t>(i)] = '#';
        else if (t)
            merged[static_cast<std::size_t>(i)] = '~';
    }
    std::printf("%-12s |%s| %6.1f s  (%d LLM, %d tool calls)\n",
                std::string(agents::agentName(kind)).c_str(),
                merged.c_str(), r.e2eSeconds, r.llmCalls, r.toolCalls);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig03_timelines");

    std::printf("== Fig 3: Execution timeline of each AI agent "
                "(HotpotQA, one request) ==\n");
    std::printf("legend: # LLM inference, ~ tool use, %% overlap, "
                ". agent idle\n\n");
    const char *trace_dir = std::getenv("AGENTSIM_TRACE_DIR");
    bool trace_ok = true;
    for (AgentKind kind : agents::allAgents) {
        auto cfg = defaultProbe(kind, Benchmark::HotpotQA, true, false,
                                /*tasks=*/1);
        telemetry.apply(cfg);
        const auto probe = core::runServing(cfg);
        renderTimeline(probe.requests.front().result, kind);
        if (trace_dir != nullptr && trace_dir[0] != '\0') {
            const std::string name =
                std::string(agents::agentName(kind));
            if (!core::writeChromeTrace(std::string(trace_dir) +
                                            "/fig03_" + name + ".json",
                                        probe.requests.front().result,
                                        name + " / HotpotQA"))
                trace_ok = false;
        }
    }
    if (!trace_ok) {
        std::fprintf(stderr,
                     "error: failed to write one or more Chrome "
                     "traces under AGENTSIM_TRACE_DIR=%s\n",
                     trace_dir);
        return 1;
    }
    if (trace_dir != nullptr) {
        std::printf("\nChrome traces written to %s (open in "
                    "chrome://tracing or Perfetto)\n",
                    trace_dir);
    }
    if (!telemetry.write())
        return 1;
    return 0;
}
