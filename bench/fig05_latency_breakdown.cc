/**
 * @file
 * Fig 5 — latency breakdown of agents (LLM / tool / overlap / other)
 * and end-to-end latency per request.
 *
 * Doubles as the span-pipeline cross-check: every probe also collects
 * causal span trees, and the critical-path blame vectors must agree
 * with the ad-hoc interval accounting within 2% of end-to-end time —
 * (a) blame conservation (the vector sums to the request latency) and
 * (b) active-time agreement (non-idle blame equals the LLM + tool +
 * overlap time). A miss exits non-zero.
 */

#include <cmath>
#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig05_latency_breakdown");

    core::Table t("Fig 5: Latency breakdown and end-to-end latency");
    t.header({"Benchmark", "Agent", "LLM %", "Tool %", "Overlap %",
              "Other %", "E2E latency"});

    double llm_share_total = 0.0;
    double tool_share_total = 0.0;
    int pairs = 0;
    bool cross_ok = true;
    double worst_conserve = 0.0;
    double worst_active = 0.0;

    for (const auto &[agent, bench] : supportedPairs()) {
        auto cfg = defaultProbe(agent, bench);
        telemetry.apply(cfg);
        // Collect span trees regardless of the CLI flags: the blame
        // cross-check below is part of the figure's contract.
        telemetry::SpanCollector spans;
        cfg.spans = &spans;
        const auto r = core::runServing(cfg);
        double llm = 0.0;
        double tool = 0.0;
        double overlap = 0.0;
        double other = 0.0;
        double e2e = 0.0;
        double blame_total = 0.0;
        double blame_idle = 0.0;
        for (const auto &req : r.requests) {
            llm += req.result.latency.llmOnlySeconds;
            tool += req.result.latency.toolOnlySeconds;
            overlap += req.result.latency.overlapSeconds;
            other += req.result.latency.otherSeconds;
            e2e += req.result.e2eSeconds;
            blame_total += req.blame.total();
            blame_idle += req.blame[telemetry::BlameCategory::Idle];
        }
        t.row({std::string(workload::benchmarkName(bench)),
               std::string(agents::agentName(agent)),
               core::fmtPercent(llm / e2e),
               core::fmtPercent(tool / e2e),
               core::fmtPercent(overlap / e2e),
               core::fmtPercent(other / e2e),
               core::fmtSeconds(e2e / r.requests.size())});
        if (agent != AgentKind::CoT) {
            llm_share_total += (llm + overlap) / e2e;
            tool_share_total += (tool + overlap) / e2e;
            ++pairs;
        }

        // Cross-check: the two accountings measure the same wall
        // clock, so compare identities rather than per-category
        // splits (the critical path attributes overlapped work to a
        // single span; the ad-hoc accounting tracks activity).
        const double active = llm + tool + overlap;
        const double conserve_err =
            std::abs(blame_total - e2e) / e2e;
        const double active_err =
            std::abs((blame_total - blame_idle) - active) / e2e;
        worst_conserve = std::max(worst_conserve, conserve_err);
        worst_active = std::max(worst_active, active_err);
        if (conserve_err > 0.02 || active_err > 0.02) {
            std::fprintf(stderr,
                         "error: span blame disagrees with ad-hoc "
                         "accounting for %s/%s: conservation %.2f%%, "
                         "active time %.2f%% (tolerance 2%%)\n",
                         workload::benchmarkName(bench).data(),
                         agents::agentName(agent).data(),
                         100.0 * conserve_err, 100.0 * active_err);
            cross_ok = false;
        }
    }
    t.print();

    std::printf("\nAcross tool-augmented pairs: LLM inference %.1f%%, "
                "tool execution %.1f%% of latency "
                "(paper: 69.4%% / 30.2%%).\n",
                100.0 * llm_share_total / pairs,
                100.0 * tool_share_total / pairs);
    std::printf("Span cross-check: worst conservation error %.3f%%, "
                "worst active-time error %.3f%% of e2e "
                "(tolerance 2%%) — %s\n",
                100.0 * worst_conserve, 100.0 * worst_active,
                cross_ok ? "OK" : "FAIL");
    if (!cross_ok)
        return 1;
    if (!telemetry.write())
        return 1;
    return 0;
}
