/**
 * @file
 * Fig 8 — breakdown of input and output tokens in LLM inference:
 * per-call average token counts by segment kind (instruction,
 * few-shot, user, LLM history, tool history, output).
 */

#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig08_token_breakdown");

    core::Table t("Fig 8: Input/output token breakdown per LLM call");
    t.header({"Benchmark", "Agent", "Instr", "Few-shot", "User",
              "LLM hist", "Tool hist", "Output"});

    for (const auto &[agent, bench] : supportedPairs()) {
        auto r_cfg = defaultProbe(agent, bench);
        telemetry.apply(r_cfg);
        const auto r = core::runServing(r_cfg);
        agents::CallTokens totals;
        std::int64_t calls = 0;
        for (const auto &req : r.requests) {
            totals += req.result.tokens;
            calls += req.result.llmCalls;
        }
        const double c = static_cast<double>(calls);
        t.row({std::string(workload::benchmarkName(bench)),
               std::string(agents::agentName(agent)),
               core::fmtCount(totals.instruction / c),
               core::fmtCount(totals.fewShot / c),
               core::fmtCount(totals.user / c),
               core::fmtCount(totals.llmHistory / c),
               core::fmtCount(totals.toolHistory / c),
               core::fmtCount(totals.output / c)});
    }
    t.print();

    std::printf("\nPaper reference: tool-augmented agents consume more "
                "input but fewer output tokens per call than CoT; "
                "LATS keeps contexts short (path-only history) but "
                "samples many outputs.\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
