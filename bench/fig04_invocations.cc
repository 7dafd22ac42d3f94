/**
 * @file
 * Fig 4 — average number of LLM and tool invocations per request for
 * every evaluated (agent, benchmark) pair, plus the paper's headline
 * ratios (tool-augmented agents vs CoT; LATS's call count).
 */

#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig04_invocations");

    core::Table t("Fig 4: Average LLM and tool invocations per request");
    t.header({"Benchmark", "Agent", "LLM calls", "Tool calls"});

    double cot_calls = 0.0;
    int cot_count = 0;
    double aug_calls = 0.0; // tool-augmented agents excluding LATS
    int aug_count = 0;
    double lats_calls = 0.0;
    int lats_count = 0;

    for (const auto &[agent, bench] : supportedPairs()) {
        auto r_cfg = defaultProbe(agent, bench);
        telemetry.apply(r_cfg);
        const auto r = core::runServing(r_cfg);
        t.row({std::string(workload::benchmarkName(bench)),
               std::string(agents::agentName(agent)),
               core::fmtDouble(r.meanLlmCalls(), 1),
               core::fmtDouble(r.meanToolCalls(), 1)});
        if (agent == AgentKind::CoT) {
            cot_calls += r.meanLlmCalls();
            ++cot_count;
        } else if (agent == AgentKind::Lats) {
            lats_calls += r.meanLlmCalls();
            ++lats_count;
        } else {
            aug_calls += r.meanLlmCalls();
            ++aug_count;
        }
    }
    t.print();

    const double cot_avg = cot_calls / cot_count;
    const double aug_avg = aug_calls / aug_count;
    std::printf("\nTool-augmented agents (excl. tree search) average "
                "%.1fx the LLM calls of CoT (paper: 9.2x).\n",
                aug_avg / cot_avg);
    std::printf("LATS averages %.1f LLM calls per request "
                "(paper: 71.0).\n",
                lats_calls / lats_count);
    if (!telemetry.write())
        return 1;
    return 0;
}
