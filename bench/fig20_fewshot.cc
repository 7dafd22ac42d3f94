/**
 * @file
 * Fig 20 — latency and accuracy vs the number of few-shot examples in
 * ReAct: accuracy first rises then flattens (and can regress); average
 * latency *falls* with good examples because the agent needs fewer
 * reasoning steps despite the longer prompt.
 */

#include <cstdio>
#include <vector>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig20_fewshot");

    for (Benchmark bench : {Benchmark::HotpotQA, Benchmark::Math}) {
        core::Table t("Fig 20: Few-shot sweep — ReAct on " +
                      std::string(workload::benchmarkName(bench)));
        t.header({"Examples", "Accuracy", "Avg latency",
                  "Avg LLM calls", "Acc/latency (1/s)", "Marker"});

        struct Row
        {
            int examples;
            double acc, avg, calls, eff;
        };
        std::vector<Row> rows;
        for (int fs : {0, 1, 2, 3, 4, 6, 8, 10, 12}) {
            auto cfg = defaultProbe(AgentKind::ReAct, bench);
            cfg.agentConfig.fewShotExamples = fs;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            rows.push_back({fs, r.accuracy(), r.e2eSeconds.mean(),
                            r.meanLlmCalls(),
                            r.accuracy() / r.e2eSeconds.mean()});
        }
        std::size_t best_acc = 0;
        std::size_t best_eff = 0;
        for (std::size_t i = 1; i < rows.size(); ++i) {
            if (rows[i].acc > rows[best_acc].acc)
                best_acc = i;
            if (rows[i].eff > rows[best_eff].eff)
                best_eff = i;
        }
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::string marker;
            if (i == best_acc)
                marker += "max-accuracy ";
            if (i == best_eff)
                marker += "peak-efficiency";
            t.row({core::fmtCount(rows[i].examples),
                   core::fmtPercent(rows[i].acc),
                   core::fmtSeconds(rows[i].avg),
                   core::fmtDouble(rows[i].calls, 1),
                   core::fmtDouble(rows[i].eff, 4), marker});
        }
        t.print();
        std::printf("\n");
    }
    std::printf("Paper reference: a few well-chosen examples improve "
                "accuracy AND latency (fewer steps beat longer "
                "prompts); excessive prompting regresses.\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
