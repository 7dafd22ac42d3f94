/**
 * @file
 * Extension — static vs dynamic test-time scaling: Self-Consistency
 * (N parallel CoT samples + majority vote; the paper's Fig 1(b)
 * taxonomy) compared with the agentic workflows on the same tasks.
 * Static parallel sampling buys accuracy cheaply at first and then
 * flattens well below what tool-augmented tree search reaches — the
 * reason the paper's subject is *dynamic* reasoning.
 */

#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("ext_static_scaling");

    for (Benchmark bench : {Benchmark::HotpotQA, Benchmark::Math}) {
        core::Table t("Extension: static multi-sample scaling vs "
                      "agents — " +
                      std::string(workload::benchmarkName(bench)));
        t.header({"Method", "Accuracy", "Latency", "Energy (Wh)",
                  "LLM calls"});

        {
            const auto r =
                core::runServing(defaultProbe(AgentKind::CoT, bench));
            t.row({"CoT (1 sample)", core::fmtPercent(r.accuracy()),
                   core::fmtSeconds(r.e2eSeconds.mean()),
                   core::fmtDouble(r.meanEnergyWh(), 2),
                   core::fmtDouble(r.meanLlmCalls(), 1)});
        }
        for (int n : {3, 5, 10, 20}) {
            auto cfg =
                defaultProbe(AgentKind::SelfConsistency, bench);
            cfg.agentConfig.scSamples = n;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            t.row({"Self-Consistency n=" + std::to_string(n),
                   core::fmtPercent(r.accuracy()),
                   core::fmtSeconds(r.e2eSeconds.mean()),
                   core::fmtDouble(r.meanEnergyWh(), 2),
                   core::fmtDouble(r.meanLlmCalls(), 1)});
        }
        for (int n : {5, 10}) {
            auto cfg = defaultProbe(AgentKind::BestOfN, bench);
            cfg.agentConfig.scSamples = n;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            t.row({"Best-of-N n=" + std::to_string(n),
                   core::fmtPercent(r.accuracy()),
                   core::fmtSeconds(r.e2eSeconds.mean()),
                   core::fmtDouble(r.meanEnergyWh(), 2),
                   core::fmtDouble(r.meanLlmCalls(), 1)});
        }
        for (int breadth : {3, 5}) {
            auto cfg = defaultProbe(AgentKind::TreeOfThoughts, bench);
            cfg.agentConfig.latsChildren = breadth;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            t.row({"Tree-of-Thoughts b=" + std::to_string(breadth),
                   core::fmtPercent(r.accuracy()),
                   core::fmtSeconds(r.e2eSeconds.mean()),
                   core::fmtDouble(r.meanEnergyWh(), 2),
                   core::fmtDouble(r.meanLlmCalls(), 1)});
        }
        for (AgentKind agent : {AgentKind::ReAct, AgentKind::Lats}) {
            auto r_cfg = defaultProbe(agent, bench);
            telemetry.apply(r_cfg);
            const auto r = core::runServing(r_cfg);
            t.row({std::string(agents::agentName(agent)),
                   core::fmtPercent(r.accuracy()),
                   core::fmtSeconds(r.e2eSeconds.mean()),
                   core::fmtDouble(r.meanEnergyWh(), 2),
                   core::fmtDouble(r.meanLlmCalls(), 1)});
        }
        t.print();
        std::printf("\n");
    }
    std::printf("Takeaway: static parallel sampling saturates well "
                "below tool-augmented dynamic reasoning on "
                "knowledge-gated tasks — internal diversity cannot "
                "substitute for external evidence.\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
