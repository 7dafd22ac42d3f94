/**
 * @file
 * Extension — role-based multi-agent collaboration (paper §VII
 * related work: CAMEL, AutoGen): an actor + LLM-critic duo compared
 * against the single-agent workflows it interpolates between. The
 * critic's fallibility is the interesting part: it ships some wrong
 * answers (false accepts) and burns rounds revising correct ones
 * (false rejects), so the duo lands between ReAct and
 * oracle-feedback Reflexion on both accuracy and cost.
 */

#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("ext_multi_agent");

    for (Benchmark bench : {Benchmark::HotpotQA, Benchmark::HumanEval}) {
        core::Table t("Extension: actor-critic duo vs single agents "
                      "— " +
                      std::string(workload::benchmarkName(bench)));
        t.header({"Workflow", "Accuracy", "Mean e2e", "LLM calls",
                  "Energy (Wh)"});
        for (AgentKind agent :
             {AgentKind::ReAct, AgentKind::ActorCritic,
              AgentKind::Reflexion}) {
            auto r_cfg = defaultProbe(agent, bench);
            telemetry.apply(r_cfg);
            const auto r = core::runServing(r_cfg);
            t.row({std::string(agents::agentName(agent)),
                   core::fmtPercent(r.accuracy()),
                   core::fmtSeconds(r.e2eSeconds.mean()),
                   core::fmtDouble(r.meanLlmCalls(), 1),
                   core::fmtDouble(r.meanEnergyWh(), 2)});
        }
        t.print();
        std::printf("\n");
    }
    std::printf("Takeaway: collaboration via an internal judge buys "
                "part of Reflexion's gain without environment reward "
                "access, at multi-agent coordination cost — the "
                "workflows the paper's related work points to inherit "
                "the same infrastructure economics.\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
