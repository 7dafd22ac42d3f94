/**
 * @file
 * Fig 11 — end-to-end per-request LLM inference latency with and
 * without prefix caching: large relative prefill savings translate
 * into modest end-to-end gains because decode dominates.
 */

#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig11_prefix_latency");

    core::Table t("Fig 11: LLM inference latency with/without prefix "
                  "caching");
    t.header({"Benchmark", "Agent", "LLM time (no cache)",
              "LLM time (cache)", "Reduction"});

    double agent_reduction = 0.0;
    int agent_count = 0;
    double cot_reduction = 0.0;
    int cot_count = 0;

    for (const auto &[agent, bench] : supportedPairs()) {
        auto off_cfg = defaultProbe(agent, bench, false);
        telemetry.apply(off_cfg);
        const auto off = core::runServing(off_cfg);
        auto on_cfg = defaultProbe(agent, bench, true);
        telemetry.apply(on_cfg);
        const auto on = core::runServing(on_cfg);
        auto llm_time = [](const core::ServeResult &r) {
            return r.meanOver([](const RequestProbe &req) {
                return req.gpuPrefillSeconds + req.gpuDecodeSeconds;
            });
        };
        const double t_off = llm_time(off);
        const double t_on = llm_time(on);
        const double reduction = 1.0 - t_on / t_off;
        if (agent == AgentKind::CoT) {
            cot_reduction += reduction;
            ++cot_count;
        } else {
            agent_reduction += reduction;
            ++agent_count;
        }
        t.row({std::string(workload::benchmarkName(bench)),
               std::string(agents::agentName(agent)),
               core::fmtSeconds(t_off), core::fmtSeconds(t_on),
               core::fmtPercent(reduction)});
    }
    t.print();

    std::printf("\nEnd-to-end LLM-time reduction from caching: "
                "agents %.1f%% (paper: 15.7%%), CoT %.1f%% "
                "(paper: minimal — decode dominates).\n",
                100.0 * agent_reduction / agent_count,
                100.0 * cot_reduction / cot_count);
    if (!telemetry.write())
        return 1;
    return 0;
}
