/**
 * @file
 * Ablation (keytakeaway #1) — speculative tool invocation: a
 * predicted tool call launches concurrently with each reasoning LLM
 * call, hiding tool latency when the prediction is right and wasting
 * a call when it is wrong. The win tracks the tool's latency share:
 * large on HotpotQA (1.2 s Wikipedia calls), negligible on WebShop
 * (20 ms local navigation).
 */

#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("ablation_speculative");

    core::Table t("Ablation: speculative tool invocation "
                  "(ReAct, single request at a time)");
    t.header({"Benchmark", "Speculation", "Mean e2e", "Tool calls",
              "Accuracy", "Latency saved"});

    for (Benchmark bench : {Benchmark::HotpotQA, Benchmark::WebShop}) {
        double base_latency = 0.0;
        for (bool speculative : {false, true}) {
            auto cfg = defaultProbe(AgentKind::ReAct, bench);
            cfg.agentConfig.speculativeTools = speculative;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            const double latency = r.e2eSeconds.mean();
            if (!speculative)
                base_latency = latency;
            t.row({std::string(workload::benchmarkName(bench)),
                   speculative ? "on" : "off",
                   core::fmtSeconds(latency),
                   core::fmtDouble(r.meanToolCalls(), 1),
                   core::fmtPercent(r.accuracy()),
                   speculative
                       ? core::fmtPercent(1.0 - latency / base_latency)
                       : std::string("-")});
        }
    }
    t.print();

    std::printf("\nDesign note: realizes the paper's proposal of "
                "\"speculative tool invocation ... to overlap LLM "
                "inference with tool execution\"; the extra tool "
                "calls are the price of wrong predictions.\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
