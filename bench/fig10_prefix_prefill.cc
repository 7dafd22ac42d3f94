/**
 * @file
 * Fig 10 — breakdown of LLM inference latency into prefill and decode
 * with and without prefix caching, per (agent, benchmark) pair.
 */

#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig10_prefix_prefill");

    core::Table t("Fig 10: Prefill/decode latency split, with vs "
                  "without prefix caching");
    t.header({"Benchmark", "Agent", "Prefill (no cache)",
              "Prefill (cache)", "Decode (no cache)", "Decode (cache)",
              "Prefill reduction"});

    double reduction_total = 0.0;
    int reduction_count = 0;

    for (const auto &[agent, bench] : supportedPairs()) {
        auto off_cfg = defaultProbe(agent, bench, false);
        telemetry.apply(off_cfg);
        const auto off = core::runServing(off_cfg);
        auto on_cfg = defaultProbe(agent, bench, true);
        telemetry.apply(on_cfg);
        const auto on = core::runServing(on_cfg);

        const double p_off = off.meanOver(&RequestProbe::gpuPrefillSeconds);
        const double p_on = on.meanOver(&RequestProbe::gpuPrefillSeconds);
        const double d_off = off.meanOver(&RequestProbe::gpuDecodeSeconds);
        const double d_on = on.meanOver(&RequestProbe::gpuDecodeSeconds);
        const double reduction = 1.0 - p_on / p_off;
        if (agent != AgentKind::CoT) {
            reduction_total += reduction;
            ++reduction_count;
        }
        t.row({std::string(workload::benchmarkName(bench)),
               std::string(agents::agentName(agent)),
               core::fmtSeconds(p_off), core::fmtSeconds(p_on),
               core::fmtSeconds(d_off), core::fmtSeconds(d_on),
               core::fmtPercent(reduction)});
    }
    t.print();

    std::printf("\nPrefix caching cuts agent prefill time by %.1f%% on "
                "average (paper: 58.6%%); decode is untouched.\n",
                100.0 * reduction_total / reduction_count);
    if (!telemetry.write())
        return 1;
    return 0;
}
