/**
 * @file
 * Fig 6 — GPU runtime breakdown (prefill / decode / idle) per request
 * window and the resulting average GPU utilization.
 */

#include <cstdio>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig06_gpu_breakdown");

    core::Table t("Fig 6: GPU runtime breakdown and utilization");
    t.header({"Benchmark", "Agent", "Prefill %", "Decode %", "Idle %",
              "GPU util %", "SM compute %"});

    for (const auto &[agent, bench] : supportedPairs()) {
        auto r_cfg = defaultProbe(agent, bench);
        telemetry.apply(r_cfg);
        const auto r = core::runServing(r_cfg);
        double prefill = 0.0;
        double decode = 0.0;
        double window = 0.0;
        double core_active = 0.0;
        for (const auto &req : r.requests) {
            prefill += req.gpuPrefillSeconds;
            decode += req.gpuDecodeSeconds;
            window += req.result.e2eSeconds;
            core_active += req.gpuCoreActiveSeconds;
        }
        const double idle = window - prefill - decode;
        // "GPU util" is DCGM-style kernel-busy time; "SM compute" is
        // the roofline share actually limited by the ALUs —
        // memory-bound decode keeps it tiny.
        t.row({std::string(workload::benchmarkName(bench)),
               std::string(agents::agentName(agent)),
               core::fmtPercent(prefill / window),
               core::fmtPercent(decode / window),
               core::fmtPercent(idle / window),
               core::fmtPercent((prefill + decode) / window),
               core::fmtPercent(core_active / window)});
    }
    t.print();

    std::printf("\nPaper reference: tool-augmented agents idle the GPU "
                "up to 54.5%% of the time; decode dominates the busy "
                "share (74.1%% vs 4.7%% prefill, caching on).\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
