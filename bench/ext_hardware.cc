/**
 * @file
 * Extension — hardware generations: the paper's introduction frames
 * its numbers against H100-class deployments (xAI Colossus: 100k
 * H100s, 150 MW). This bench re-runs the per-query latency/energy
 * measurements on a simulated H100-80GB node: faster decode (HBM3)
 * cuts latency, higher board power claws back part of the energy win
 * — per-query Wh improves far less than raw speed.
 */

#include <cstdio>

#include "common.hh"

namespace
{

using namespace benchutil;

serving::EngineConfig
preset(bool h100)
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = h100 ? llm::singleH100() : llm::singleA100();
    cfg.enablePrefixCaching = true;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("ext_hardware");

    core::Table t("Extension: A100 vs H100 per-query cost "
                  "(Llama-3.1-8B)");
    t.header({"Workload", "GPU", "Mean latency", "Wh/query",
              "Accuracy"});

    for (bool h100 : {false, true}) {
        const char *gpu = h100 ? "H100-80GB" : "A100-40GB";
        {
            ServeConfig cfg;
            cfg.chatbot = true;
            cfg.engineConfig = preset(h100);
            cfg.closedLoop = true;
            cfg.numRequests = 80;
            cfg.seed = kSeed;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            t.row({"Chatbot (ShareGPT)", gpu,
                   core::fmtSeconds(r.e2eSeconds.mean()),
                   core::fmtDouble(r.energyWh / cfg.numRequests, 2),
                   "-"});
        }
        for (AgentKind agent : {AgentKind::ReAct, AgentKind::Lats}) {
            core::ServeConfig cfg;
            cfg.closedLoop = true;
            cfg.agent = agent;
            cfg.bench = Benchmark::HotpotQA;
            cfg.engineConfig = preset(h100);
            cfg.numRequests = 30;
            cfg.seed = kSeed;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            t.row({std::string(agents::agentName(agent)), gpu,
                   core::fmtSeconds(r.e2eSeconds.mean()),
                   core::fmtDouble(r.meanEnergyWh(), 2),
                   core::fmtPercent(r.accuracy())});
        }
    }
    t.print();

    std::printf("\nTakeaway: a faster GPU compresses latency but the "
                "energy-per-query of agentic serving falls far less "
                "than proportionally (higher draw, and tool-idle time "
                "does not shrink) — hardware generations alone do not "
                "solve the paper's sustainability problem.\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
