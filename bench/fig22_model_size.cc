/**
 * @file
 * Fig 22 — accuracy-cost trade-offs under test-time scaling across
 * model sizes (Llama-3.1 8B vs 70B) on HotpotQA: latency, total token
 * usage, and GPU energy per request for Reflexion (sequential
 * scaling) and LATS (parallel scaling).
 */

#include <cstdio>
#include <vector>

#include "common.hh"

namespace
{

using namespace benchutil;

void
sweepModel(AgentKind agent, bool use70b, TelemetryCli &telemetry)
{
    const char *model = use70b ? "70B" : "8B";
    core::Table t(std::string("Fig 22: ") +
                  std::string(agents::agentName(agent)) + " on " +
                  model + " — test-time scaling levels (HotpotQA)");
    t.header({"Scaling level", "Accuracy", "Latency", "Total tokens",
              "Energy (Wh)"});

    const std::vector<int> levels =
        agent == AgentKind::Reflexion
            ? std::vector<int>{0, 1, 2, 4, 8, 16}
            : std::vector<int>{1, 2, 4, 8, 16};
    for (int level : levels) {
        auto cfg = defaultProbe(agent, Benchmark::HotpotQA, true,
                                use70b, 30);
        if (agent == AgentKind::Reflexion)
            cfg.agentConfig.maxReflections = level;
        else
            cfg.agentConfig.latsChildren = level;
        telemetry.apply(cfg);
        const auto r = core::runServing(cfg);
        const double tokens = r.meanOver([](const RequestProbe &req) {
            return static_cast<double>(req.result.tokens.inputTotal() +
                                       req.result.tokens.output);
        });
        const std::string label =
            (agent == AgentKind::Reflexion ? "reflections="
                                           : "children=") +
            std::to_string(level);
        t.row({label, core::fmtPercent(r.accuracy()),
               core::fmtSeconds(r.e2eSeconds.mean()),
               core::fmtEng(tokens, "tok"),
               core::fmtDouble(r.meanEnergyWh(), 2)});
    }
    t.print();
    std::printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig22_model_size");

    for (AgentKind agent : {AgentKind::Reflexion, AgentKind::Lats}) {
        sweepModel(agent, false, telemetry);
        sweepModel(agent, true, telemetry);
    }
    std::printf(
        "Paper reference: 70B reaches high accuracy with fewer steps "
        "but ~8x the GPUs; the 8B model needs more tokens/steps yet "
        "costs less energy per request, and with LATS-style parallel "
        "scaling approaches 70B accuracy — test-time strategy "
        "compensates for model size.\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
