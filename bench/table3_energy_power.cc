/**
 * @file
 * Table III — energy and power demands of AI agent serving on
 * HotpotQA: accuracy, latency, per-query GPU energy, and
 * datacenter-wide power at today's (71.4 M queries/day) and
 * tomorrow's (13.7 B queries/day) traffic, for ShareGPT (single-turn
 * baseline), Reflexion (sequential scaling) and LATS (parallel
 * scaling) on Llama-3.1 8B and 70B. Agent design points are the
 * highest-accuracy configurations from the Fig 22 sweeps.
 */

#include <cstdio>
#include <vector>

#include "common.hh"

namespace
{

using namespace benchutil;

struct Entry
{
    std::string name;
    double accuracy = -1.0; // <0: not applicable
    double latency = 0.0;
    double whPerQuery = 0.0;
};

/** Highest-accuracy point of an agent's Fig 22 scaling sweep. */
Entry
bestAgentPoint(AgentKind agent, bool use70b)
{
    const std::vector<int> levels =
        agent == AgentKind::Reflexion
            ? std::vector<int>{0, 1, 2, 4, 8, 16}
            : std::vector<int>{1, 2, 4, 8, 16};
    Entry best;
    for (int level : levels) {
        auto cfg = defaultProbe(agent, Benchmark::HotpotQA, true,
                                use70b, 30);
        if (agent == AgentKind::Reflexion)
            cfg.agentConfig.maxReflections = level;
        else
            cfg.agentConfig.latsChildren = level;
        const auto r = core::runServing(cfg);
        if (r.accuracy() > best.accuracy) {
            best.accuracy = r.accuracy();
            best.latency = r.e2eSeconds.mean();
            best.whPerQuery = r.meanEnergyWh();
        }
    }
    best.name = std::string(agents::agentName(agent));
    return best;
}

Entry
shareGptPoint(bool use70b)
{
    const int n = 100;
    const auto r = shareGptClosedLoop(n, use70b);
    Entry e;
    e.name = "ShareGPT";
    e.latency = r.e2eSeconds.mean();
    e.whPerQuery = r.energyWh / n;
    return e;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("table3_energy_power");

    core::Table t("Table III: Energy and power demands of agent "
                  "serving (HotpotQA)");
    t.header({"Model", "Workflow", "Accuracy", "Latency (x)",
              "Wh/query (x)", "Power @71.4M q/day",
              "Power @13.7B q/day"});

    for (bool use70b : {false, true}) {
        const Entry baseline = shareGptPoint(use70b);
        std::vector<Entry> entries{baseline,
                                   bestAgentPoint(
                                       AgentKind::Reflexion, use70b),
                                   bestAgentPoint(AgentKind::Lats,
                                                  use70b)};
        for (const auto &e : entries) {
            const double lat_x = e.latency / baseline.latency;
            const double wh_x = e.whPerQuery / baseline.whPerQuery;
            t.row({use70b ? "70B" : "8B", e.name,
                   e.accuracy < 0 ? "-"
                                  : core::fmtPercent(e.accuracy, 0),
                   core::fmtSeconds(e.latency) + " (" +
                       core::fmtDouble(lat_x, 1) + "x)",
                   core::fmtDouble(e.whPerQuery, 2) + " (" +
                       core::fmtDouble(wh_x, 1) + "x)",
                   core::fmtEng(energy::datacenterPowerWatts(
                                    e.whPerQuery,
                                    energy::chatGptDailyQueries),
                                "W"),
                   core::fmtEng(energy::datacenterPowerWatts(
                                    e.whPerQuery,
                                    energy::googleDailyQueries),
                                "W")});
        }
    }
    t.print();

    std::printf(
        "\nContext: paper reports agents at 62-137x the per-query "
        "energy of single-turn inference; ~100 Wh/query turns tens of "
        "millions of daily queries into gigawatt-scale demand. For "
        "scale: Seattle uses %.1f GWh/day; the average U.S. grid load "
        "is %.0f GW.\n",
        energy::seattleDailyGWh, energy::usGridAverageGW);
    if (!telemetry.write())
        return 1;
    return 0;
}
