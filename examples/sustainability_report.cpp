/**
 * @file
 * Sustainability what-if: the infrastructure cost of switching a
 * chatbot fleet to agentic serving (paper §VI).
 *
 * Measures per-query energy for a single-turn chatbot and for two
 * agent workflows (sequential Reflexion, parallel LATS) on both
 * Llama-3.1-8B and 70B backends, then projects datacenter power at
 * user-selectable traffic, printing comparisons against real-world
 * yardsticks (Seattle's daily consumption, the U.S. grid).
 *
 *   ./examples/sustainability_report
 */

#include <cstdio>

#include "core/probe.hh"
#include "core/serving_system.hh"
#include "core/table.hh"
#include "energy/projection.hh"

namespace
{

using namespace agentsim;

double
agentWhPerQuery(agents::AgentKind agent, bool use70b)
{
    core::ServeConfig cfg;
    cfg.closedLoop = true;
    cfg.agent = agent;
    cfg.bench = workload::Benchmark::HotpotQA;
    cfg.engineConfig =
        use70b ? core::enginePreset70b() : core::enginePreset8b();
    cfg.numRequests = 25;
    cfg.seed = 3;
    return core::runServing(cfg).meanEnergyWh();
}

double
chatbotWhPerQuery(bool use70b)
{
    core::ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig =
        use70b ? core::enginePreset70b() : core::enginePreset8b();
    cfg.closedLoop = true;
    cfg.numRequests = 60;
    cfg.seed = 3;
    const auto r = core::runServing(cfg);
    return r.energyWh / cfg.numRequests;
}

} // namespace

int
main()
{
    using namespace agentsim;

    const double daily_queries = energy::chatGptDailyQueries;

    core::Table t("Projected fleet demand at ChatGPT-scale traffic "
                  "(71.4 M queries/day)");
    t.header({"Workload", "Model", "Wh/query", "Daily energy",
              "Fleet power", "vs Seattle/day"});

    struct Row
    {
        const char *name;
        double wh;
    };
    for (bool use70b : {false, true}) {
        const Row rows[] = {
            {"Chatbot (single turn)", chatbotWhPerQuery(use70b)},
            {"Reflexion agent",
             agentWhPerQuery(agents::AgentKind::Reflexion, use70b)},
            {"LATS agent",
             agentWhPerQuery(agents::AgentKind::Lats, use70b)},
        };
        for (const Row &row : rows) {
            const double gwh =
                energy::dailyEnergyGWh(row.wh, daily_queries);
            t.row({row.name, use70b ? "70B" : "8B",
                   core::fmtDouble(row.wh, 2),
                   core::fmtDouble(gwh, 2) + " GWh",
                   core::fmtEng(energy::datacenterPowerWatts(
                                    row.wh, daily_queries),
                                "W"),
                   core::fmtPercent(gwh /
                                    energy::seattleDailyGWh)});
        }
    }
    t.print();

    std::printf("\nAt Google-search traffic (13.7 B queries/day) the "
                "same per-query figures scale %.0fx; a 70B agent "
                "fleet would then rival a substantial share of the "
                "%.0f GW average U.S. grid load — the paper's "
                "sustainability warning.\n",
                energy::googleDailyQueries /
                    energy::chatGptDailyQueries,
                energy::usGridAverageGW);
    return 0;
}
