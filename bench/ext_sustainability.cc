/**
 * @file
 * Extension — the §VI sustainability argument carried to dollars and
 * carbon: per-query energy of each workflow converted to daily
 * electricity cost and CO2 at today's (ChatGPT) and tomorrow's
 * (Google-search) traffic.
 */

#include <cstdio>

#include "common.hh"
#include "sim/strfmt.hh"

namespace
{

using namespace benchutil;

double
agentWh(AgentKind agent, bool use70b)
{
    auto cfg = defaultProbe(agent, Benchmark::HotpotQA, true, use70b,
                            25);
    return core::runServing(cfg).meanEnergyWh();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("ext_sustainability");

    core::Table t("Extension: electricity cost and carbon of agentic "
                  "serving");
    t.header({"Workflow", "Model", "Wh/query",
              "$/day @71.4M", "tCO2/day @71.4M", "$/day @13.7B",
              "tCO2/day @13.7B"});

    struct Row
    {
        std::string name;
        double wh;
    };
    auto dollars = [](double wh, double queries) {
        return sim::strfmt(
            "$%s",
            core::fmtEng(energy::dailyCostUsd(wh, queries)).c_str());
    };
    for (bool use70b : {false, true}) {
        std::vector<Row> rows;
        rows.push_back({"Chatbot",
                        shareGptWhPerQuery(use70b, 60)});
        rows.push_back({"ReAct agent",
                        agentWh(AgentKind::ReAct, use70b)});
        rows.push_back({"LATS agent",
                        agentWh(AgentKind::Lats, use70b)});
        for (const auto &row : rows) {
            t.row({row.name, use70b ? "70B" : "8B",
                   core::fmtDouble(row.wh, 2),
                   dollars(row.wh, energy::chatGptDailyQueries),
                   core::fmtDouble(
                       energy::dailyCo2Kg(
                           row.wh, energy::chatGptDailyQueries) /
                           1000.0,
                       1),
                   dollars(row.wh, energy::googleDailyQueries),
                   core::fmtDouble(
                       energy::dailyCo2Kg(
                           row.wh, energy::googleDailyQueries) /
                           1000.0,
                       1)});
        }
    }
    t.print();

    std::printf("\nAssumptions: $%.3f/kWh industrial power, "
                "%.2f kg CO2/kWh grid intensity; GPU energy only "
                "(no cooling/PUE), so real figures are higher — the "
                "paper's conservatism argument.\n",
                energy::usdPerKwh, energy::kgCo2PerKwh);
    if (!telemetry.write())
        return 1;
    return 0;
}
