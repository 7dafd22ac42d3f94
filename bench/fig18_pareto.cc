/**
 * @file
 * Fig 18 — accuracy and cost-efficiency across the AI-agent design
 * space: (a) accuracy vs end-to-end latency, (b) accuracy per unit
 * latency, (c) accuracy per TFLOP, with the Pareto frontier marked.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "stats/pareto.hh"

namespace
{

using namespace benchutil;

struct Variant
{
    AgentKind agent;
    std::string label;
    AgentConfig config;
};

std::vector<Variant>
designSpace()
{
    std::vector<Variant> v;
    for (int fs : {0, 2, 6})
        v.push_back({AgentKind::CoT, "CoT fs=" + std::to_string(fs),
                     [&] {
                         AgentConfig c;
                         c.fewShotExamples = fs;
                         return c;
                     }()});
    for (int iters : {3, 5, 7, 10}) {
        AgentConfig c;
        c.maxIterations = iters;
        v.push_back({AgentKind::ReAct,
                     "ReAct it=" + std::to_string(iters), c});
    }
    for (int refl : {1, 2, 4}) {
        AgentConfig c;
        c.maxReflections = refl;
        v.push_back({AgentKind::Reflexion,
                     "Reflexion r=" + std::to_string(refl), c});
    }
    for (int kids : {2, 5}) {
        for (int rounds : {3, 7}) {
            AgentConfig c;
            c.latsChildren = kids;
            c.maxIterations = rounds;
            v.push_back({AgentKind::Lats,
                         "LATS c=" + std::to_string(kids) +
                             ",d=" + std::to_string(rounds),
                         c});
        }
    }
    for (int rounds : {1, 2, 3}) {
        AgentConfig c;
        c.compilerMaxRounds = rounds;
        v.push_back({AgentKind::LlmCompiler,
                     "LLMCompiler r=" + std::to_string(rounds), c});
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig18_pareto");

    for (Benchmark bench : workload::agenticBenchmarks) {
        core::Table t("Fig 18: Accuracy vs cost design space — " +
                      std::string(workload::benchmarkName(bench)));
        t.header({"Design point", "Accuracy", "Latency",
                  "Acc/latency (1/s)", "Acc/PFLOP", "Pareto"});

        std::vector<stats::DesignPoint> points;
        struct RowData
        {
            std::string label;
            double acc, lat, flops;
        };
        std::vector<RowData> rows;
        for (const auto &variant : designSpace()) {
            if (!agents::agentSupports(variant.agent, bench))
                continue;
            auto cfg = defaultProbe(variant.agent, bench, true, false,
                                    30);
            cfg.agentConfig = variant.config;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            const double lat = r.e2eSeconds.mean();
            rows.push_back(
                {variant.label, r.accuracy(), lat, r.meanFlops()});
            points.push_back(
                {lat, r.accuracy(), rows.size() - 1});
        }
        const auto frontier = stats::paretoFrontier(points);
        std::vector<bool> on_frontier(rows.size(), false);
        for (const auto &p : frontier)
            on_frontier[p.tag] = true;

        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto &r = rows[i];
            t.row({r.label, core::fmtPercent(r.acc),
                   core::fmtSeconds(r.lat),
                   core::fmtDouble(r.acc / r.lat, 4),
                   core::fmtDouble(r.acc / (r.flops / 1e15), 2),
                   on_frontier[i] ? "*" : ""});
        }
        t.print();
        std::printf("\n");
    }

    std::printf("Paper reference: accuracy rises with compute but with "
                "diminishing returns; ReAct is cost-efficient, LATS "
                "accurate but expensive, LLMCompiler beats ReAct on "
                "HotpotQA yet loses efficiency on WebShop.\n");
    if (!telemetry.write())
        return 1;
    return 0;
}
