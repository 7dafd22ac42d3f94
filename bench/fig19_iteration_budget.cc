/**
 * @file
 * Fig 19 — latency and accuracy vs the maximum iteration budget in
 * ReAct: accuracy and average latency saturate while p95 keeps
 * climbing; markers flag the max-accuracy and peak cost-efficiency
 * budgets.
 */

#include <cstdio>
#include <vector>

#include "common.hh"

int
main(int argc, char **argv)
{
    using namespace benchutil;
    TelemetryCli telemetry(argc, argv);
    telemetry.report().setGenerator("fig19_iteration_budget");

    for (Benchmark bench : {Benchmark::HotpotQA, Benchmark::WebShop}) {
        core::Table t("Fig 19: Iteration-budget sweep — ReAct on " +
                      std::string(workload::benchmarkName(bench)));
        t.header({"Max iters", "Accuracy", "Avg latency",
                  "p95 latency", "Acc/latency (1/s)", "Marker"});

        struct Row
        {
            int iters;
            double acc, avg, p95, eff;
        };
        std::vector<Row> rows;
        for (int iters : {1, 2, 3, 4, 5, 6, 7, 8, 10, 12}) {
            auto cfg = defaultProbe(AgentKind::ReAct, bench);
            cfg.agentConfig.maxIterations = iters;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            const auto e2e = r.e2eSeconds;
            rows.push_back({iters, r.accuracy(), e2e.mean(),
                            e2e.percentile(95),
                            r.accuracy() / e2e.mean()});
        }
        std::size_t best_acc = 0;
        std::size_t best_eff = 0;
        for (std::size_t i = 1; i < rows.size(); ++i) {
            if (rows[i].acc > rows[best_acc].acc)
                best_acc = i;
            if (rows[i].eff > rows[best_eff].eff)
                best_eff = i;
        }
        for (std::size_t i = 0; i < rows.size(); ++i) {
            std::string marker;
            if (i == best_acc)
                marker += "max-accuracy ";
            if (i == best_eff)
                marker += "peak-efficiency";
            t.row({core::fmtCount(rows[i].iters),
                   core::fmtPercent(rows[i].acc),
                   core::fmtSeconds(rows[i].avg),
                   core::fmtSeconds(rows[i].p95),
                   core::fmtDouble(rows[i].eff, 4), marker});
        }
        t.print();
        std::printf("p95 grows %.1fx from budget 1 to 12 while "
                    "accuracy grows %.1fx — outliers burn the budget "
                    "without matching gains.\n\n",
                    rows.back().p95 / rows.front().p95,
                    rows.back().acc /
                        std::max(0.01, rows.front().acc));
    }
    if (!telemetry.write())
        return 1;
    return 0;
}
