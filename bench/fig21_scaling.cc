/**
 * @file
 * Fig 21 — accuracy-latency trade-offs under sequential vs parallel
 * test-time scaling on HotpotQA:
 *  (a) Reflexion, scaling the maximum reflection steps (sequential);
 *  (b) LATS, scaling search rounds at fixed width (sequential);
 *  (c) LATS, scaling children per expansion (parallel).
 */

#include <cstdio>
#include <vector>

#include "common.hh"

namespace
{

using namespace benchutil;

struct Point
{
    std::string level;
    double acc = 0.0;
    double lat = 0.0;
};

void
printSeries(const std::string &title, const std::string &level_name,
            const std::vector<Point> &points)
{
    core::Table t(title);
    t.header({level_name, "Accuracy", "Avg latency",
              "Marginal s per +1% acc"});
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::string marginal = "-";
        if (i > 0) {
            const double dacc =
                (points[i].acc - points[i - 1].acc) * 100.0;
            const double dlat = points[i].lat - points[i - 1].lat;
            if (dacc > 0.01)
                marginal = core::fmtDouble(dlat / dacc, 1);
        }
        t.row({points[i].level, core::fmtPercent(points[i].acc),
               core::fmtSeconds(points[i].lat), marginal});
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
    telemetry.report().setGenerator("fig21_scaling");
    const Benchmark bench = Benchmark::HotpotQA;

    // (a) Reflexion: sequential scaling via reflection budget.
    {
        std::vector<Point> pts;
        for (int refl : {0, 1, 2, 4, 8}) {
            auto cfg = defaultProbe(AgentKind::Reflexion, bench);
            cfg.agentConfig.maxReflections = refl;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            pts.push_back({"refl=" + std::to_string(refl),
                           r.accuracy(), r.e2eSeconds.mean()});
        }
        printSeries("Fig 21(a): Reflexion sequential scaling "
                    "(max reflection steps)",
                    "Reflections", pts);
    }

    // (b) LATS: sequential scaling via search rounds.
    {
        std::vector<Point> pts;
        for (int rounds : {2, 3, 5, 7, 10}) {
            auto cfg = defaultProbe(AgentKind::Lats, bench);
            cfg.agentConfig.maxIterations = rounds;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            pts.push_back({"rounds=" + std::to_string(rounds),
                           r.accuracy(), r.e2eSeconds.mean()});
        }
        printSeries("Fig 21(b): LATS sequential scaling "
                    "(search rounds, width 5)",
                    "Rounds", pts);
    }

    // (c) LATS: parallel scaling via children per expansion.
    {
        std::vector<Point> pts;
        for (int kids : {1, 2, 4, 8, 16}) {
            auto cfg = defaultProbe(AgentKind::Lats, bench);
            cfg.agentConfig.latsChildren = kids;
            telemetry.apply(cfg);
            const auto r = core::runServing(cfg);
            pts.push_back({"children=" + std::to_string(kids),
                           r.accuracy(), r.e2eSeconds.mean()});
        }
        printSeries("Fig 21(c): LATS parallel scaling "
                    "(children per expansion)",
                    "Children", pts);
        std::printf("Paper reference: sequential scaling buys accuracy "
                    "at steeply diminishing returns (31x the latency "
                    "for the same marginal gain late in the curve); "
                    "parallel scaling raises accuracy while REDUCING "
                    "latency (+14.4pp, -196 s from 1 to 16 children) "
                    "at the cost of concurrent LLM load.\n");
    }
    if (!telemetry.write())
        return 1;
    return 0;
}
