/**
 * @file
 * Agent designer: pick the most cost-effective agent configuration
 * under a latency budget.
 *
 * §V of the paper argues deployments should "maximize accuracy per
 * unit of compute" instead of chasing raw accuracy. This example
 * sweeps a design space (workflow x iteration budget x few-shot count
 * x tree width), computes each point's accuracy and cost, and reports
 * the Pareto frontier plus the best point under a user latency budget.
 *
 *   ./examples/agent_designer
 */

#include <cstdio>
#include <vector>

#include "core/serving_system.hh"
#include "core/table.hh"
#include "stats/pareto.hh"

namespace
{

using namespace agentsim;

struct Candidate
{
    std::string label;
    agents::AgentKind agent;
    agents::AgentConfig config;
    double accuracy = 0.0;
    double latency = 0.0;
    double energyWh = 0.0;
};

} // namespace

int
main()
{
    using namespace agentsim;

    const double latency_budget = 30.0; // seconds
    const auto bench = workload::Benchmark::HotpotQA;

    std::vector<Candidate> candidates;
    {
        agents::AgentConfig c;
        candidates.push_back({"CoT", agents::AgentKind::CoT, c});
    }
    for (int iters : {3, 7, 10}) {
        agents::AgentConfig c;
        c.maxIterations = iters;
        candidates.push_back({"ReAct it=" + std::to_string(iters),
                              agents::AgentKind::ReAct, c});
    }
    for (int refl : {1, 4}) {
        agents::AgentConfig c;
        c.maxReflections = refl;
        candidates.push_back({"Reflexion r=" + std::to_string(refl),
                              agents::AgentKind::Reflexion, c});
    }
    for (int kids : {2, 5, 10}) {
        agents::AgentConfig c;
        c.latsChildren = kids;
        candidates.push_back({"LATS c=" + std::to_string(kids),
                              agents::AgentKind::Lats, c});
    }
    {
        agents::AgentConfig c;
        candidates.push_back(
            {"LLMCompiler", agents::AgentKind::LlmCompiler, c});
    }

    std::vector<stats::DesignPoint> points;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        auto &cand = candidates[i];
        core::ServeConfig cfg;
        cfg.closedLoop = true;
        cfg.agent = cand.agent;
        cfg.bench = bench;
        cfg.agentConfig = cand.config;
        cfg.engineConfig = core::enginePreset8b();
        cfg.numRequests = 40;
        cfg.seed = 11;
        const auto r = core::runServing(cfg);
        cand.accuracy = r.accuracy();
        cand.latency = r.e2eSeconds.mean();
        cand.energyWh = r.meanEnergyWh();
        points.push_back({cand.latency, cand.accuracy, i});
    }

    const auto frontier = stats::paretoFrontier(points);
    std::vector<bool> on_frontier(candidates.size(), false);
    for (const auto &p : frontier)
        on_frontier[p.tag] = true;

    core::Table t("Design space on HotpotQA (40 tasks each)");
    t.header({"Design", "Accuracy", "Latency", "Energy (Wh)",
              "Acc/latency", "Pareto", "Fits budget"});
    const Candidate *best = nullptr;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const auto &cand = candidates[i];
        const bool fits = cand.latency <= latency_budget;
        if (fits && (best == nullptr ||
                     cand.accuracy > best->accuracy)) {
            best = &cand;
        }
        t.row({cand.label, core::fmtPercent(cand.accuracy),
               core::fmtSeconds(cand.latency),
               core::fmtDouble(cand.energyWh, 2),
               core::fmtDouble(cand.accuracy / cand.latency, 4),
               on_frontier[i] ? "*" : "", fits ? "yes" : "no"});
    }
    t.print();

    if (best != nullptr) {
        std::printf("\nRecommended under a %.0f s latency budget: %s "
                    "(%.0f%% accuracy at %.1f s, %.2f Wh/query).\n",
                    latency_budget, best->label.c_str(),
                    100.0 * best->accuracy, best->latency,
                    best->energyWh);
    }
    return 0;
}
