/**
 * @file
 * Command-line experiment explorer: run any (agent, benchmark,
 * config) combination and print the measurement record — the ad-hoc
 * driver for poking at the design space beyond the canned benches.
 *
 *   ./examples/explore [agent] [benchmark] [tasks] [key=value...]
 *
 *   agent:      cot | react | reflexion | lats | llmcompiler |
 *               selfconsistency | actorcritic | tot | bestofn
 *               (default react)
 *   benchmark:  hotpotqa | webshop | math | humaneval
 *               (default hotpotqa)
 *   tasks:      number of tasks (default 20)
 *
 *   keys: iters=N refl=N children=N fewshot=N sc=N model=8b|70b
 *         caching=0|1 speculative=0|1 seed=N
 *
 * Examples:
 *   ./examples/explore lats hotpotqa 50 children=16 model=70b
 *   ./examples/explore react webshop 30 iters=10 caching=0
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/serving_system.hh"
#include "core/table.hh"

namespace
{

using namespace agentsim;

agents::AgentKind
parseAgent(const std::string &s)
{
    if (s == "cot")
        return agents::AgentKind::CoT;
    if (s == "react")
        return agents::AgentKind::ReAct;
    if (s == "reflexion")
        return agents::AgentKind::Reflexion;
    if (s == "lats")
        return agents::AgentKind::Lats;
    if (s == "llmcompiler")
        return agents::AgentKind::LlmCompiler;
    if (s == "selfconsistency")
        return agents::AgentKind::SelfConsistency;
    if (s == "actorcritic")
        return agents::AgentKind::ActorCritic;
    if (s == "tot")
        return agents::AgentKind::TreeOfThoughts;
    if (s == "bestofn")
        return agents::AgentKind::BestOfN;
    std::fprintf(stderr, "unknown agent '%s'\n", s.c_str());
    std::exit(2);
}

workload::Benchmark
parseBenchmark(const std::string &s)
{
    if (s == "hotpotqa")
        return workload::Benchmark::HotpotQA;
    if (s == "webshop")
        return workload::Benchmark::WebShop;
    if (s == "math")
        return workload::Benchmark::Math;
    if (s == "humaneval")
        return workload::Benchmark::HumanEval;
    std::fprintf(stderr, "unknown benchmark '%s'\n", s.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace agentsim;

    core::ServeConfig cfg;
    cfg.closedLoop = true;
    cfg.agent = agents::AgentKind::ReAct;
    cfg.bench = workload::Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.numRequests = 20;
    cfg.seed = 1;

    if (argc > 1)
        cfg.agent = parseAgent(argv[1]);
    if (argc > 2)
        cfg.bench = parseBenchmark(argv[2]);
    if (argc > 3)
        cfg.numRequests = std::atoi(argv[3]);

    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos) {
            std::fprintf(stderr, "expected key=value, got '%s'\n",
                         arg.c_str());
            return 2;
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        if (key == "iters")
            cfg.agentConfig.maxIterations = std::atoi(value.c_str());
        else if (key == "refl")
            cfg.agentConfig.maxReflections = std::atoi(value.c_str());
        else if (key == "children")
            cfg.agentConfig.latsChildren = std::atoi(value.c_str());
        else if (key == "fewshot")
            cfg.agentConfig.fewShotExamples = std::atoi(value.c_str());
        else if (key == "sc")
            cfg.agentConfig.scSamples = std::atoi(value.c_str());
        else if (key == "speculative")
            cfg.agentConfig.speculativeTools = value == "1";
        else if (key == "caching")
            cfg.engineConfig.enablePrefixCaching = value == "1";
        else if (key == "model" && value == "70b")
            cfg.engineConfig = core::enginePreset70b();
        else if (key == "model" && value == "8b")
            ; // default
        else if (key == "seed")
            cfg.seed = static_cast<std::uint64_t>(
                std::atoll(value.c_str()));
        else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         key.c_str());
            return 2;
        }
    }

    if (!agents::agentSupports(cfg.agent, cfg.bench)) {
        std::fprintf(stderr, "%s is not applicable to %s\n",
                     std::string(agents::agentName(cfg.agent)).c_str(),
                     std::string(workload::benchmarkName(cfg.bench))
                         .c_str());
        return 2;
    }

    const auto r = core::runServing(cfg);
    const auto e2e = r.e2eSeconds;

    core::Table t(std::string(agents::agentName(cfg.agent)) + " on " +
                  std::string(workload::benchmarkName(cfg.bench)) +
                  " (" + cfg.engineConfig.model.name + ")");
    t.header({"Metric", "Value"});
    t.row({"tasks", core::fmtCount(cfg.numRequests)});
    t.row({"accuracy", core::fmtPercent(r.accuracy())});
    t.row({"latency mean", core::fmtSeconds(e2e.mean())});
    t.row({"latency p95", core::fmtSeconds(e2e.percentile(95))});
    t.row({"LLM calls / request", core::fmtDouble(r.meanLlmCalls(), 1)});
    t.row({"tool calls / request",
           core::fmtDouble(r.meanToolCalls(), 1)});
    t.row({"energy / request", core::fmtDouble(r.meanEnergyWh(), 3) +
                                   " Wh"});
    t.row({"GPU idle share",
           core::fmtPercent(r.meanGpuIdleFraction())});
    t.row({"PFLOPs / request",
           core::fmtDouble(r.meanFlops() / 1e15, 2)});
    t.print();
    return 0;
}
