#include "tools/catalog.hh"

#include "sim/logging.hh"

namespace agentsim::tools
{

namespace
{

using Dist = LatencySpec::Dist;

std::unique_ptr<Tool>
stochastic(sim::Simulation &sim, const char *name, LatencySpec lat,
           ObservationSpec obs, int max_concurrency = 0)
{
    return std::make_unique<StochasticTool>(sim, name, lat, obs,
                                            max_concurrency);
}

} // namespace

std::unique_ptr<Tool>
makeWikipediaSearch(sim::Simulation &sim)
{
    // Paper: Wikipedia API calls average ~1.2 s, heavy tailed; search
    // returns page snippets of a few hundred tokens.
    return stochastic(sim, "wikipedia.search",
                      {Dist::Lognormal, 1.2, 0.55},
                      {250.0, 90.0, 40, 800});
}

std::unique_ptr<Tool>
makeWikipediaLookup(sim::Simulation &sim)
{
    // Keyword lookup within a fetched page: slightly faster, shorter
    // observations.
    return stochastic(sim, "wikipedia.lookup",
                      {Dist::Lognormal, 0.9, 0.50},
                      {140.0, 50.0, 20, 500});
}

std::unique_ptr<Tool>
makeWebshopSearch(sim::Simulation &sim)
{
    // Locally hosted site: ~20 ms; result pages are long (item lists
    // rendered as text fill most of the observation budget).
    return stochastic(sim, "webshop.search",
                      {Dist::Uniform, 0.015, 0.030},
                      {520.0, 160.0, 100, 1400});
}

std::unique_ptr<Tool>
makeWebshopClick(sim::Simulation &sim)
{
    return stochastic(sim, "webshop.click",
                      {Dist::Uniform, 0.012, 0.025},
                      {400.0, 120.0, 60, 1100});
}

std::unique_ptr<Tool>
makeWolframAlpha(sim::Simulation &sim)
{
    // Remote API: a few hundred ms; terse symbolic answers.
    return stochastic(sim, "wolfram.alpha",
                      {Dist::Lognormal, 0.35, 0.40},
                      {60.0, 25.0, 10, 200});
}

std::unique_ptr<Tool>
makePythonCalculator(sim::Simulation &sim)
{
    // Local interpreter startup + evaluation.
    return stochastic(sim, "python.calc",
                      {Dist::Lognormal, 0.15, 0.35},
                      {45.0, 20.0, 5, 150});
}

SelfTestTool::SelfTestTool(sim::Simulation &sim,
                           serving::LlmEngine &engine,
                           std::uint64_t seed)
    : Tool(sim, "humaneval.selftest"), engine_(engine), seed_(seed)
{
}

sim::Task<ToolResult>
SelfTestTool::execute(sim::Rng &rng)
{
    // 1. Generate test code with the LLM (GPU-busy "tool" phase, the
    //    HumanEval peculiarity called out in Fig 6).
    const std::uint64_t call = calls_++;
    serving::GenRequest req;
    const std::int64_t prompt_len = 180 + rng.uniformInt(0, 60);
    req.prompt = kv::TokenChain(engine_.config().blockSize);
    const std::uint64_t stream =
        sim::hashCombine(sim::hashCombine(seed_, 0x5e1f7e57ULL), call);
    req.prompt.appendStream(stream, 0, prompt_len);
    req.maxNewTokens = 80 + rng.uniformInt(0, 60);
    const serving::GenResult gen =
        co_await engine_.generate(std::move(req));

    // 2. Run candidate + generated tests in the sandbox (CPU).
    co_await sim::delaySec(sim_, rng.lognormalMean(0.25, 0.35));

    ToolResult result;
    result.usedGpu = true;
    result.observationTokens =
        std::max<std::int64_t>(20, 60 + rng.uniformInt(0, 80));
    (void)gen;
    co_return result;
}

std::unique_ptr<Tool>
makeSelfTest(sim::Simulation &sim, serving::LlmEngine &engine,
             std::uint64_t seed)
{
    return std::make_unique<SelfTestTool>(sim, engine, seed);
}

void
ToolSet::add(std::unique_ptr<Tool> tool)
{
    AGENTSIM_ASSERT(tool != nullptr, "null tool");
    tools_.push_back(std::move(tool));
}

Tool &
ToolSet::pick(sim::Rng &rng)
{
    AGENTSIM_ASSERT(!tools_.empty(), "picking from an empty tool set");
    const auto idx = static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(tools_.size()) - 1));
    return *tools_[idx];
}

Tool &
ToolSet::at(std::size_t i)
{
    AGENTSIM_ASSERT(i < tools_.size(), "tool index out of range");
    return *tools_[i];
}

const Tool &
ToolSet::at(std::size_t i) const
{
    AGENTSIM_ASSERT(i < tools_.size(), "tool index out of range");
    return *tools_[i];
}

std::int64_t
ToolSet::totalInvocations() const
{
    std::int64_t total = 0;
    for (const auto &t : tools_)
        total += t->invocations();
    return total;
}

double
ToolSet::meanLatencySeconds() const
{
    if (tools_.empty())
        return 0.0;
    double total = 0.0;
    for (const auto &t : tools_)
        total += t->expectedLatencySeconds();
    return total / static_cast<double>(tools_.size());
}

} // namespace agentsim::tools
