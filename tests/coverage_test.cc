/**
 * @file
 * Breadth coverage: parameterized sweeps over the tool catalog and
 * benchmark profiles, energy cost/carbon math, kernel awaitable edge
 * cases, and engine limit enforcement.
 */

#include <gtest/gtest.h>

#include <functional>

#include "core/probe.hh"
#include "energy/projection.hh"
#include "sim/strfmt.hh"
#include "tools/catalog.hh"
#include "workload/token_stream.hh"
#include "workload/toolset_factory.hh"

namespace
{

using namespace agentsim;

// ---------------------------------------------------------------
// Tool catalog sweep: every CPU tool's sampled latency converges to
// its spec mean and observations respect their bounds.
// ---------------------------------------------------------------

struct ToolCase
{
    const char *name;
    std::function<std::unique_ptr<tools::Tool>(sim::Simulation &)>
        make;
};

class ToolCatalog : public ::testing::TestWithParam<ToolCase>
{
};

sim::Task<tools::ToolResult>
invokeOnce(tools::Tool &tool, sim::Rng &rng)
{
    co_return co_await tool.invoke(rng);
}

TEST_P(ToolCatalog, LatencyMatchesSpecMean)
{
    sim::Simulation sim;
    auto tool = GetParam().make(sim);
    auto *stochastic =
        dynamic_cast<tools::StochasticTool *>(tool.get());
    ASSERT_NE(stochastic, nullptr);

    sim::Rng rng(5, "catalog", 0);
    double total = 0.0;
    const int n = 3000;
    for (int i = 0; i < n; ++i) {
        auto t = invokeOnce(*tool, rng);
        sim.run();
        const auto r = t.result();
        total += r.latencySeconds;
        EXPECT_GE(r.observationTokens,
                  stochastic->observation().minTokens);
        EXPECT_LE(r.observationTokens,
                  stochastic->observation().maxTokens);
    }
    const double mean = total / n;
    EXPECT_NEAR(mean, stochastic->latency().mean(),
                0.12 * stochastic->latency().mean() + 1e-4);
    EXPECT_EQ(tool->invocations(), n);
    EXPECT_EQ(tool->name(), GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    AllCpuTools, ToolCatalog,
    ::testing::Values(
        ToolCase{"wikipedia.search",
                 [](sim::Simulation &s) {
                     return tools::makeWikipediaSearch(s);
                 }},
        ToolCase{"wikipedia.lookup",
                 [](sim::Simulation &s) {
                     return tools::makeWikipediaLookup(s);
                 }},
        ToolCase{"webshop.search",
                 [](sim::Simulation &s) {
                     return tools::makeWebshopSearch(s);
                 }},
        ToolCase{"webshop.click",
                 [](sim::Simulation &s) {
                     return tools::makeWebshopClick(s);
                 }},
        ToolCase{"wolfram.alpha",
                 [](sim::Simulation &s) {
                     return tools::makeWolframAlpha(s);
                 }},
        ToolCase{"python.calc",
                 [](sim::Simulation &s) {
                     return tools::makePythonCalculator(s);
                 }}),
    [](const auto &info) {
        std::string name = info.param.name;
        for (char &c : name) {
            if (c == '.')
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------
// Benchmark profile sweep.
// ---------------------------------------------------------------

class Profiles
    : public ::testing::TestWithParam<workload::Benchmark>
{
};

TEST_P(Profiles, FieldsAreSane)
{
    const auto &p = workload::profile(GetParam());
    EXPECT_EQ(p.id, GetParam());
    EXPECT_FALSE(p.name.empty());
    EXPECT_FALSE(p.taskDescription.empty());
    EXPECT_FALSE(p.toolDescription.empty());
    EXPECT_GT(p.instructionTokens, 0);
    EXPECT_GT(p.fewShotTokensPerExample, 0);
    EXPECT_GT(p.defaultFewShot, 0);
    EXPECT_GE(p.minHops, 1);
    EXPECT_GE(p.maxHops, p.minHops);
    EXPECT_GT(p.difficultyHi, p.difficultyLo);
    EXPECT_GT(p.noToolFactor, 0.0);
    EXPECT_LE(p.noToolFactor, 1.0);
    EXPECT_GT(p.dagFactor, 0.0);
    EXPECT_LE(p.dagFactor, 1.0);
    EXPECT_GE(p.dagDepProb, 0.0);
    EXPECT_LE(p.dagDepProb, 1.0);
}

TEST_P(Profiles, OutputSamplerRespectsFloor)
{
    const auto &p = workload::profile(GetParam());
    sim::Rng rng(9, "outputs", 0);
    for (int i = 0; i < 2000; ++i) {
        EXPECT_GE(p.sampleOutputTokens(rng, p.stepOutputMean), 8);
        EXPECT_GE(p.sampleUserTokens(rng), p.userTokenMin);
        EXPECT_LE(p.sampleUserTokens(rng), p.userTokenMax);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Agentic, Profiles,
    ::testing::ValuesIn(std::vector<workload::Benchmark>(
        workload::agenticBenchmarks.begin(),
        workload::agenticBenchmarks.end())),
    [](const auto &info) {
        return std::string(workload::benchmarkName(info.param));
    });

// ---------------------------------------------------------------
// Energy cost/carbon arithmetic.
// ---------------------------------------------------------------

TEST(EnergyEconomics, CostAndCarbonMath)
{
    // 1 Wh/query at 1M queries/day = 1 MWh/day.
    EXPECT_NEAR(energy::dailyCostUsd(1.0, 1e6),
                1000.0 * energy::usdPerKwh, 1e-9);
    EXPECT_NEAR(energy::dailyCo2Kg(1.0, 1e6),
                1000.0 * energy::kgCo2PerKwh, 1e-9);
    // Scale linearity.
    EXPECT_DOUBLE_EQ(energy::dailyCostUsd(2.0, 1e6),
                     2.0 * energy::dailyCostUsd(1.0, 1e6));
}

// ---------------------------------------------------------------
// strfmt edge cases.
// ---------------------------------------------------------------

TEST(Strfmt, Basics)
{
    EXPECT_EQ(sim::strfmt(nullptr), "");
    EXPECT_EQ(sim::strfmt("plain"), "plain");
    EXPECT_EQ(sim::strfmt("%d-%s", 7, "x"), "7-x");
    // Long outputs are not truncated.
    const std::string big = sim::strfmt("%0512d", 1);
    EXPECT_EQ(big.size(), 512u);
}

// ---------------------------------------------------------------
// Kernel awaitable edge cases.
// ---------------------------------------------------------------

TEST(Awaitables, AllOfEmptyVector)
{
    sim::Simulation sim;
    auto t = sim::allOf(std::vector<sim::Task<int>>{});
    sim.run();
    EXPECT_TRUE(t.done());
    EXPECT_TRUE(t.result().empty());
}

sim::Task<void>
zeroDelay(sim::Simulation &sim, int *order, int id, int *next)
{
    co_await sim::delay(sim, 0);
    order[(*next)++] = id;
}

TEST(Awaitables, ZeroDelaysPreserveFifoOrder)
{
    sim::Simulation sim;
    int order[4] = {-1, -1, -1, -1};
    int next = 0;
    std::vector<sim::Task<void>> tasks;
    for (int i = 0; i < 4; ++i)
        tasks.push_back(zeroDelay(sim, order, i, &next));
    sim.run();
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(sim.now(), 0);
}

// ---------------------------------------------------------------
// Engine limit enforcement.
// ---------------------------------------------------------------

sim::Task<serving::GenResult>
submitOne(serving::LlmEngine &engine, std::uint64_t stream,
          std::int64_t len, std::int64_t out)
{
    serving::GenRequest req;
    req.prompt = kv::TokenChain(engine.config().blockSize,
                                workload::makeTokens(stream, len));
    req.maxNewTokens = out;
    co_return co_await engine.generate(std::move(req));
}

TEST(EngineLimits, MaxRunningSeqsBoundsTheBatch)
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    cfg.maxRunningSeqs = 4;
    sim::Simulation sim;
    serving::LlmEngine engine(sim, cfg);
    std::vector<sim::Task<serving::GenResult>> tasks;
    for (int i = 0; i < 16; ++i)
        tasks.push_back(
            submitOne(engine, 50 + static_cast<std::uint64_t>(i),
                      200, 40));
    sim.run();
    for (auto &t : tasks)
        EXPECT_EQ(t.result().tokens.size(), 40u);
    EXPECT_LE(engine.batchGauge().max(), 4.0);
}

TEST(EngineLimits, QueueDrainsToZero)
{
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    cfg.maxRunningSeqs = 2;
    sim::Simulation sim;
    serving::LlmEngine engine(sim, cfg);
    std::vector<sim::Task<serving::GenResult>> tasks;
    for (int i = 0; i < 6; ++i)
        tasks.push_back(
            submitOne(engine, 80 + static_cast<std::uint64_t>(i),
                      150, 10));
    sim.run();
    for (auto &t : tasks)
        (void)t.result();
    EXPECT_EQ(engine.queueDepth(), 0u);
    EXPECT_EQ(engine.runningCount(), 0u);
}

// ---------------------------------------------------------------
// Perf-model scaling properties.
// ---------------------------------------------------------------

TEST(PerfScaling, TensorParallelismSpeedsDecode)
{
    // The same model on more GPUs decodes faster (sub-linearly).
    auto node1 = llm::singleA100();
    auto node8 = llm::octoA100();
    // Use the 8B model (fits both) for an apples-to-apples check.
    llm::PerfModel m1(llm::llama31_8b(), node1);
    llm::PerfModel m8(llm::llama31_8b(), node8);
    const double t1 = m1.decodeSecondsSingle(1000);
    const double t8 = m8.decodeSecondsSingle(1000);
    EXPECT_LT(t8, t1);
    EXPECT_GT(t8, t1 / 8.0); // TP inefficiency
}

TEST(PerfScaling, AttentionCostGrowsWithContext)
{
    llm::PerfModel m(llm::llama31_8b(), llm::singleA100());
    const double short_ctx = m.decodeSecondsSingle(100);
    const double long_ctx = m.decodeSecondsSingle(60000);
    EXPECT_GT(long_ctx, 1.2 * short_ctx);
}

} // namespace
