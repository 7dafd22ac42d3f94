/**
 * @file
 * Integration tests of the experiment harness: closed-loop probes,
 * the serving system, table rendering, and the energy projections.
 */

#include <gtest/gtest.h>

#include "core/probe.hh"
#include "core/serving_system.hh"
#include "core/table.hh"
#include "energy/projection.hh"
#include "sim/strfmt.hh"

namespace
{

using namespace agentsim;
using agents::AgentKind;
using core::ServeConfig;
using workload::Benchmark;

ServeConfig
probeCfg(AgentKind agent, Benchmark bench, int tasks = 6)
{
    ServeConfig cfg;
    cfg.closedLoop = true;
    cfg.agent = agent;
    cfg.bench = bench;
    cfg.engineConfig = core::enginePreset8b();
    cfg.numRequests = tasks;
    return cfg;
}

TEST(Probe, ReactProducesFullMeasurements)
{
    const auto r = core::runServing(probeCfg(AgentKind::ReAct,
                                             Benchmark::HotpotQA));
    ASSERT_EQ(r.requests.size(), 6u);
    for (const auto &req : r.requests) {
        EXPECT_GT(req.result.e2eSeconds, 0.0);
        EXPECT_GT(req.energyWh, 0.0);
        EXPECT_GT(req.gpuBusySeconds, 0.0);
        EXPECT_LE(req.gpuBusySeconds, req.result.e2eSeconds + 1e-9);
        EXPECT_GT(req.kvAvgBytes, 0.0);
        EXPECT_GE(req.kvMaxBytes, req.kvAvgBytes);
        EXPECT_GT(req.flops, 0.0);
    }
    EXPECT_GT(r.meanLlmCalls(), 1.0);
    EXPECT_GT(r.meanGpuIdleFraction(), 0.0);
    EXPECT_LT(r.meanGpuIdleFraction(), 1.0);
}

TEST(Probe, CotHasNoIdleFromTools)
{
    const auto cot =
        core::runServing(probeCfg(AgentKind::CoT, Benchmark::HotpotQA));
    const auto react = core::runServing(
        probeCfg(AgentKind::ReAct, Benchmark::HotpotQA));
    // Tool waits idle the GPU: ReAct idles more than CoT (Fig 6).
    EXPECT_LT(cot.meanGpuIdleFraction(),
              react.meanGpuIdleFraction());
}

TEST(Probe, DeterministicAcrossRuns)
{
    const auto a = core::runServing(probeCfg(AgentKind::Reflexion,
                                             Benchmark::Math, 4));
    const auto b = core::runServing(probeCfg(AgentKind::Reflexion,
                                             Benchmark::Math, 4));
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.requests[i].result.e2eSeconds,
                         b.requests[i].result.e2eSeconds);
        EXPECT_DOUBLE_EQ(a.requests[i].energyWh,
                         b.requests[i].energyWh);
    }
    EXPECT_DOUBLE_EQ(a.accuracy(), b.accuracy());
}

/** Every per-request number of a run, and its KV counters. */
std::string
runDigest(const core::ServeResult &r)
{
    std::string d = sim::strfmt(
        "done=%d solved=%d lookup=%lld hit=%lld e=%.17g", r.completed,
        r.solved, static_cast<long long>(r.cacheStats.lookupTokens),
        static_cast<long long>(r.cacheStats.hitTokens), r.energyWh);
    for (const auto &req : r.requests) {
        d += sim::strfmt(" [%.17g %.17g %.17g]", req.result.e2eSeconds,
                         req.energyWh, req.flops);
    }
    return d;
}

TEST(PromptHeads, CacheNeverCrossesRuns)
{
    // Each run owns its prompt-head cache: a run under another seed
    // in between leaves the repeat of the first run unchanged.
    auto cfg = [](std::uint64_t seed) {
        ServeConfig c = probeCfg(AgentKind::Reflexion, Benchmark::HotpotQA,
                                 4);
        c.seed = seed;
        return c;
    };
    const std::string first = runDigest(core::runServing(cfg(1)));
    const std::string other = runDigest(core::runServing(cfg(2)));
    EXPECT_NE(first, other);
    EXPECT_EQ(runDigest(core::runServing(cfg(1))), first);
}

TEST(Probe, UnsupportedPairIsFatal)
{
    EXPECT_DEATH(
        {
            core::runServing(
                probeCfg(AgentKind::CoT, Benchmark::WebShop, 1));
        },
        "does not evaluate");
}

TEST(Probe, SeventyBUsesMoreEnergyPerRequest)
{
    auto small = probeCfg(AgentKind::CoT, Benchmark::HotpotQA, 4);
    auto big = small;
    big.engineConfig = core::enginePreset70b();
    const auto r8 = core::runServing(small);
    const auto r70 = core::runServing(big);
    EXPECT_GT(r70.meanEnergyWh(), 3.0 * r8.meanEnergyWh());
}

TEST(Serving, ChatbotOpenLoopCompletes)
{
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 2.0;
    cfg.numRequests = 40;
    const auto r = core::runServing(cfg);
    EXPECT_EQ(r.completed, 40);
    EXPECT_GT(r.makespanSeconds, 0.0);
    EXPECT_GT(r.p95(), r.p50() * 0.99);
    EXPECT_GT(r.throughputQps(), 0.5);
}

TEST(Serving, AgentClosedLoopSequential)
{
    ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::WebShop;
    cfg.engineConfig = core::enginePreset8b();
    cfg.closedLoop = true;
    cfg.numRequests = 5;
    const auto r = core::runServing(cfg);
    EXPECT_EQ(r.completed, 5);
    // Sequential: makespan is the sum of latencies.
    EXPECT_NEAR(r.makespanSeconds, r.e2eSeconds.sum(), 1e-6);
}

/** Closed-loop windows tile the run: the per-request sums close. */
void
expectWindowsTileRun(const core::ServeResult &r, int requests)
{
    ASSERT_EQ(r.requests.size(), static_cast<std::size_t>(requests));
    double wh = 0.0;
    double busy = 0.0;
    double e2e = 0.0;
    for (const auto &req : r.requests) {
        wh += req.energyWh;
        busy += req.gpuBusySeconds;
        e2e += req.e2eSeconds;
    }
    EXPECT_NEAR(wh, r.energyWh, 1e-9 * r.energyWh);
    EXPECT_NEAR(busy, r.engineStats.busySeconds,
                1e-9 * r.engineStats.busySeconds);
    EXPECT_NEAR(e2e, r.e2eSeconds.sum(), 1e-9 * e2e);
}

TEST(Serving, ClosedLoopAgentWindowsTileTheRun)
{
    const auto r = core::runServing(
        probeCfg(AgentKind::ReAct, Benchmark::HotpotQA, 5));
    expectWindowsTileRun(r, 5);
    for (const auto &req : r.requests) {
        EXPECT_GT(req.result.llmCalls, 0);
        EXPECT_DOUBLE_EQ(req.e2eSeconds, req.result.e2eSeconds);
    }
}

TEST(Serving, ClosedLoopChatWindowsTileTheRun)
{
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.closedLoop = true;
    cfg.numRequests = 12;
    const auto r = core::runServing(cfg);
    expectWindowsTileRun(r, 12);
    for (const auto &req : r.requests) {
        EXPECT_GT(req.gpuBusySeconds, 0.0);
        EXPECT_GT(req.flops, 0.0);
        EXPECT_EQ(req.result.llmCalls, 0);
    }
}

TEST(Serving, OpenLoopKeepsNoRequestRecords)
{
    ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 2.0;
    cfg.numRequests = 6;
    const auto r = core::runServing(cfg);
    EXPECT_EQ(r.completed, 6);
    EXPECT_TRUE(r.requests.empty());
    EXPECT_DOUBLE_EQ(r.meanEnergyWh(), 0.0);
}

TEST(ServingDeathTest, OpenLoopChatbotNeedsPositiveQps)
{
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 0.0;
    cfg.numRequests = 3;
    EXPECT_DEATH(core::runServing(cfg),
                 "open-loop serving needs positive QPS");
}

TEST(Serving, ConcurrencyBeatsSequentialThroughput)
{
    ServeConfig seq;
    seq.agent = AgentKind::ReAct;
    seq.bench = Benchmark::HotpotQA;
    seq.engineConfig = core::enginePreset8b();
    seq.closedLoop = true;
    seq.numRequests = 8;
    const auto r_seq = core::runServing(seq);

    ServeConfig con = seq;
    con.closedLoop = false;
    con.qps = 2.0;
    const auto r_con = core::runServing(con);

    // Paper §IV-C: concurrency raises throughput substantially at
    // some latency cost.
    EXPECT_GT(r_con.throughputQps(), 2.0 * r_seq.throughputQps());
    EXPECT_GT(r_con.e2eSeconds.mean(), r_seq.e2eSeconds.mean());
}

TEST(Serving, PrefixCachingRaisesHitRate)
{
    ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::WebShop;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 1.0;
    cfg.numRequests = 20;
    const auto with = core::runServing(cfg);
    EXPECT_GT(with.cacheHitRate, 0.3);

    cfg.engineConfig.enablePrefixCaching = false;
    const auto without = core::runServing(cfg);
    EXPECT_DOUBLE_EQ(without.cacheHitRate, 0.0);
    // Caching reduces tail latency under identical load.
    EXPECT_LE(with.p95(), without.p95());
}

TEST(Serving, DeterministicAcrossRuns)
{
    ServeConfig cfg;
    cfg.chatbot = true;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 3.0;
    cfg.numRequests = 30;
    const auto a = core::runServing(cfg);
    const auto b = core::runServing(cfg);
    EXPECT_DOUBLE_EQ(a.makespanSeconds, b.makespanSeconds);
    EXPECT_DOUBLE_EQ(a.p95(), b.p95());
    EXPECT_DOUBLE_EQ(a.energyWh, b.energyWh);
}

TEST(Table, RendersAlignedCells)
{
    core::Table t("Demo");
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "22222"});
    const auto text = t.render();
    EXPECT_NE(text.find("Demo"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("22222"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(core::fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(core::fmtPercent(0.1234), "12.3%");
    EXPECT_EQ(core::fmtSeconds(0.0005), "500 us");
    EXPECT_EQ(core::fmtSeconds(0.5), "500.0 ms");
    EXPECT_EQ(core::fmtSeconds(12.0), "12.00 s");
    EXPECT_EQ(core::fmtCount(5.0), "5");
    EXPECT_EQ(core::fmtEng(1.5e9, "W"), "1.50 GW");
}

TEST(Energy, ProjectionMath)
{
    // Paper Table III: 0.32 Wh/query at 71.4 M queries/day ~ 1.0 MW.
    const double watts = energy::datacenterPowerWatts(
        0.32, energy::chatGptDailyQueries);
    EXPECT_NEAR(watts / 1e6, 0.95, 0.05);
    // Reflexion 70B at Google scale ~ 198.9 GW.
    const double reflexion70 = energy::datacenterPowerWatts(
        348.41, energy::googleDailyQueries);
    EXPECT_NEAR(reflexion70 / 1e9, 198.9, 1.0);
    // Reflexion 8B daily energy at ChatGPT scale ~ 2.97 GWh.
    EXPECT_NEAR(energy::dailyEnergyGWh(41.53,
                                       energy::chatGptDailyQueries),
                2.97, 0.05);
}

TEST(Energy, WauSeriesIsMonotone)
{
    const auto series = energy::chatGptWauSeries();
    ASSERT_GE(series.size(), 4u);
    for (std::size_t i = 1; i < series.size(); ++i)
        EXPECT_GT(series[i].millions, series[i - 1].millions);
    EXPECT_DOUBLE_EQ(series.back().millions, 500.0);
}

} // namespace
