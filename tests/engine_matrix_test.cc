/**
 * @file
 * Parameterized engine robustness matrix: the serving engine must
 * preserve its conservation laws and produce identical generations
 * across the full configuration grid (prefix caching x scheduler
 * policy x eviction policy x pool size x host tier), plus trace
 * export tests.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/probe.hh"
#include "core/trace_export.hh"
#include "serving/engine.hh"
#include "workload/token_stream.hh"

namespace
{

using namespace agentsim;
using serving::EngineConfig;
using serving::GenRequest;
using serving::GenResult;
using serving::LlmEngine;
using serving::SchedulerPolicy;

// (caching, scheduler, eviction, pool blocks, host blocks)
using EngineParams =
    std::tuple<bool, SchedulerPolicy, kv::EvictionPolicy, int, int>;

class EngineMatrix : public ::testing::TestWithParam<EngineParams>
{
  protected:
    EngineConfig
    makeConfig() const
    {
        const auto [caching, sched, evict, pool_blocks, host_blocks] =
            GetParam();
        EngineConfig cfg;
        cfg.model = llm::llama31_8b();
        cfg.node = llm::singleA100();
        cfg.enablePrefixCaching = caching;
        cfg.schedulerPolicy = sched;
        cfg.evictionPolicy = evict;
        cfg.kvPoolBytes =
            static_cast<std::int64_t>(pool_blocks) * 16 *
            cfg.model.kvBytesPerToken();
        cfg.hostCacheBlocks = host_blocks;
        return cfg;
    }
};

sim::Task<GenResult>
submit(LlmEngine &engine, std::uint64_t stream, std::int64_t len,
       std::int64_t out)
{
    GenRequest req;
    req.prompt = kv::TokenChain(engine.config().blockSize,
                                workload::makeTokens(stream, len));
    req.maxNewTokens = out;
    co_return co_await engine.generate(std::move(req));
}

TEST_P(EngineMatrix, ConcurrentRequestsAllTerminate)
{
    sim::Simulation sim;
    LlmEngine engine(sim, makeConfig());
    std::vector<sim::Task<GenResult>> tasks;
    for (int i = 0; i < 12; ++i) {
        // Re-submit a few popular prompts to exercise sharing.
        const std::uint64_t stream = 100 + (i % 5);
        tasks.push_back(submit(engine, stream, 200 + 40 * (i % 4),
                               20 + i));
    }
    sim.run();
    int terminated = 0;
    for (auto &t : tasks) {
        ASSERT_TRUE(t.done());
        const GenResult r = t.result();
        EXPECT_TRUE(r.failed || r.truncated ||
                    static_cast<int>(r.tokens.size()) >= 20);
        ++terminated;
    }
    EXPECT_EQ(terminated, 12);
    const auto &st = engine.stats();
    EXPECT_EQ(st.requestsSubmitted,
              st.requestsCompleted + st.requestsFailed);
    EXPECT_NEAR(st.prefillSeconds + st.decodeSeconds, st.busySeconds,
                1e-6);
}

TEST_P(EngineMatrix, GeneratedTokensIndependentOfConfig)
{
    // The same request must yield identical output tokens no matter
    // how the engine is configured — scheduling and caching change
    // timing, never content.
    sim::Simulation sim;
    LlmEngine engine(sim, makeConfig());
    auto t = submit(engine, 7, 100, 16);
    sim.run();
    const GenResult r = t.result();
    if (r.failed || r.truncated)
        return; // tiny pools may legitimately truncate
    // Reference: default-config engine.
    EngineConfig ref_cfg;
    ref_cfg.model = llm::llama31_8b();
    ref_cfg.node = llm::singleA100();
    sim::Simulation ref_sim;
    LlmEngine ref(ref_sim, ref_cfg);
    auto rt = submit(ref, 7, 100, 16);
    ref_sim.run();
    EXPECT_EQ(r.tokens, rt.result().tokens);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EngineMatrix,
    ::testing::Combine(
        ::testing::Values(true, false),
        ::testing::Values(SchedulerPolicy::Fcfs,
                          SchedulerPolicy::ShortestPromptFirst),
        ::testing::Values(kv::EvictionPolicy::Lru,
                          kv::EvictionPolicy::Fifo),
        ::testing::Values(64, 512, 4096),
        ::testing::Values(0, 256)));

TEST(TraceExport, ChromeJsonStructure)
{
    agents::AgentResult result;
    result.timeline.push_back(
        {agents::Span::Kind::Llm, 0, 1500, "react.step"});
    result.timeline.push_back(
        {agents::Span::Kind::Tool, 1500, 2700,
         "wikipedia.\"search\""});
    const auto json =
        core::toChromeTrace(result, "ReAct / HotpotQA");
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"react.step\""), std::string::npos);
    // Quotes in labels are escaped.
    EXPECT_NE(json.find("wikipedia.\\\"search\\\""),
              std::string::npos);
    EXPECT_NE(json.find("\"dur\":1200"), std::string::npos);
    EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

TEST(TraceExport, WritesFile)
{
    agents::AgentResult result;
    result.timeline.push_back(
        {agents::Span::Kind::Llm, 10, 20, "x"});
    const std::string path = "/tmp/agentsim_trace_test.json";
    ASSERT_TRUE(core::writeChromeTrace(path, result, "test"));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    std::remove(path.c_str());
}

} // namespace
