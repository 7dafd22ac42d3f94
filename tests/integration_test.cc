/**
 * @file
 * Cross-module integration and property tests: end-to-end agent runs
 * on every supported (agent, benchmark) pair, engine conservation
 * laws, failure injection with pathological KV pools, accuracy-model
 * statistics, and trace interval algebra.
 */

#include <gtest/gtest.h>

#include "agents/accuracy.hh"
#include "agents/workflows.hh"
#include "core/probe.hh"
#include "core/serving_system.hh"
#include "workload/token_stream.hh"
#include "workload/toolset_factory.hh"

namespace
{

using namespace agentsim;
using agents::AgentKind;
using workload::Benchmark;

// ---------------------------------------------------------------
// Every supported pair runs end to end and produces sane records.
// ---------------------------------------------------------------

struct PairCase
{
    AgentKind agent;
    Benchmark bench;
};

class EveryPair : public ::testing::TestWithParam<PairCase>
{
};

TEST_P(EveryPair, RunsEndToEnd)
{
    const auto [agent, bench] = GetParam();
    core::ProbeConfig cfg;
    cfg.agent = agent;
    cfg.bench = bench;
    cfg.engineConfig = core::enginePreset8b();
    cfg.numTasks = 3;
    cfg.seed = 42;
    const auto r = core::runProbe(cfg);
    ASSERT_EQ(r.requests.size(), 3u);
    for (const auto &req : r.requests) {
        const auto &res = req.result;
        EXPECT_GE(res.llmCalls, 1);
        EXPECT_GT(res.e2eSeconds, 0.0);
        EXPECT_GT(res.tokens.instruction, 0);
        EXPECT_GT(res.tokens.output, 0);
        EXPECT_EQ(res.perCall.size(),
                  static_cast<std::size_t>(res.llmCalls));
        // Latency decomposition must tile the window.
        const auto &lat = res.latency;
        EXPECT_NEAR(lat.llmOnlySeconds + lat.toolOnlySeconds +
                        lat.overlapSeconds + lat.otherSeconds,
                    lat.e2eSeconds, 1e-6);
        // Timeline spans stay inside the window.
        for (const auto &span : res.timeline)
            EXPECT_LE(span.start, span.end);
        // Tool-less agents never record tool spans.
        if (agent == AgentKind::CoT)
            EXPECT_EQ(res.toolCalls, 0);
        else
            EXPECT_GT(res.toolCalls, 0);
    }
}

std::vector<PairCase>
allPairs()
{
    std::vector<PairCase> cases;
    for (Benchmark b : workload::agenticBenchmarks) {
        for (AgentKind a : agents::allAgents) {
            if (agents::agentSupports(a, b))
                cases.push_back({a, b});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, EveryPair, ::testing::ValuesIn(allPairs()),
    [](const ::testing::TestParamInfo<PairCase> &info) {
        return std::string(workload::benchmarkName(
                   info.param.bench)) +
               "_" + std::string(agents::agentName(info.param.agent));
    });

// ---------------------------------------------------------------
// Engine conservation laws under concurrent load.
// ---------------------------------------------------------------

TEST(EngineConservation, TokensAndPhasesAddUp)
{
    core::ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::HotpotQA;
    cfg.engineConfig = core::enginePreset8b();
    cfg.qps = 1.0;
    cfg.numRequests = 30;
    cfg.seed = 5;
    const auto r = core::runServing(cfg);
    EXPECT_EQ(r.completed, 30);
    const auto &st = r.engineStats;
    EXPECT_EQ(st.requestsSubmitted, st.requestsCompleted);
    EXPECT_EQ(st.requestsFailed, 0);
    EXPECT_NEAR(st.prefillSeconds + st.decodeSeconds, st.busySeconds,
                1e-6);
    EXPECT_GT(st.decodeTokens, 0);
    EXPECT_GT(st.prefillTokens, 0);
    EXPECT_LE(st.coreActiveSeconds, st.busySeconds + 1e-9);
}

// ---------------------------------------------------------------
// Failure injection: pathological KV pool sizes never hang the
// simulation or lose requests.
// ---------------------------------------------------------------

class TinyPool : public ::testing::TestWithParam<int>
{
};

TEST_P(TinyPool, ServingCompletesOrFailsCleanly)
{
    core::ServeConfig cfg;
    cfg.agent = AgentKind::ReAct;
    cfg.bench = Benchmark::WebShop;
    cfg.engineConfig = core::enginePreset8b();
    cfg.engineConfig.kvPoolBytes =
        static_cast<std::int64_t>(GetParam()) * 16 *
        cfg.engineConfig.model.kvBytesPerToken();
    cfg.qps = 1.0;
    cfg.numRequests = 12;
    cfg.seed = 9;
    const auto r = core::runServing(cfg);
    // Every request terminates (success, truncation, or failure);
    // the run itself never wedges.
    EXPECT_EQ(r.completed, 12);
    EXPECT_GT(r.makespanSeconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(PoolBlocks, TinyPool,
                         ::testing::Values(40, 80, 150, 300, 600));

// ---------------------------------------------------------------
// Accuracy-model statistics (property-style).
// ---------------------------------------------------------------

TEST(AccuracyModel, ContextCapabilityCentersOnBase)
{
    sim::Rng rng(3, "cap", 0);
    double total = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double c = agents::contextCapability(rng, 0.5, 0.1);
        EXPECT_GE(c, agents::Calibration::pMin);
        EXPECT_LE(c, agents::Calibration::pMax);
        total += c;
    }
    EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(AccuracyModel, AttemptHopRates)
{
    sim::Rng rng(3, "hop", 0);
    int capable_hits = 0;
    int incapable_hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        capable_hits += agents::attemptHop(rng, 0.9, 0.5);
        incapable_hits += agents::attemptHop(rng, 0.2, 0.5);
    }
    EXPECT_NEAR(static_cast<double>(capable_hits) / n,
                agents::Calibration::pFind, 0.02);
    EXPECT_NEAR(static_cast<double>(incapable_hits) / n,
                agents::Calibration::pLuck, 0.01);
}

TEST(AccuracyModel, WideExplorationLiftsHardTasks)
{
    // The LATS mechanism: max over many wide-noise draws clears
    // thresholds far above base; narrow serial draws rarely do.
    sim::Rng rng(3, "explore", 0);
    const double base = 0.3;
    const double hard = 0.8;
    int wide_clears = 0;
    int narrow_clears = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
        bool wide = false;
        for (int b = 0; b < 10; ++b) {
            wide |= agents::contextCapability(
                        rng, base,
                        agents::Calibration::exploreSigmaBranch) >
                    hard;
        }
        wide_clears += wide;
        bool narrow = false;
        for (int b = 0; b < 4; ++b) {
            narrow |= agents::contextCapability(
                          rng, base,
                          agents::Calibration::exploreSigmaTrial) >
                      hard;
        }
        narrow_clears += narrow;
    }
    EXPECT_GT(wide_clears, 10 * std::max(1, narrow_clears));
}

TEST(AccuracyModel, OneShotRespectsThreshold)
{
    sim::Rng rng(3, "oneshot", 0);
    int above = 0;
    int below = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        above += agents::oneShotSolve(rng, 0.9, 0.5);
        below += agents::oneShotSolve(rng, 0.2, 0.5);
    }
    EXPECT_NEAR(static_cast<double>(above) / n,
                agents::Calibration::finishSuccess, 0.02);
    EXPECT_NEAR(static_cast<double>(below) / n,
                agents::Calibration::pLuck, 0.01);
}

// ---------------------------------------------------------------
// Accuracy orderings the paper reports (coarse, seeded).
// ---------------------------------------------------------------

double
accuracyOf(AgentKind agent, Benchmark bench, bool use70b)
{
    core::ProbeConfig cfg;
    cfg.agent = agent;
    cfg.bench = bench;
    cfg.engineConfig =
        use70b ? core::enginePreset70b() : core::enginePreset8b();
    cfg.numTasks = 50;
    cfg.seed = 2026;
    return core::runProbe(cfg).accuracy();
}

TEST(AccuracyOrdering, HotpotQaMatchesPaperShape)
{
    const double cot = accuracyOf(AgentKind::CoT,
                                  Benchmark::HotpotQA, false);
    const double react = accuracyOf(AgentKind::ReAct,
                                    Benchmark::HotpotQA, false);
    const double reflexion = accuracyOf(AgentKind::Reflexion,
                                        Benchmark::HotpotQA, false);
    const double lats = accuracyOf(AgentKind::Lats,
                                   Benchmark::HotpotQA, false);
    // Paper Table III anchors: Reflexion 38%, LATS 80% on the 8B
    // model; tree search dominates serial reflection by a wide
    // margin, which dominates plain ReAct and CoT.
    EXPECT_GT(lats, 0.60);
    EXPECT_LT(lats, 0.95);
    EXPECT_GT(reflexion, 0.18);
    EXPECT_LT(reflexion, 0.60);
    EXPECT_GT(lats, reflexion + 0.15);
    EXPECT_GE(reflexion, react);
    EXPECT_GE(react + 0.05, cot); // CoT no better than ReAct
}

TEST(AccuracyOrdering, BiggerModelHelpsReflexion)
{
    const double small = accuracyOf(AgentKind::Reflexion,
                                    Benchmark::HotpotQA, false);
    const double big = accuracyOf(AgentKind::Reflexion,
                                  Benchmark::HotpotQA, true);
    EXPECT_GT(big, small + 0.05);
}

TEST(AccuracyOrdering, ParallelScalingClosesModelGap)
{
    // Paper Fig 22: 8B + LATS approaches 70B LATS accuracy.
    const double lats8 = accuracyOf(AgentKind::Lats,
                                    Benchmark::HotpotQA, false);
    const double lats70 = accuracyOf(AgentKind::Lats,
                                     Benchmark::HotpotQA, true);
    EXPECT_LT(lats70 - lats8, 0.20);
}

// ---------------------------------------------------------------
// Trace interval algebra edge cases.
// ---------------------------------------------------------------

TEST(TraceAlgebra, DisjointAndNestedSpans)
{
    using agents::Span;
    std::vector<Span> spans{
        {Span::Kind::Llm, 0, 100, "a"},
        {Span::Kind::Llm, 50, 80, "nested"},
        {Span::Kind::Tool, 100, 200, "t"},
    };
    const auto b = agents::breakdownSpans(spans, 0, 250);
    EXPECT_DOUBLE_EQ(b.llmOnlySeconds, sim::toSeconds(100));
    EXPECT_DOUBLE_EQ(b.toolOnlySeconds, sim::toSeconds(100));
    EXPECT_DOUBLE_EQ(b.overlapSeconds, 0.0);
    EXPECT_DOUBLE_EQ(b.otherSeconds, sim::toSeconds(50));
}

TEST(TraceAlgebra, PartialOverlap)
{
    using agents::Span;
    std::vector<Span> spans{
        {Span::Kind::Llm, 0, 100, "l"},
        {Span::Kind::Tool, 60, 160, "t"},
    };
    const auto b = agents::breakdownSpans(spans, 0, 160);
    EXPECT_DOUBLE_EQ(b.overlapSeconds, sim::toSeconds(40));
    EXPECT_DOUBLE_EQ(b.llmOnlySeconds, sim::toSeconds(60));
    EXPECT_DOUBLE_EQ(b.toolOnlySeconds, sim::toSeconds(60));
    EXPECT_NEAR(b.otherSeconds, 0.0, 1e-12);
}

TEST(TraceAlgebra, EmptySpans)
{
    const auto b = agents::breakdownSpans({}, 0, 1000);
    EXPECT_DOUBLE_EQ(b.llmOnlySeconds, 0.0);
    EXPECT_DOUBLE_EQ(b.otherSeconds, sim::toSeconds(1000));
}

// ---------------------------------------------------------------
// Prompt builder bookkeeping.
// ---------------------------------------------------------------

TEST(PromptBuilder, BreakdownMatchesContent)
{
    using agents::PromptBuilder;
    using agents::SegmentKind;
    const auto instr = workload::makeTokens(1, 10);
    const auto user = workload::makeTokens(2, 5);
    const auto hist = workload::makeTokens(3, 7);
    PromptBuilder b(4);
    b.add(SegmentKind::Instruction, instr)
        .add(SegmentKind::User, user)
        .add(SegmentKind::LlmHistory, hist);
    const auto prompt = b.build();
    EXPECT_EQ(prompt.chain.size(), 22);
    EXPECT_EQ(prompt.breakdown.instruction, 10);
    EXPECT_EQ(prompt.breakdown.user, 5);
    EXPECT_EQ(prompt.breakdown.llmHistory, 7);
    EXPECT_EQ(prompt.breakdown.inputTotal(), 22);
    // Order preserved: instruction, then user, then history.
    std::vector<kv::TokenId> expected = instr;
    expected.insert(expected.end(), user.begin(), user.end());
    expected.insert(expected.end(), hist.begin(), hist.end());
    EXPECT_EQ(prompt.chain, kv::TokenChain(4, expected));
}

TEST(TrajectoryMemory, CountsAndClear)
{
    using agents::SegmentKind;
    agents::TrajectoryMemory mem;
    mem.append(SegmentKind::LlmHistory, workload::makeTokens(1, 4));
    mem.append(SegmentKind::ToolHistory, workload::makeTokens(2, 6));
    mem.append(SegmentKind::LlmHistory, workload::makeTokens(3, 2));
    EXPECT_EQ(mem.tokenCount(SegmentKind::LlmHistory), 6);
    EXPECT_EQ(mem.tokenCount(SegmentKind::ToolHistory), 6);
    EXPECT_EQ(mem.totalTokens(), 12);
    mem.clear();
    EXPECT_EQ(mem.totalTokens(), 0);
}

TEST(PerfModel, PerSequenceOverheadScalesWithBatch)
{
    llm::PerfModel model(llm::llama31_8b(), llm::singleA100());
    llm::StepWork one;
    one.decodeContexts = {100};
    llm::StepWork many = one;
    for (int i = 0; i < 99; ++i)
        many.decodeContexts.push_back(100);
    const double t1 = model.stepCost(one).seconds;
    const double t100 = model.stepCost(many).seconds;
    // The batch costs at least the extra per-sequence overhead.
    EXPECT_GE(t100 - t1,
              99 * model.node().perSeqOverheadSec - 1e-9);
}

} // namespace
