/**
 * @file
 * Tests for the agent workflows: structural properties of each
 * workflow (call counts, timeline shape, token taxonomy), determinism,
 * the accuracy model, and cross-agent orderings the paper reports.
 */

#include <gtest/gtest.h>

#include <memory>

#include "agents/accuracy.hh"
#include "agents/plan.hh"
#include "agents/workflows.hh"
#include "llm/hardware.hh"
#include "llm/model_spec.hh"
#include "workload/toolset_factory.hh"

namespace
{

using namespace agentsim;
using agents::AgentConfig;
using agents::AgentContext;
using agents::AgentKind;
using agents::AgentResult;
using workload::Benchmark;

/** A self-contained single-request agent harness. */
struct Harness
{
    sim::Simulation sim;
    serving::LlmEngine engine;
    std::unique_ptr<tools::ToolSet> tools;

    explicit Harness(std::uint64_t seed = 1)
        : engine(sim,
                 [] {
                     serving::EngineConfig cfg;
                     cfg.model = llm::llama31_8b();
                     cfg.node = llm::singleA100();
                     return cfg;
                 }()),
          seed_(seed)
    {
    }

    AgentResult
    runOne(AgentKind kind, Benchmark bench, std::uint64_t task_index,
           AgentConfig cfg = {})
    {
        tools = workload::makeToolSet(bench, sim, engine, seed_);
        workload::TaskGenerator gen(bench, seed_);
        AgentContext ctx;
        ctx.sim = &sim;
        ctx.engine = &engine;
        ctx.tools = tools.get();
        ctx.task = gen.sample(task_index);
        ctx.config = cfg;
        ctx.kind = kind;
        ctx.seed = seed_;

        auto agent = agents::makeAgent(kind);
        auto t = agent->run(ctx);
        sim.run();
        return t.result();
    }

  private:
    std::uint64_t seed_;
};

TEST(Capabilities, TableOne)
{
    const auto cot = agents::capabilities(AgentKind::CoT);
    EXPECT_TRUE(cot.reasoning);
    EXPECT_FALSE(cot.toolUse);
    const auto react = agents::capabilities(AgentKind::ReAct);
    EXPECT_TRUE(react.toolUse);
    EXPECT_FALSE(react.reflection);
    const auto reflexion = agents::capabilities(AgentKind::Reflexion);
    EXPECT_TRUE(reflexion.reflection);
    EXPECT_FALSE(reflexion.treeSearch);
    const auto lats = agents::capabilities(AgentKind::Lats);
    EXPECT_TRUE(lats.treeSearch);
    EXPECT_FALSE(lats.structuredPlanning);
    const auto compiler = agents::capabilities(AgentKind::LlmCompiler);
    EXPECT_TRUE(compiler.structuredPlanning);
}

TEST(Capabilities, SupportMatrix)
{
    EXPECT_FALSE(
        agents::agentSupports(AgentKind::CoT, Benchmark::WebShop));
    EXPECT_TRUE(
        agents::agentSupports(AgentKind::CoT, Benchmark::HotpotQA));
    EXPECT_FALSE(agents::agentSupports(AgentKind::LlmCompiler,
                                       Benchmark::Math));
    EXPECT_TRUE(agents::agentSupports(AgentKind::ReAct,
                                      Benchmark::HumanEval));
    EXPECT_FALSE(agents::agentSupports(AgentKind::ReAct,
                                       Benchmark::ShareGpt));
}

TEST(Accuracy, FewShotFactorShape)
{
    EXPECT_NEAR(agents::fewShotFactor(0), 0.62, 1e-9);
    EXPECT_GT(agents::fewShotFactor(4), agents::fewShotFactor(1));
    EXPECT_GT(agents::fewShotFactor(8), 0.95);
    // Overload: slightly declining past 8 examples.
    EXPECT_LT(agents::fewShotFactor(14), agents::fewShotFactor(8));
}

TEST(Accuracy, ReflectionFactorSaturates)
{
    EXPECT_DOUBLE_EQ(agents::reflectionFactor(0), 1.0);
    const double r1 = agents::reflectionFactor(1);
    const double r4 = agents::reflectionFactor(4);
    const double r8 = agents::reflectionFactor(8);
    EXPECT_GT(r1, 1.0);
    EXPECT_GT(r4, r1);
    EXPECT_LT(r8 - r4, r4 - r1); // diminishing
    EXPECT_LT(r8, 1.0 + agents::Calibration::reflectionGain + 1e-9);
}

TEST(Accuracy, HopProbabilityMonotonicities)
{
    const double base = agents::hopSuccessProb(0.5, 4, 0, 0.3);
    EXPECT_GT(agents::hopSuccessProb(0.7, 4, 0, 0.3), base);
    EXPECT_GT(agents::hopSuccessProb(0.5, 4, 2, 0.3), base);
    EXPECT_LT(agents::hopSuccessProb(0.5, 4, 0, 0.6), base);
    EXPECT_LT(agents::hopSuccessProb(0.5, 4, 0, 0.3, 0.5), base);
    EXPECT_GE(agents::hopSuccessProb(0.5, 4, 0, 5.0),
              agents::Calibration::pMin);
    EXPECT_LE(agents::hopSuccessProb(5.0, 40, 10, 0.0),
              agents::Calibration::pMax);
}

TEST(Accuracy, ModelQualityByName)
{
    EXPECT_DOUBLE_EQ(agents::modelQuality("Llama-3.1-8B-Instruct"),
                     agents::Calibration::quality8b);
    EXPECT_DOUBLE_EQ(agents::modelQuality("Llama-3.1-70B-Instruct"),
                     agents::Calibration::quality70b);
}

TEST(Accuracy, AnswerProbability)
{
    EXPECT_DOUBLE_EQ(agents::answerSuccessProb(3, 3),
                     agents::Calibration::finishSuccess);
    EXPECT_DOUBLE_EQ(agents::answerSuccessProb(0, 3), 0.0);
    EXPECT_LT(agents::answerSuccessProb(1, 3),
              agents::answerSuccessProb(2, 3));
}

TEST(PlanGraph, AcyclicAndWaved)
{
    sim::Rng rng(1, "plan", 0);
    const auto g = agents::PlanGraph::sample(rng, 8, 0.5);
    g.checkInvariants();
    const auto waves = g.topologicalWaves();
    int total = 0;
    for (const auto &w : waves)
        total += static_cast<int>(w.size());
    EXPECT_EQ(total, 8);
    EXPECT_EQ(g.criticalPathLength(),
              static_cast<int>(waves.size()));
}

TEST(PlanGraph, DenseDependenciesSerialize)
{
    sim::Rng rng(1, "plan", 1);
    double chain_len = 0.0;
    double free_len = 0.0;
    for (int i = 0; i < 50; ++i) {
        chain_len +=
            agents::PlanGraph::sample(rng, 6, 0.9).criticalPathLength();
        free_len +=
            agents::PlanGraph::sample(rng, 6, 0.1).criticalPathLength();
    }
    EXPECT_GT(chain_len, 2.0 * free_len);
}

TEST(Workflows, CotIsSingleCallNoTools)
{
    Harness h;
    const auto r = h.runOne(AgentKind::CoT, Benchmark::HotpotQA, 0);
    EXPECT_EQ(r.llmCalls, 1);
    EXPECT_EQ(r.toolCalls, 0);
    EXPECT_EQ(r.tokens.toolHistory, 0);
    EXPECT_EQ(r.tokens.llmHistory, 0);
    EXPECT_GT(r.tokens.output, 150); // long single rationale
    EXPECT_DOUBLE_EQ(r.latency.toolOnlySeconds, 0.0);
    EXPECT_DOUBLE_EQ(r.latency.overlapSeconds, 0.0);
}

TEST(Workflows, ReactAlternatesLlmAndTools)
{
    // Find a task where the agent takes at least two iterations (an
    // early premature-Finish on iteration one is legal behaviour).
    agents::AgentResult r;
    for (std::uint64_t task = 0; task < 16; ++task) {
        Harness h;
        r = h.runOne(AgentKind::ReAct, Benchmark::HotpotQA, task);
        if (r.llmCalls > 1)
            break;
    }
    EXPECT_GT(r.llmCalls, 1);
    EXPECT_GT(r.toolCalls, 0);
    EXPECT_LE(r.toolCalls, r.llmCalls);
    EXPECT_GT(r.tokens.toolHistory, 0);
    EXPECT_GT(r.tokens.llmHistory, 0);
    // Strictly sequential workflow: no LLM/tool overlap.
    EXPECT_DOUBLE_EQ(r.latency.overlapSeconds, 0.0);
    EXPECT_LE(r.iterationsUsed, AgentConfig{}.maxIterations);
}

TEST(Workflows, ReactRespectsIterationBudget)
{
    Harness h;
    AgentConfig cfg;
    cfg.maxIterations = 2;
    const auto r =
        h.runOne(AgentKind::ReAct, Benchmark::HotpotQA, 2, cfg);
    EXPECT_LE(r.llmCalls, 2);
    EXPECT_LE(r.toolCalls, 2);
}

TEST(Workflows, ContextGrowsAcrossReactIterations)
{
    Harness h;
    const auto r = h.runOne(AgentKind::ReAct, Benchmark::HotpotQA, 3);
    ASSERT_GE(r.perCall.size(), 2u);
    // Paper Fig 9: histories accumulate monotonically.
    for (std::size_t i = 1; i < r.perCall.size(); ++i) {
        EXPECT_GE(r.perCall[i].inputTotal(),
                  r.perCall[i - 1].inputTotal());
    }
    EXPECT_GT(r.perCall.back().inputTotal(),
              r.perCall.front().inputTotal());
    // Fixed segments stay constant.
    for (const auto &call : r.perCall) {
        EXPECT_EQ(call.instruction, r.perCall[0].instruction);
        EXPECT_EQ(call.fewShot, r.perCall[0].fewShot);
    }
}

TEST(Workflows, ReflexionRetriesAfterFailure)
{
    Harness h;
    AgentConfig cfg;
    // Force failure pressure: tiny iteration budget, several retries.
    cfg.maxIterations = 2;
    cfg.maxReflections = 3;
    const auto r =
        h.runOne(AgentKind::Reflexion, Benchmark::HotpotQA, 4, cfg);
    // With such a small budget at least one reflection is all but
    // certain; structurally we assert evaluate+reflect calls appear.
    if (r.reflectionsUsed > 0) {
        EXPECT_GT(r.llmCalls, r.iterationsUsed);
    }
    EXPECT_LE(r.reflectionsUsed, 3);
}

TEST(Workflows, LatsIssuesManyCallsWithParallelism)
{
    Harness h;
    const auto r = h.runOne(AgentKind::Lats, Benchmark::HotpotQA, 5);
    // Tree search multiplies LLM calls (paper: ~71 on average).
    EXPECT_GT(r.llmCalls, 8);
    EXPECT_GT(r.toolCalls, 4);
    // Parallel siblings: wall-clock LLM time is less than the sum of
    // individual spans would suggest — check via span overlap of the
    // timeline (at least two LLM spans share an instant).
    bool overlapping_llm = false;
    for (std::size_t i = 0; i < r.timeline.size() && !overlapping_llm;
         ++i) {
        for (std::size_t j = i + 1; j < r.timeline.size(); ++j) {
            const auto &a = r.timeline[i];
            const auto &b = r.timeline[j];
            if (a.kind == agents::Span::Kind::Llm &&
                b.kind == agents::Span::Kind::Llm &&
                a.start < b.end && b.start < a.end) {
                overlapping_llm = true;
                break;
            }
        }
    }
    EXPECT_TRUE(overlapping_llm);
}

TEST(Workflows, LatsChildCountScalesCalls)
{
    Harness h1;
    AgentConfig narrow;
    narrow.latsChildren = 1;
    narrow.maxIterations = 3;
    const auto r1 =
        h1.runOne(AgentKind::Lats, Benchmark::HotpotQA, 6, narrow);

    Harness h2;
    AgentConfig wide = narrow;
    wide.latsChildren = 6;
    const auto r6 =
        h2.runOne(AgentKind::Lats, Benchmark::HotpotQA, 6, wide);
    EXPECT_GT(r6.llmCalls, r1.llmCalls);
    EXPECT_GT(r6.toolCalls, r1.toolCalls);
}

TEST(Workflows, LlmCompilerOverlapsPlanningAndTools)
{
    Harness h;
    const auto r =
        h.runOne(AgentKind::LlmCompiler, Benchmark::HotpotQA, 7);
    EXPECT_GT(r.llmCalls, 1);
    EXPECT_GT(r.toolCalls, 0);
    // The signature feature: planning and tool execution overlap.
    EXPECT_GT(r.latency.overlapSeconds, 0.0);
}

TEST(Workflows, DeterministicAcrossRuns)
{
    for (AgentKind kind :
         {AgentKind::CoT, AgentKind::ReAct, AgentKind::Reflexion,
          AgentKind::Lats, AgentKind::LlmCompiler}) {
        Harness h1(99);
        Harness h2(99);
        const auto a = h1.runOne(kind, Benchmark::HotpotQA, 11);
        const auto b = h2.runOne(kind, Benchmark::HotpotQA, 11);
        EXPECT_EQ(a.llmCalls, b.llmCalls) << agents::agentName(kind);
        EXPECT_EQ(a.toolCalls, b.toolCalls);
        EXPECT_EQ(a.solved, b.solved);
        EXPECT_DOUBLE_EQ(a.e2eSeconds, b.e2eSeconds);
        EXPECT_DOUBLE_EQ(a.flops, b.flops);
    }
}

TEST(Workflows, ToolAugmentedAgentsCallLlmMoreThanCot)
{
    // Paper Fig 4: tool-augmented agents average ~9x CoT's single
    // call; LATS is the extreme.
    double cot = 0.0;
    double react = 0.0;
    double lats = 0.0;
    const int n = 8;
    for (int i = 0; i < n; ++i) {
        Harness hc;
        cot += hc.runOne(AgentKind::CoT, Benchmark::HotpotQA,
                         static_cast<std::uint64_t>(i))
                   .llmCalls;
        Harness hr;
        react += hr.runOne(AgentKind::ReAct, Benchmark::HotpotQA,
                           static_cast<std::uint64_t>(i))
                     .llmCalls;
        Harness hl;
        lats += hl.runOne(AgentKind::Lats, Benchmark::HotpotQA,
                          static_cast<std::uint64_t>(i))
                    .llmCalls;
    }
    EXPECT_DOUBLE_EQ(cot / n, 1.0);
    EXPECT_GT(react / n, 3.0);
    EXPECT_GT(lats / n, 2.5 * react / n);
}

TEST(Workflows, HotpotToolTimeDominatesWebshopDoesNot)
{
    // Paper Fig 5: slow Wikipedia calls dominate HotpotQA latency;
    // WebShop's 20 ms tools leave LLM time dominant.
    Harness h1;
    const auto hotpot =
        h1.runOne(AgentKind::ReAct, Benchmark::HotpotQA, 21);
    Harness h2;
    const auto shop =
        h2.runOne(AgentKind::ReAct, Benchmark::WebShop, 21);
    const double hotpot_tool_share =
        hotpot.latency.toolOnlySeconds / hotpot.e2eSeconds;
    const double shop_tool_share =
        shop.latency.toolOnlySeconds / shop.e2eSeconds;
    EXPECT_GT(hotpot_tool_share, 0.25);
    EXPECT_LT(shop_tool_share, 0.10);
}

/** @p got equals @p want: the same chain and the same breakdown. */
void
expectSamePrompt(const agents::PromptBuilder &got,
                 const agents::PromptBuilder &want)
{
    EXPECT_EQ(got.chain(), want.chain());
    const agents::CallTokens a = got.build().breakdown;
    const agents::CallTokens b = want.build().breakdown;
    EXPECT_EQ(a.instruction, b.instruction);
    EXPECT_EQ(a.fewShot, b.fewShot);
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.llmHistory, b.llmHistory);
    EXPECT_EQ(a.toolHistory, b.toolHistory);
}

TEST(PromptHeads, CachedHeadEqualsFreshBuild)
{
    // Every key field of the per-run head cache varies here; a head
    // served from the cache (built by an earlier episode or not)
    // must equal one built afresh without a cache.
    sim::Simulation sim;
    serving::EngineConfig cfg;
    cfg.model = llm::llama31_8b();
    cfg.node = llm::singleA100();
    serving::LlmEngine bs16(sim, cfg);
    cfg.blockSize = 17;
    serving::LlmEngine bs17(sim, cfg);

    agents::PromptHeadCache heads;
    for (int pass = 0; pass < 2; ++pass) {
        for (serving::LlmEngine *engine : {&bs16, &bs17}) {
            for (const AgentKind kind :
                 {AgentKind::ReAct, AgentKind::Reflexion}) {
                for (const std::uint64_t seed : {1u, 2u}) {
                    for (const int few_shot : {-1, 0, 3}) {
                        for (const std::uint64_t task : {0u, 5u}) {
                            AgentContext ctx;
                            ctx.sim = &sim;
                            ctx.engine = engine;
                            ctx.kind = kind;
                            ctx.seed = seed;
                            ctx.config.fewShotExamples = few_shot;
                            ctx.task = workload::TaskGenerator(
                                           Benchmark::HotpotQA, seed)
                                           .sample(task);
                            const auto fresh = ctx.promptPrefix();
                            const auto fresh_eval = ctx.evaluatorPrefix();
                            ctx.heads = &heads;
                            expectSamePrompt(ctx.promptPrefix(), fresh);
                            expectSamePrompt(ctx.evaluatorPrefix(),
                                             fresh_eval);
                        }
                    }
                }
            }
        }
    }
    // One head per (agent, benchmark, few-shot count, block size,
    // seed): tasks share it, and a second pass builds none. The
    // counts are HotpotQA's default, 0 (also the evaluator's) and 3.
    ASSERT_NE(workload::profile(Benchmark::HotpotQA).defaultFewShot, 3);
    EXPECT_EQ(heads.size(), 2u * 2u * 2u * 3u);
}

} // namespace
